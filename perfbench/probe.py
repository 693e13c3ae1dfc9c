"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 perfbench/probe.py [SCENARIO_FILE]

Times ``import srpicsim`` and, when a scenario file is named,
``load_scenario`` on it, and prints both as one JSON line.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import srpicsim

    t1 = time.perf_counter()
    if len(sys.argv) > 1:
        srpicsim.load_scenario(sys.argv[1])
    t2 = time.perf_counter()
    if not Path(srpicsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"probe: srpicsim imported from {srpicsim.__file__}, not {SRC}")
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
