"""Recompute the pinned output digests in ``digests.json``.

    python3 perfbench/pin_digests.py

Makes the checked run of every input of the pinned seeds and stores each
output's digest; an input whose invariant checks fail is not pinned and
the script stops.  Re-pin only with a change meant to alter srpicsim's
output.
"""

import json
import sys

from run import BENCH, use_source_tree

PINNED_SEEDS = range(0, 11)

if __name__ == "__main__":
    use_source_tree()
    import workloads

    pins = {}
    for name, wl in workloads.WORKLOADS.items():
        wl.setup()
        pins[name] = {}
        for seed in PINNED_SEEDS:
            digests = []
            for label, item in zip(wl.labels(seed), wl.inputs(seed)):
                out, errors = wl.checked_run(item)
                if errors:
                    sys.exit(f"{name} {label}: {'; '.join(errors)}")
                digests.append(wl.digest(out))
            pins[name][str(seed)] = digests
            print(name, seed, file=sys.stderr)
    (BENCH / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
