"""Record the reference outputs that run.py compares against on the default
workload seed.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right: it overwrites
reference.json with one pass of every workload on workloads.DEFAULT_SEED.
"""

import json
import sys

import run


def main():
    run.load_library()
    from workloads import DEFAULT_SEED, WORKLOADS

    ref = {}
    for name, cls in WORKLOADS.items():
        with run.work_dir(cls) as work:
            wl = cls(DEFAULT_SEED, work)
            wl.warm_up()
            outputs = wl.run_pass()
        if wl.failures:
            raise SystemExit(f"{name}: {wl.failures}")
        ref[name] = {key: [float(v) for v in val] for key, val in sorted(outputs.items())}
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
