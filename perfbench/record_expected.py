"""Write ``expected/<workload>.json``, the output digests ``run.py`` checks.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Run from the repository root on a checkout whose outputs are known to be
right.  Each workload runs in a fresh interpreter with ``MODLAB_CACHE``
unset.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from workloads import EXPECTED_DIR, WORKLOADS, RunAllWorkload  # noqa: E402


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as out:
        result = workload.run(workload.setup(0), out)
        if isinstance(workload, RunAllWorkload):
            expected = workload.digests(out)
            expected["ops"] = sum(row["modules"] + len(row["suites"])
                                  for row in result[1]["rings"])
        else:
            expected = {"ops": len(result)}
    return expected


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    if len(names) > 1:
        # one fresh interpreter per workload: modlab's memos would carry
        # one workload's results (module descriptions too) into the next
        for name in names:
            subprocess.run([sys.executable, os.path.abspath(__file__), name], check=True)
        return 0
    os.environ.pop("MODLAB_CACHE", None)
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    expected = record(names[0])
    with open(os.path.join(EXPECTED_DIR, f"{names[0]}.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{names[0]}: {expected['ops']} ops", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
