"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --t0 T \
        --out DIR --report FILE [--setup-only] [--spans FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
preparation.  The report (JSON) goes to ``--report``; with ``--spans`` the
run is traced and the per-layer metrics are added to it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest child.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, load_expected

    import modlab  # noqa: F401  (imports every layer; part of set-up)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    report: dict = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.spans:
            from tracing import Tracer

            tracer = Tracer()
            restore = tracer.install()
        cpu0 = _cpu_s()
        if tracer is None:
            t0 = time.perf_counter()
            result = workload.run(inputs, args.out)
            wall_s = time.perf_counter() - t0
        else:
            # the root span's duration, which the layer self times add up to
            result, wall_s = tracer.root(workload.run, inputs, args.out, tracer.op)
        cpu_s = _cpu_s() - cpu0
        if tracer is not None:
            restore()
            tracer.write_spans(args.spans)
            report["per_layer"] = tracer.metrics()
        attempted, failed, problems = workload.check(
            result, args.out, load_expected(args.workload))
        report.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=_peak_rss_mb(),
                      attempted=attempted, failed=failed, problems=problems)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
