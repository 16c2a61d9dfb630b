"""modlab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload bundle --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every workload run happens in a fresh,
single-threaded interpreter (``worker.py``) with ``MODLAB_CACHE`` removed
from its environment and a fresh output directory, because modlab's
module-level memos and its disk cache would otherwise turn a repeat into
a warm-cache run.  Outputs are checked against ``expected/``.

``--trace 0`` reports the end-to-end metrics: medians over the workload
runs that fit in ``--seconds`` (at least one), and over several set-up
only runs for ``setup_s``.  ``--trace 1`` makes one untraced and one
traced run and reports the per-layer metrics of the traced one, with
``trace.overhead_s`` the difference of their wall times; the spans go to
``.bench_run/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when a result
was printed, 1 when a run failed, 2 for a bad invocation or a directory
without modlab's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracing import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ".bench_run"
SETUP_SAMPLES = 9
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class RunFailed(Exception):
    pass


def _reference_kernel() -> int:
    """Fixed pure-Python work, timed only to show how fast the host was."""
    acc = 0
    table = {}
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc + sum(table.values())


def reference_kernel_ms() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MODLAB_CACHE"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = worker_env()
        self.count = 0

    def spawn(self, setup_only: bool = False, spans: str | None = None) -> dict:
        self.count += 1
        out = os.path.join(self.run_dir, f"out{self.count}")
        os.mkdir(out)
        report = os.path.join(self.run_dir, f"report{self.count}.json")
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--out", out, "--report", report]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed("time budget used up")
        try:
            proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())],
                                  env=self.env, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"worker exceeded the {BUDGET_S:.0f} s budget") from None
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with status {proc.returncode}")
        with open(report) as fh:
            return json.load(fh)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    setups = [runner.spawn(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reports: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reports.append(runner.spawn())
        took = time.monotonic() - t0
        now = time.monotonic()
        if now - start >= seconds or now + 1.5 * took > runner.deadline:
            break
    setups += [r["setup_s"] for r in reports]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "cpu_s": statistics.median(r["cpu_s"] for r in reports),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "ok_frac": 1 - failed / attempted,
    }
    return values, reports


def per_layer(runner: Runner, spans: str) -> tuple[dict, list[dict]]:
    plain = runner.spawn()
    traced = runner.spawn(spans=spans)
    values = dict(traced["per_layer"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return values, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "modlab", "__init__.py")):
        print("no modlab sources under ./src: run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    # "build": byte-compile once so set-up runs do not pay for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   check=True, stdout=sys.stderr)
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    runner = Runner(args.workload, args.seed, run_dir, deadline)
    try:
        kernel_before = reference_kernel_ms()
        if args.trace:
            spans = os.path.join(SCRATCH, f"spans-{args.workload}-{args.seed}.jsonl")
            values, reports = per_layer(runner, spans)
            units = metric_units()
        else:
            values, reports = end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
        kernel_after = reference_kernel_ms()
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = sorted({p for r in reports for p in r["problems"]})
    for problem in problems:
        print(f"output problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(reports)} run(s), "
          f"{attempted} ops, {failed} failed (failed_frac {failed / attempted:g} "
          f"of {attempted} ops)")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"host reference kernel (context, not a metric): "
          f"{kernel_before:.1f} ms before, {kernel_after:.1f} ms after")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
