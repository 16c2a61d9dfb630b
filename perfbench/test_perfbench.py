"""Tests of the benchmark itself, on a tiny configuration.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS  # noqa: E402
from tracing import ROOT, Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, HullSumsWorkload, RunAllWorkload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = RunAllWorkload("tiny", rings=("Z4",), suites=("P2.2", "T2.11"), max_generators=1)


def _tiny_bundle(out) -> tuple[tuple, dict]:
    result = TINY.run(TINY.setup(0), str(out))
    expected = TINY.digests(str(out))
    expected["ops"] = sum(row["modules"] + len(row["suites"])
                          for row in result[1]["rings"])
    return result, expected


def _flip_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def test_changed_byte_in_suite_file_is_one_failed_op(tmp_path):
    result, expected = _tiny_bundle(tmp_path)
    attempted, failed, problems = TINY.check(result, str(tmp_path), expected)
    assert (attempted, failed, problems) == (expected["ops"], 0, [])
    _flip_byte(tmp_path / "P2_2_Z4.json", 5)
    attempted, failed, problems = TINY.check(result, str(tmp_path), expected)
    assert (attempted, failed) == (expected["ops"], 1)
    assert problems == ["P2_2_Z4.json: differs"]


def test_changed_byte_in_profiles_or_summary_is_a_failed_op(tmp_path):
    result, expected = _tiny_bundle(tmp_path)
    _flip_byte(tmp_path / "summary.json", 3)
    assert TINY.check(result, str(tmp_path), expected)[1] == 1
    # a corrupted profiles file fails every profile of its ring
    (tmp_path / "profiles_Z4.json").write_text("{")
    modules = result[1]["rings"][0]["modules"]
    assert TINY.check(result, str(tmp_path), expected)[1] == 1 + modules


def test_missing_file_is_a_failed_op(tmp_path):
    result, expected = _tiny_bundle(tmp_path)
    (tmp_path / "T2_11_Z4.json").unlink()
    attempted, failed, problems = TINY.check(result, str(tmp_path), expected)
    assert failed == 1 and problems == ["T2_11_Z4.json: missing"]


def test_hull_pairs_that_raise_or_differ_are_failed_ops():
    workload = HullSumsWorkload("h", "Z4", 16)
    result = [(0, 0, True), (0, 1, False), (1, 1, "NotSubmodule: boom")]
    attempted, failed, problems = workload.check(result, "", {"ops": 3})
    assert (attempted, failed) == (3, 2)
    assert problems == ["pair (0, 1): not isomorphic", "pair (1, 1): NotSubmodule: boom"]


def test_hull_seed_permutes_pairs_only():
    workload = HullSumsWorkload("h", "Z4", 16)
    one = [(i, j) for i, j, *_ in workload.setup(1)]
    two = [(i, j) for i, j, *_ in workload.setup(2)]
    assert one != two and sorted(one) == sorted(two)


def test_layer_self_times_add_up_to_traced_wall(tmp_path):
    import modlab.cli
    import modlab.modules

    original = modlab.cli.run_all
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert modlab.cli.run_all is not original
        result, wall = tracer.root(TINY.run, TINY.setup(0), str(tmp_path), tracer.op)
    finally:
        restore()
    assert modlab.cli.run_all is original
    assert not hasattr(modlab.modules.FiniteModule.workspace, "__wrapped__")
    metrics = tracer.metrics()
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(wall, rel=1e-9)
    assert metrics[f"{ROOT}.self_s"] >= 0
    assert metrics["cli.run_all.calls"] == 1
    assert metrics["suites.calls"] == 2
    assert metrics["suites.P2.2.incl_s"] > 0 and metrics["suites.C2.7.incl_s"] == 0
    assert metrics["reports.profile.calls"] == result[1]["rings"][0]["modules"]
    # every span belongs to an op except the root and run_all's own
    ops = {span[5] for span in tracer.spans}
    assert len(ops - {None}) == metrics["reports.profile.calls"] + 2
    assert set(metrics) == set(metric_units()) - {"trace.overhead_s"}


def test_names_follow_the_contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = workloads + list(end_to_end) + list(per_layer)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(workloads) == set(WORKLOADS)
    assert end_to_end == END_TO_END_UNITS
    assert per_layer == metric_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
