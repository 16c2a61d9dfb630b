"""Acceptance criteria for the workbench, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Criteria quantified over "the default catalog" run over
the six built-in rings with the 2-generated, max-size-256 policy.  Time
bounds are enforced with fresh subprocesses so caches cannot flatter the
measurements.
"""

import filecmp
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

RINGS = ("Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2")
EQUIVALENCE_SUITES = ("P2.2", "P2.6", "T2.11", "T3.2", "T3.9", "C3.10")
STRUCTURAL_SUITES = ("L2.5", "C2.7", "C2.8", "P2.13", "C3.3", "C3.4", "P3.5",
                     "T3.6", "P3.8")


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    # bypass capture so one line per criterion always reaches the terminal
    print(f"ACCEPTANCE {number} [{status}] {detail}", file=sys.__stderr__)


def _run_cli(args, timeout=1800):
    return subprocess.run(
        [sys.executable, "-m", "modlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="session")
def full_bundle(tmp_path_factory):
    """One complete `verify --suite all` run over the six default rings in
    a fresh interpreter; reused by the suite-level criteria."""
    out = tmp_path_factory.mktemp("bundle_first")
    t0 = time.time()
    proc = _run_cli(["verify", "--suite", "all", "--ring", "all",
                     "--out", str(out)])
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    return out, elapsed


def _load(out_dir, suite, ring):
    name = f"{suite.replace('.', '_')}_{ring}.json"
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def test_criterion_1_flagship_lifting_profiles():
    """Mixed chain-ring modules: the short one lifts, the long one only
    relatively; both amply supplemented.  Fresh process, under 10 s."""
    code = (
        "import json\n"
        "from modlab.catalog import enumerate_modules, GenerationPolicy\n"
        "from modlab.rings import builtin_ring\n"
        "from modlab.reports import profile_module\n"
        "from modlab.modules import is_isomorphic, direct_sum, regular_module,"
        " span, submodule_as_module\n"
        "out = {}\n"
        "z4 = builtin_ring('Z4')\n"
        "m1 = direct_sum(submodule_as_module(span(regular_module(z4), [2])).module,"
        " regular_module(z4))\n"
        "p1 = profile_module(m1)\n"
        "z8 = builtin_ring('Z8')\n"
        "m2 = direct_sum(submodule_as_module(span(regular_module(z8), [4])).module,"
        " regular_module(z8))\n"
        "p2 = profile_module(m2)\n"
        "print(json.dumps({'m1': p1.predicates, 'm2': p2.predicates}))\n"
    )
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    data = json.loads(proc.stdout)
    ok = (
        data["m1"]["lifting"] is True
        and data["m1"]["t_lifting"] is True
        and data["m2"]["lifting"] is False
        and data["m2"]["amply_supplemented"] is True
        and data["m2"]["t_lifting"] is True
        and elapsed < 10.0
    )
    _report(1, ok, f"flagship lifting profiles exact; {elapsed:.2f}s < 10s")
    assert data["m1"]["lifting"] is True
    assert data["m1"]["t_lifting"] is True
    assert data["m2"]["lifting"] is False
    assert data["m2"]["amply_supplemented"] is True
    assert data["m2"]["t_lifting"] is True
    assert elapsed < 10.0


def test_criterion_2_regular_module_contrast():
    """The chain ring on itself: not dual-Baer, with the doubling ideal as
    witness, yet relatively dual-Baer.  Fresh process, under 5 s."""
    code = (
        "import json\n"
        "from modlab.rings import builtin_ring\n"
        "from modlab.modules import regular_module, hom_set\n"
        "from modlab.tpredicates import dual_baer_witness, is_t_dual_baer\n"
        "m = regular_module(builtin_ring('Z4'))\n"
        "w = dual_baer_witness(m)\n"
        "members, image_sum = w\n"
        "matrices = [h.matrix for h in hom_set(m, m)]\n"
        "doubling = matrices.index(((2,),))\n"
        "zero = matrices.index(((0,),))\n"
        "print(json.dumps({'dual_baer': w is None,"
        " 't_dual_baer': is_t_dual_baer(m),"
        " 'witness_members': sorted(members),"
        " 'expected_members': sorted([zero, doubling]),"
        " 'image_sum': sorted(image_sum)}))\n"
    )
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    data = json.loads(proc.stdout)
    ok = (
        data["dual_baer"] is False
        and data["t_dual_baer"] is True
        and data["witness_members"] == data["expected_members"]
        and data["image_sum"] == [0, 2]
        and elapsed < 5.0
    )
    _report(2, ok, f"regular-module dual-Baer contrast with doubling-ideal witness; "
                   f"{elapsed:.2f}s < 5s")
    assert data["dual_baer"] is False
    assert data["t_dual_baer"] is True
    assert data["witness_members"] == data["expected_members"]
    assert data["image_sum"] == [0, 2]
    assert elapsed < 5.0


def test_criterion_3_equivalence_suites(full_bundle):
    out, elapsed = full_bundle
    bad = []
    for suite in EQUIVALENCE_SUITES:
        for ring in RINGS:
            rep = _load(out, suite, ring)
            if rep["summary"]["disagreements"]:
                bad.append((suite, ring))
    ok = not bad and elapsed < 1800
    _report(3, ok, f"equivalence suites zero disagreements over six rings; "
                   f"full run {elapsed:.1f}s < 1800s")
    assert bad == []
    assert elapsed < 1800


def test_criterion_4_structural_suites(full_bundle):
    out, _ = full_bundle
    bad = []
    for suite in STRUCTURAL_SUITES:
        for ring in RINGS:
            rep = _load(out, suite, ring)
            if rep["summary"]["disagreements"]:
                bad.append((suite, ring))
    ok = not bad
    _report(4, ok, "structural suites zero violations over six rings")
    assert bad == []


def test_criterion_5_ring_level_suite(full_bundle):
    out, _ = full_bundle
    rep = _load(out, "T3.12", "F2xZ4")
    values = rep["instances"][0]["values"]
    all_true = all(v is True for v in values.values())
    agree_everywhere = all(
        _load(out, "T3.12", ring)["instances"][0]["agree"] for ring in RINGS
    )
    ok = all_true and len(values) == 7 and agree_everywhere
    _report(5, ok, "ring-level suite: all seven statements true over the "
                   "product-ring catalog; pairwise agreement on every ring")
    assert len(values) == 7
    assert all_true
    assert agree_everywhere


def test_criterion_6_oracle_cross_checks():
    from modlab.catalog import GenerationPolicy, enumerate_modules
    from modlab.cli import HarnessConfig, oracle_small, oracle_summand, oracle_zbar

    config = HarnessConfig()
    quiet = lambda *a, **k: None
    small_status = oracle_small(config, samples=1000, seed=0, echo=quiet)
    summand_status = oracle_summand(config, samples=0, echo=quiet)
    zbar_status = oracle_zbar(config, samples=0, echo=quiet)
    ok = small_status == 0 and summand_status == 0 and zbar_status == 0
    _report(6, ok, "radical fast path, summand witness and radical-kernel "
                   "containment all agree (catalog + 1000 random pairs)")
    assert small_status == 0
    assert summand_status == 0
    assert zbar_status == 0


def test_criterion_7_duality_and_hulls():
    from modlab.catalog import GenerationPolicy, enumerate_modules
    from modlab.lattice import is_essential
    from modlab.modules import is_isomorphic
    from modlab.rings import builtin_ring
    from modlab.structure import character_dual, injective_hull, is_injective

    failures = []
    for rid in RINGS:
        catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256),
                                    ring_id=rid)
        for i, m in enumerate(catalog.modules):
            double = character_dual(character_dual(m))
            if not is_isomorphic(double, m):
                failures.append((rid, i, "double dual"))
            hull, embed = injective_hull(m)
            if not embed.is_injective():
                failures.append((rid, i, "embedding not injective"))
            if not is_essential(embed.image(), hull):
                failures.append((rid, i, "embedding not essential"))
            if not is_injective(hull):
                failures.append((rid, i, "hull not injective"))
    ok = not failures
    _report(7, ok, "double duality, essential embeddings and injective hulls "
                   "verified on every catalog module")
    assert failures == []


def test_criterion_8_determinism(full_bundle, tmp_path_factory):
    """The fixture's run uses the default worker processes; this one runs
    every ring in one process, so the two paths must agree byte for byte."""
    out1, _ = full_bundle
    out2 = tmp_path_factory.mktemp("bundle_second")
    proc = _run_cli(["verify", "--suite", "all", "--ring", "all",
                     "--out", str(out2), "--jobs", "1"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    names1 = sorted(os.listdir(out1))
    names2 = sorted(os.listdir(out2))
    same_names = names1 == names2
    diffs = []
    for name in names1:
        if not filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name),
                           shallow=False):
            diffs.append(name)
    ok = same_names and not diffs
    _report(8, ok, f"default-jobs and --jobs 1 full runs byte-identical "
                   f"({len(names1)} report files)")
    assert same_names
    assert diffs == []


def _digests(out) -> dict[str, str]:
    got = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    return got


def _expected_digests(workload: str) -> dict[str, str]:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "expected", f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["files"]


def test_bundle_bytes_match_the_benchmark_digests(full_bundle):
    """Every report file of the default bundle has the sha256 that the
    benchmark's expected digests record, so a byte change fails here too."""
    out, _ = full_bundle
    assert _digests(out) == _expected_digests("bundle")


def test_three_generator_bundle_bytes_match_the_benchmark_digests(tmp_path):
    """The same for the three-generator Z4 bundle, the one bundle whose
    End-ring suites skip a module over ``max_end`` (Z4^3, 262,144
    endomorphisms)."""
    proc = _run_cli(["verify", "--ring", "Z4", "--gens", "3", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert _digests(tmp_path) == _expected_digests("z4-gens3")
