"""Catalog generation, suite plumbing, report serialization, CLI."""

import json
import os
import re
import subprocess
import sys
import threading

import pytest

from modlab import cli, memo
from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.config import Limits
from modlab.cli import (
    DEFAULT_RINGS,
    HarnessConfig,
    _ring_cost,
    _ring_job,
    main,
    run_all,
    usable_cpus,
)
from modlab.errors import InvalidConfig, SizeLimitExceeded
from modlab.lattice import submodules
from modlab.modules import (
    direct_sum_with_maps,
    is_isomorphic,
    iso_signature,
    quotient_module,
    regular_module,
    submodule_as_module,
    zero_module,
)
from modlab.reports import profile_module
from modlab.rings import builtin_ring
from modlab.serialize import (
    CACHE_SCHEMA,
    content_hash,
    module_from_json,
    module_to_json,
    ring_from_json,
    ring_to_json,
)
from modlab.structure import summand_keys
from modlab.suites import SUITES, verify_theorem


def test_catalog_f3(F3):
    cat = enumerate_modules(F3, GenerationPolicy(1, 256), ring_id="F3")
    assert [m.size for m in cat.modules] == [1, 3]


def test_catalog_z4_one_generator(Z4):
    cat = enumerate_modules(Z4, GenerationPolicy(1, 256), ring_id="Z4")
    assert [m.size for m in cat.modules] == [1, 2, 4]


def test_catalog_z8_contains_flagship_module(Z8, z2_plus_z8):
    cat = enumerate_modules(Z8, GenerationPolicy(2, 64), ring_id="Z8")
    assert any(is_isomorphic(m, z2_plus_z8) for m in cat.modules)


def test_catalog_no_isomorphic_pairs(Z6):
    cat = enumerate_modules(Z6, GenerationPolicy(2, 256), ring_id="Z6")
    for i, a in enumerate(cat.modules):
        for b in cat.modules[i + 1:]:
            assert not is_isomorphic(a, b)


def test_catalog_closed_under_summands(F2xZ4):
    cat = enumerate_modules(F2xZ4, GenerationPolicy(2, 256), ring_id="F2xZ4")
    for m in cat.modules:
        lat = submodules(m)
        for key in summand_keys(m):
            node = lat.nodes[lat.index[key]]
            part = submodule_as_module(node).module
            assert any(is_isomorphic(part, other) for other in cat.modules)


def test_catalog_memo_is_keyed_by_ring_id_and_limits(Z4, limits):
    policy = GenerationPolicy(2, 256)
    a = enumerate_modules(Z4, policy, ring_id="A")
    b = enumerate_modules(Z4, policy, ring_id="B")
    assert (a.label(1), b.label(1)) == ("A[1]{2}", "B[1]{2}")
    assert enumerate_modules(Z4, policy, ring_id="A") is a
    # a ring carries no name, so a catalog without an id is labelled R
    assert enumerate_modules(Z4, policy).label(0) == "R[0]{0}"
    limits(Limits(max_module=8))
    small = enumerate_modules(Z4, policy, ring_id="A")
    assert "free module R^2 over module size limit" in small.skipped
    assert a.skipped == []


def test_catalog_stops_at_the_first_free_module_over_the_limit(Z4, limits):
    """|R^n| grows with n, so the first R^n over ``max_module`` ends the
    enumeration with one note: the loop does not run on to
    ``max_generators``."""
    limits(Limits(max_module=8))
    catalog = enumerate_modules(Z4, GenerationPolicy(4, 256), ring_id="Z4")
    assert catalog.skipped == ["free module R^2 over module size limit"]
    assert [m.size for m in catalog.modules] == [1, 2, 4]


def linear_scan_catalog(ring, policy):
    """A reference catalog: the quotients of R^n, each tested against
    every earlier member with an equal signature, in order (no
    isomorphism-class index), then closed under direct summands.  No
    module of these catalogs is over a limit, so the limit branches are
    left out."""
    members, invariants = [], []

    def try_add(candidate):
        if candidate.size > policy.max_size:
            return
        inv = iso_signature(candidate)
        for m, i in zip(members, invariants):
            if i == inv and is_isomorphic(m, candidate):
                return
        members.append(candidate)
        invariants.append(inv)

    try_add(zero_module(ring))
    for n in range(1, policy.max_generators + 1):
        free = regular_module(ring) if n == 1 else \
            direct_sum_with_maps(*[regular_module(ring)] * n)[0]
        for node in submodules(free).nodes:
            if free.size // node.size <= policy.max_size:
                try_add(quotient_module(free, node)[0])
    changed = True
    while changed:
        changed = False
        for m in list(members):
            before = len(members)
            lat = submodules(m)
            for key in sorted(summand_keys(m)):
                node = lat.nodes[lat.index[key]]
                if not (node.is_zero() or node.is_full()):
                    try_add(submodule_as_module(node).module)
            changed = changed or len(members) != before
    members.sort(key=lambda m: (m.size, m.component_orders, m.action))
    return members


@pytest.mark.parametrize("rid, gens", [pytest.param(rid, 2, id=rid) for rid in DEFAULT_RINGS]
                         + [pytest.param(rid, 3, id=f"{rid}-gens3") for rid in ("Z4", "F3")])
def test_catalog_index_keeps_the_linear_scan_members(rid, gens):
    """The catalog equals the summand-closed linear scan: the quotients of
    R^n already hold every summand of their members."""
    ring = builtin_ring(rid)
    policy = GenerationPolicy(gens, 256)
    catalog = enumerate_modules(ring, policy, ring_id=rid)
    assert catalog.skipped == []
    assert [m.key for m in catalog.modules] == \
        [m.key for m in linear_scan_catalog(ring, policy)]


def test_catalog_deterministic(Z8):
    a = enumerate_modules(Z8, GenerationPolicy(2, 64), ring_id="Z8")
    # separate policy object, equal content
    b = enumerate_modules(Z8, GenerationPolicy(max_generators=2, max_size=64), ring_id="Z8")
    assert [m.key for m in a.modules] == [m.key for m in b.modules]


def test_ring_json_roundtrip(F2xZ4, T2F2):
    for ring in (F2xZ4, T2F2):
        data = ring_to_json(ring)
        back = ring_from_json(data)
        assert back == ring


def test_module_json_roundtrip(z2_plus_z8):
    data = module_to_json(z2_plus_z8, ring_id="Z8")
    assert data["ring"] == "Z8"
    back = module_from_json(data)
    assert back.key == z2_plus_z8.key
    inline = module_to_json(z2_plus_z8)
    assert isinstance(inline["ring"], dict)
    assert module_from_json(inline).key == z2_plus_z8.key


def test_content_hash_distinguishes(z2_plus_z8, z8_reg):
    assert content_hash(z2_plus_z8) != content_hash(z8_reg)
    assert content_hash(z2_plus_z8) == content_hash(z2_plus_z8)


def test_content_hash_is_pinned(z2_plus_z8):
    """The disk cache's file names: a change to the hashed payload or to
    CACHE_SCHEMA would orphan every cached file, so one module's hash is
    pinned as it was first written."""
    assert CACHE_SCHEMA == 2
    assert content_hash(z2_plus_z8) == (
        "b19b7f9e614519c1ebff808b435cd084b696b840aafc859fb5a285eaf0c982d7")


def test_profile_flags_empty_on_catalog(Z4):
    cat = enumerate_modules(Z4, GenerationPolicy(2, 256), ring_id="Z4")
    for i, m in enumerate(cat.modules):
        rep = profile_module(m, desc=cat.label(i))
        assert rep.flags == []
        data = rep.to_json()
        assert set(data["cosingular"]) == {"zbar_size", "zbar2_size", "class"}


def test_profile_of_zero_module(Z4):
    from modlab.modules import zero_module

    rep = profile_module(zero_module(Z4))
    assert all(v in (True, None) for v in rep.predicates.values())


def test_verify_unknown_suite(Z4):
    cat = enumerate_modules(Z4, GenerationPolicy(2, 64), ring_id="Z4")
    with pytest.raises(KeyError):
        verify_theorem("T9.99", cat)


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfig):
        HarnessConfig(rings=("NotARing",)).validate()
    with pytest.raises(InvalidConfig):
        HarnessConfig(suites=("bogus",)).validate()


def test_run_all_single_ring(tmp_path):
    config = HarnessConfig(rings=("Z4",), out_dir=str(tmp_path / "reports"))
    status, summary = run_all(config, echo=lambda *a, **k: None)
    assert status == 0
    assert summary["total_disagreements"] == 0
    files = sorted(os.listdir(tmp_path / "reports"))
    assert "summary.json" in files
    assert "profiles_Z4.json" in files
    assert any(name.startswith("T3_12") for name in files)
    with open(tmp_path / "reports" / "summary.json") as fh:
        data = json.load(fh)
    assert data["status"] == 0
    # the regular module's dual-Baer contrast record is in the bundle
    with open(tmp_path / "reports" / "profiles_Z4.json") as fh:
        profiles = json.load(fh)["modules"]
    reg = next(p for p in profiles if p["orders"] == [4])
    assert reg["predicates"]["dual_baer"] is False
    assert reg["predicates"]["t_dual_baer"] is True


def test_run_all_report_bundles_are_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    quiet = lambda *a, **k: None
    for out in (out1, out2):
        config = HarnessConfig(rings=("Z4", "F3"), out_dir=str(out))
        status, _ = run_all(config, echo=quiet)
        assert status == 0
    names1 = sorted(os.listdir(out1))
    names2 = sorted(os.listdir(out2))
    assert names1 == names2
    for name in names1:
        with open(out1 / name, "rb") as fh:
            b1 = fh.read()
        with open(out2 / name, "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, f"bundle file {name} differs between runs"


def _timing_free(line: str) -> str:
    return re.sub(r" \[[0-9.]+s\]$", "", line)


def _runs_by_jobs(tmp_path, rings) -> dict:
    """``run_all`` over ``rings`` at ``jobs`` 1 and 2: for each, the
    summary, the timing-free echo lines and the bundle's bytes."""
    runs = {}
    for jobs in (1, 2):
        lines = []
        out = tmp_path / str(jobs)
        config = HarnessConfig(rings=rings, out_dir=str(out), jobs=jobs)
        status, summary = run_all(config, echo=lambda *a, **k: lines.append(a[0]))
        assert status == 0
        files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        runs[jobs] = (summary, [_timing_free(line) for line in lines], files)
    return runs


def test_run_all_jobs_parallel_matches_serial(tmp_path):
    # cost order (Z6, Z4, F3) differs from config order, so the parallel
    # run finishes rings out of order and must merge them back
    rings = ("F3", "Z4", "Z6")
    runs = _runs_by_jobs(tmp_path, rings)
    assert runs[1] == runs[2]
    assert len(runs[1][1]) == len(rings) * len(SUITES)


def test_start_method_forks_only_a_single_threaded_linux_process(tmp_path):
    """A caller that runs a second thread gets spawned workers, which give
    the same bundle and echo lines as one process."""
    assert cli._start_method() == ("fork" if sys.platform == "linux" else "spawn")
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert cli._start_method() == "spawn"
        runs = _runs_by_jobs(tmp_path, ("F3", "Z4", "Z6"))
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert runs[1] == runs[2]


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_run_all_workers_keep_the_callers_limits(tmp_path, limits, monkeypatch,
                                                 start_method):
    """Ring workers run under the caller's ``config.LIMITS``, however they
    start: with a small ``max_end`` the End-ring suites skip modules, and
    two workers skip the same ones as one process."""
    monkeypatch.setattr(cli, "_start_method", lambda: start_method)
    limits(Limits(max_end=64))
    runs = _runs_by_jobs(tmp_path, ("Z8", "Z4"))
    assert runs[1] == runs[2]
    skipped = {row["ring"]: max(s["skipped"] for s in row["suites"].values())
               for row in runs[2][0]["rings"]}
    assert skipped == {"Z8": 3, "Z4": 1}


def test_ring_job_holds_one_rings_memos():
    """A ring job starts from empty memos: after a Z4 job, an F3 job leaves
    as many memo entries as from cleared memos, with equal results."""
    config = HarnessConfig(rings=("Z4", "F3"), jobs=1)

    def job(rid):
        row, files, runs = _ring_job(rid, config)
        # suite runtimes are wall-clock, so compare all but them
        return row, files, [(sid, bad) for sid, _, bad in runs]

    job("Z4")
    after_z4 = job("F3")
    entries = sum(map(len, memo._tables))
    memo.clear()
    assert job("F3") == after_z4
    assert sum(map(len, memo._tables)) == entries


def test_run_all_reports_a_planted_disagreement(tmp_path, monkeypatch):
    """The parent holds only the ring jobs' texts and rows, yet still
    counts a disagreement, exits 1 and echoes the first disagreeing
    instance of each failing suite after the suite lines."""
    from modlab.suites import _per_module

    def each(m, label):
        yield {"instance": label, "holds": m.size != 4}

    monkeypatch.setitem(SUITES, "C2.8", _per_module("C2.8", "planted", each))
    lines = []
    config = HarnessConfig(rings=("Z4", "F3"), suites=("C2.8",), jobs=1,
                           out_dir=str(tmp_path))
    status, summary = run_all(config, echo=lambda *a, **k: lines.append(a[0]))
    assert status == 1 and summary["total_disagreements"] == 2
    bad = json.loads((tmp_path / "C2_8_Z4.json").read_text())["instances"]
    first = next(rec for rec in bad if not rec["holds"])
    assert lines[2:] == [f"DISAGREEMENT C2.8 over Z4: {json.dumps(first, sort_keys=True)}"]
    assert [row["suites"]["C2.8"]["disagreements"] for row in summary["rings"]] == [2, 0]


RING_JOB_IN_A_FRESH_INTERPRETER = """\
import json, os, sys
from modlab import memo
from modlab.cli import HarnessConfig, _ring_job

def job():
    memo.clear()
    row, files, _ = _ring_job("Z4", HarnessConfig(jobs=1))
    cache = os.environ.get("MODLAB_CACHE")
    return {"row": row, "files": files, "cached": sorted(os.listdir(cache)) if cache else []}

first = job()
print(json.dumps({"openssl": "_hashlib" in sys.modules, "warm": job(), **first}))
"""


def test_only_the_disk_cache_loads_openssl(tmp_path):
    """A Z4 ring job in a fresh interpreter imports no ``hashlib``, which
    maps OpenSSL into the process, unless MODLAB_CACHE is set.  With it
    set, the job writes lattice files only, and its row and report files
    are those of a job without the cache and of a second, warm job that
    writes no further file."""
    env = {k: v for k, v in os.environ.items() if k != "MODLAB_CACHE"}

    def run() -> dict:
        proc = subprocess.run([sys.executable, "-c", RING_JOB_IN_A_FRESH_INTERPRETER],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout)

    without = run()
    assert not without.pop("openssl") and without.pop("warm") == without
    assert without.pop("cached") == []
    env["MODLAB_CACHE"] = str(tmp_path)
    cold = run()
    assert cold.pop("openssl") and cold.pop("warm") == cold
    cached = cold.pop("cached")
    assert cached and all(n.startswith("lattice-") and n.endswith(".json") for n in cached)
    assert cold == without


def test_ring_cost_ranks_the_default_rings():
    costs = {rid: _ring_cost(rid) for rid in DEFAULT_RINGS}
    assert costs == {"T2F2": 7, "F2xZ4": 6, "Z8": 4, "Z6": 4, "Z4": 3, "F3": 2}


def test_harness_jobs_default_to_usable_cpus():
    assert HarnessConfig().jobs == usable_cpus() >= 1


def test_cli_verify_rejects_zero_jobs(capsys):
    assert main(["verify", "--ring", "Z4", "--jobs", "0"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


# -- CLI ------------------------------------------------------------------------


def test_cli_ring_list(capsys):
    assert main(["ring", "list"]) == 0
    out = capsys.readouterr().out
    for rid in ("Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2"):
        assert rid in out


def test_cli_ring_show(capsys):
    assert main(["ring", "show", "F2xZ4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["orders"] == [2, 4]
    assert data["one"] == [1, 1]


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--ring", "Z4", "--gens", "1"]) == 0
    out = capsys.readouterr().out
    assert "size=   4" in out


def test_cli_profile_by_index(capsys):
    assert main(["profile", "--ring", "Z4", "--module", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["predicates"]["t_dual_baer"] is True
    assert data["predicates"]["dual_baer"] is False


def test_cli_profile_from_file(tmp_path, capsys, z2_plus_z8):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(z2_plus_z8, ring_id="Z8")))
    assert main(["profile", "--ring", "Z8", "--module", str(path), "--hasse"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["predicates"]["lifting"] is False
    assert data["predicates"]["t_lifting"] is True
    assert len(data["hasse"]["nodes"]) == 11


def test_cli_profile_bad_index(capsys):
    assert main(["profile", "--ring", "Z4", "--module", "99"]) == 2


@pytest.mark.parametrize("text", [
    "{not json",
    '{"ring": "Z8", "orders": [8]}',
    '{"orders": [8], "action": 3}',
    "[1, 2]",
    # numbers that are not JSON integers, which int() would truncate to a
    # valid module or overflow on
    '{"orders": [4.7], "action": [[[1.9]]]}',
    '{"orders": [4], "action": [[[1.0]]]}',
    '{"orders": [true], "action": [[[1]]]}',
    '{"orders": [4], "action": [[[false]]]}',
    '{"orders": [1e400], "action": [[[1]]]}',
    '{"orders": [8], "action": [[[1e400]]]}',
    '{"ring": {"orders": [1e400], "constants": [[[1]]], "one": [1]},'
    ' "orders": [8], "action": [[[1]]]}',
    '{"ring": {"orders": [8], "constants": [[[1.0]]], "one": [1]},'
    ' "orders": [8], "action": [[[1]]]}',
    '{"ring": {"orders": [8], "constants": [[[1]]], "one": [true]},'
    ' "orders": [8], "action": [[[1]]]}',
])
def test_cli_profile_bad_module_file(tmp_path, capsys, text):
    path = tmp_path / "module.json"
    path.write_text(text)
    assert main(["profile", "--ring", "Z8", "--module", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_profile_module_directory(tmp_path, capsys):
    """A directory exists but is not a module file: exit 2, not an
    IsADirectoryError traceback."""
    assert main(["profile", "--ring", "Z4", "--module", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_profile_module_file_ring_mismatch(tmp_path, capsys, z4_reg):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(z4_reg, ring_id="Z4")))
    assert main(["profile", "--ring", "Z8", "--module", str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid configuration:")
    # the ring may also be given inline, and then it must match too
    path.write_text(json.dumps(module_to_json(z4_reg)))
    assert main(["profile", "--ring", "Z8", "--module", str(path)]) == 2
    assert main(["profile", "--ring", "Z4", "--module", str(path)]) == 0


def test_cli_verify_bad_ring(capsys):
    assert main(["verify", "--ring", "NOPE"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["ring", "show", "BOGUS"], "unknown ring id 'BOGUS'"),
    (["verify", "--ring", "BOGUS"], "unknown ring id 'BOGUS'"),
    (["profile", "--ring", "Z8", "--module", "abc"],
     "--module 'abc' is neither a file nor a catalog index"),
    (["oracle", "--check", "small", "--ring", "Z4", "--samples", "-5"],
     "--samples must not be negative"),
    (["oracle", "--check", "summand", "--ring", "Z4", "--samples", "-5"],
     "--samples must not be negative"),
    (["oracle", "--check", "zbar", "--ring", "Z4", "--samples", "-5"],
     "--samples must not be negative"),
    (["verify", "--ring", ","], "empty or repeated ring list ''"),
    (["verify", "--suite", ","], "empty or repeated suite list ''"),
    (["oracle", "--check", "small", "--ring", ","], "empty or repeated ring list ''"),
    (["verify", "--ring", "Z4,Z4"], "empty or repeated ring list 'Z4,Z4'"),
    (["verify", "--ring", "Z4", "--suite", "P2.2, P2.2"],
     "empty or repeated suite list 'P2.2,P2.2'"),
    (["ring", "show", "Z0"], "ring id 'Z0' builds no ring: cyclic ring order must be positive"),
    (["ring", "show", "Z1"],
     "ring id 'Z1' builds no ring: declared identity is not a unit on e_1"),
    (["ring", "show", "Z99999"],
     "ring id 'Z99999' builds no ring: ring size 99999 exceeds limit 4096"),
    (["enumerate", "--ring", "Z1"],
     "ring id 'Z1' builds no ring: declared identity is not a unit on e_1"),
    (["verify", "--ring", "Z0"], "ring id 'Z0' builds no ring: cyclic ring order must be positive"),
    (["oracle", "--check", "small", "--ring", "Z0"],
     "ring id 'Z0' builds no ring: cyclic ring order must be positive"),
    (["ring", "show", "F4"], "unknown ring id 'F4'"),
    (["verify", "--ring", "Z4,Z04"], "unknown ring id 'Z04'"),
], ids=["ring-show", "verify-ring", "profile-module", "oracle-small",
        "oracle-summand", "oracle-zbar", "verify-no-ring", "verify-no-suite",
        "oracle-no-ring", "verify-ring-twice", "verify-suite-twice",
        "ring-show-z0", "ring-show-z1", "ring-show-over-limit", "enumerate-z1",
        "verify-z0", "oracle-z0", "ring-show-f4", "verify-leading-zero"])
def test_cli_bad_input_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"invalid configuration: {message}\n"
    assert captured.out == ""


def test_cli_ring_id_with_more_digits_than_int_reads_exits_2(capsys):
    rid = "Z" + "1" * 5000
    assert main(["ring", "show", rid]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"invalid configuration: ring id {rid!r} builds no ring: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_verify_out_that_is_a_file_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("the rings ran before --out was checked")

    monkeypatch.setattr(cli, "_ring_results", no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["verify", "--ring", "Z4", "--suite", "P2.2", "--out", str(taken)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid configuration: output directory: ")
    assert str(taken) in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_verify_report_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    """A report file the bundle cannot write (here a directory in its
    place) ends the run with one configuration line, not a traceback."""
    (tmp_path / "summary.json").mkdir()
    argv = ["verify", "--ring", "Z4", "--suite", "P2.2", "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    last = captured.err.splitlines()[-1]
    assert last.startswith("invalid configuration: output directory: ")
    assert "summary.json" in last
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["profile", "--ring", "Z4", "--module", "1"],
    ["verify", "--ring", "Z4,Z8", "--suite", "P2.2", "--jobs", "2"],
], ids=["profile", "verify"])
def test_cli_cache_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, argv):
    """MODLAB_CACHE naming a regular file is one line and exit 2, and
    verify says so before any ring runs."""
    def no_run(config):
        raise AssertionError("the rings ran before MODLAB_CACHE was checked")

    monkeypatch.setattr(cli, "_ring_results", no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setenv("MODLAB_CACHE", str(taken))
    memo.clear()  # a memoized lattice would never reach the cache
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid configuration: MODLAB_CACHE: ")
    assert str(taken) in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_verify_writes_buffered_stdout_once(capfd, monkeypatch):
    """Text the caller left in a block-buffered stdout, and the status
    line, each reach the file once: no ring worker writes the buffer it
    started with."""
    stdout = open(os.dup(1), "w", buffering=1 << 16)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        print("written before the run", end="")
        assert main(["verify", "--ring", "Z4,F3", "--suite", "C2.8", "--jobs", "2"]) == 0
    finally:
        stdout.close()
    out = capfd.readouterr().out
    assert out.count("written before the run") == 1
    assert out.count('"status": 0') == 1


def test_cli_verify_single_suite(tmp_path, capsys):
    code = main([
        "verify", "--suite", "P2.2", "--ring", "Z4",
        "--out", str(tmp_path / "rep"),
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total_disagreements"] == 0
    assert (tmp_path / "rep" / "P2_2_Z4.json").exists()


def test_cli_oracle_small(capsys):
    assert main(["oracle", "--check", "small", "--ring", "Z4", "--samples", "50"]) == 0


def test_cli_oracle_summand(capsys):
    assert main(["oracle", "--check", "summand", "--ring", "Z4", "--samples", "40"]) == 0


def test_cli_oracle_zbar(capsys):
    assert main(["oracle", "--check", "zbar", "--ring", "Z4", "--samples", "60"]) == 0


@pytest.mark.parametrize("check, noun", [("summand", "pairs"), ("zbar", "homs")])
def test_cli_oracle_stops_at_samples(capsys, check, noun):
    assert main(["oracle", "--check", check, "--ring", "Z4", "--samples", "5"]) == 0
    assert capsys.readouterr().err.startswith(f"oracle {check}: 5 {noun},")


def test_disk_cache_roundtrip(tmp_path, monkeypatch, Z4):
    monkeypatch.setenv("MODLAB_CACHE", str(tmp_path / "cache"))
    cat = enumerate_modules(Z4, GenerationPolicy(1, 16), ring_id="Z4")
    m = cat.modules[-1]
    memo.clear()
    rep1 = profile_module(m)
    files = os.listdir(tmp_path / "cache")
    assert files and all(name.startswith("lattice-") for name in files)
    memo.clear()
    rep2 = profile_module(m)
    assert rep1.to_json() == rep2.to_json()


@pytest.mark.parametrize("damage", ["truncate", "drop_keys"])
def test_damaged_disk_cache_is_recomputed(tmp_path, monkeypatch, Z4, damage):
    # from cold memos, both profile runs compute the same lattices, so
    # every file the first writes is read back by the second
    cache = tmp_path / "cache"
    m = enumerate_modules(Z4, GenerationPolicy(1, 16), ring_id="Z4").modules[-1]
    monkeypatch.setenv("MODLAB_CACHE", str(cache))
    memo.clear()
    expected = profile_module(m).to_json()
    files = sorted(cache.iterdir())
    assert {f.name.split("-")[0] for f in files} == {"lattice"}
    for f in files:
        text = f.read_text()
        f.write_text(text[: len(text) // 2] if damage == "truncate" else "{}")
    memo.clear()
    assert profile_module(m).to_json() == expected
    # the damaged files were overwritten with whole ones, and no
    # temporary file is left behind
    assert sorted(cache.iterdir()) == files
    for f in files:
        json.loads(f.read_text())


def test_profile_is_refused_under_smaller_limits_after_a_default_pass(Z4, limits):
    """Under max_module=4 two Z4 catalog modules have a lattice over the
    limit, also after a default-limits pass has profiled them."""
    cat = enumerate_modules(Z4, GenerationPolicy(2, 256), ring_id="Z4")
    for m in cat.modules:
        profile_module(m)
    limits(Limits(max_module=4))
    over = []
    for m in cat.modules:
        try:
            profile_module(m)
        except SizeLimitExceeded:
            over.append(m.size)
    assert over == [8, 16]


def test_profile_reports_the_callers_description(Z4):
    m = enumerate_modules(Z4, GenerationPolicy(1, 16), ring_id="Z4").modules[-1]
    first = profile_module(m, desc="first")
    assert first.module_desc == "first"
    second = profile_module(m, desc="second")
    assert second.module_desc == "second"
    assert second.predicates == first.predicates
    assert profile_module(m).module_desc == repr(m)
