"""The benchmark's workloads and their output checks.

Each workload has ``setup(seed)`` (inputs only: everything a user would
have before the first call) and ``run(inputs, out_dir, op)`` (the timed
part), and ``check`` turns what ``run`` returned plus the files it wrote
into ``(attempted, failed, problems)``.  ``op`` runs one benchmark-issued
operation; the tracer passes its own so that each op gets an op id.

Expected output digests live in ``expected/<workload>.json`` and are
written by ``record_expected.py`` from a known-good checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


def _plain_op(fn, *args):
    return fn(*args)


def _quiet(*args, **kwargs):
    pass


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def record_digest(record) -> str:
    return hashlib.sha256(
        json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _profile_records(out_dir: str, name: str) -> list[dict]:
    """The module records of a profiles file; none if it is unreadable."""
    try:
        with open(os.path.join(out_dir, name)) as fh:
            return json.load(fh)["modules"]
    except (OSError, ValueError, KeyError, TypeError):
        return []


class RunAllWorkload:
    """``run_all`` over a fixed configuration, writing the report bundle.

    Exhaustive: the seed is recorded but changes nothing.  Ops are the
    module profiles and the suite reports.
    """

    def __init__(self, name: str, rings=None, suites=None, max_generators: int = 2):
        self.name = name
        self.rings = rings
        self.suites = suites
        self.max_generators = max_generators

    def setup(self, seed: int):
        from modlab.cli import HarnessConfig

        kwargs = {"max_generators": self.max_generators}
        if self.rings is not None:
            kwargs["rings"] = tuple(self.rings)
        if self.suites is not None:
            kwargs["suites"] = tuple(self.suites)
        return HarnessConfig(**kwargs)

    def run(self, config, out_dir: str, op=_plain_op):
        from modlab import cli

        config.out_dir = out_dir
        return cli.run_all(config, echo=_quiet)

    def digests(self, out_dir: str) -> dict:
        """Per-file sha256 plus, per ring, one digest per profile record."""
        files = {name: sha256_file(os.path.join(out_dir, name))
                 for name in sorted(os.listdir(out_dir))}
        profiles = {
            name[len("profiles_"):-len(".json")]:
                [record_digest(r) for r in _profile_records(out_dir, name)]
            for name in files if name.startswith("profiles_")
        }
        return {"files": files, "profiles": profiles}

    def check(self, result, out_dir: str, expected: dict) -> tuple[int, int, list[str]]:
        """A profile fails on flags or a changed record, a suite report on
        disagreements or a changed file; any other changed, missing or
        unexpected file is one more failed op."""
        _status, summary = result
        got = self.digests(out_dir)
        bad_files = {name for name in set(expected["files"]) | set(got["files"])
                     if got["files"].get(name) != expected["files"].get(name)}
        problems = [f"{name}: " + ("missing" if name not in got["files"] else
                                   "unexpected" if name not in expected["files"] else
                                   "differs")
                    for name in sorted(bad_files)]
        failed: set[tuple] = set()
        attempted = 0
        for row in summary["rings"]:
            rid = row["ring"]
            want = expected["profiles"].get(rid, [])
            have = got["profiles"].get(rid, [])
            flagged = set()
            if row["profile_flags"]:
                problems.append(f"{rid}: {row['profile_flags']} profile flags")
                flagged = {i for i, rec in enumerate(
                    _profile_records(out_dir, f"profiles_{rid}.json")) if rec["flags"]}
            for i in range(row["modules"]):
                attempted += 1
                if i in flagged or i >= len(want) or i >= len(have) or want[i] != have[i]:
                    failed.add(("profile", rid, i))
            if any(("profile", rid, i) in failed for i in range(row["modules"])):
                bad_files.discard(f"profiles_{rid}.json")
            for sid, suite_summary in row["suites"].items():
                attempted += 1
                fname = f"{sid.replace('.', '_')}_{rid}.json"
                if suite_summary["disagreements"]:
                    problems.append(f"{sid} over {rid}: "
                                    f"{suite_summary['disagreements']} disagreements")
                    failed.add(("suite", sid, rid))
                if fname in bad_files:
                    bad_files.discard(fname)
                    failed.add(("suite", sid, rid))
        failed.update(("file", name) for name in bad_files)
        if attempted != expected["ops"]:
            problems.append(f"{attempted} ops, expected {expected['ops']}")
        return attempted, min(len(failed), attempted), problems


class HullSumsWorkload:
    """Injective hulls commute with direct sums, over every catalog pair
    (a, b) of one ring with |a|*|b| bounded.  The seed permutes the pair
    order; the memos are unbounded, so total work does not depend on it."""

    def __init__(self, name: str, ring_id: str, max_pair_size: int):
        self.name = name
        self.ring_id = ring_id
        self.max_pair_size = max_pair_size

    def setup(self, seed: int):
        from modlab.catalog import GenerationPolicy, enumerate_modules
        from modlab.rings import builtin_ring

        catalog = enumerate_modules(builtin_ring(self.ring_id),
                                    GenerationPolicy(2, 256), ring_id=self.ring_id)
        mods = catalog.modules
        pairs = [(i, j) for i in range(len(mods)) for j in range(i, len(mods))
                 if mods[i].size * mods[j].size <= self.max_pair_size]
        random.Random(seed).shuffle(pairs)
        return [(i, j, mods[i], mods[j]) for i, j in pairs]

    @staticmethod
    def _pair(a, b):
        from modlab import modules, structure

        try:
            ea, _ = structure.injective_hull(a)
            eb, _ = structure.injective_hull(b)
            total, _ = structure.injective_hull(modules.direct_sum(a, b))
            return modules.is_isomorphic(total, modules.direct_sum(ea, eb))
        except Exception as exc:  # a raising pair is a failed op, not a crash
            return f"{type(exc).__name__}: {exc}"

    def run(self, pairs, out_dir: str, op=_plain_op):
        return [(i, j, op(self._pair, a, b)) for i, j, a, b in pairs]

    def check(self, result, out_dir: str, expected: dict) -> tuple[int, int, list[str]]:
        problems = [f"pair ({i}, {j}): {'not isomorphic' if ok is False else ok}"
                    for i, j, ok in result if ok is not True]
        if len(result) != expected["ops"]:
            problems.append(f"{len(result)} pairs, expected {expected['ops']}")
        return len(result), sum(1 for *_, ok in result if ok is not True), problems


WORKLOADS = {
    w.name: w for w in (
        RunAllWorkload("bundle"),
        RunAllWorkload("z4-gens3", rings=("Z4",), max_generators=3),
        HullSumsWorkload("hull-sums-z8", "Z8", 64),
    )
}


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json")) as fh:
        return json.load(fh)
