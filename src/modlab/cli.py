"""Command line interface: ring inspection, catalog enumeration, module
profiles, verification suites, and oracle cross-checks.

Exit codes for ``verify``/``oracle``: 0 all clean, 1 disagreement or
oracle mismatch, 2 invalid configuration.  Report bundles are
byte-stable for a fixed configuration: wall-clock timings go to stderr,
never into the files.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
from dataclasses import dataclass, field

from . import config as modlab_config
from . import memo
from .catalog import GenerationPolicy, ModuleCatalog, enumerate_modules
from .cosingular import zbar
from .errors import InvalidConfig, ModlabError, SizeLimitExceeded
from .lattice import is_small, is_small_over, submodules
from .modules import FiniteModule, hom_set, regular_module, span
from .reports import disagrees, profile_module
from .rings import FiniteRing, builtin_ring, builtin_ring_ids
from .serialize import (
    cache_dir,
    lattice_to_hasse_json,
    module_from_json,
    ring_to_json,
    stable_dumps,
)
from .structure import complement_of, is_small_module, summand_witness_idempotent
from .suites import SUITES, verify_theorem

DEFAULT_RINGS = ("Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2")


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class HarnessConfig:
    rings: tuple[str, ...] = DEFAULT_RINGS
    suites: tuple[str, ...] = tuple(SUITES)
    max_generators: int = 2
    max_size: int = 256
    out_dir: str | None = None
    # upper bound on worker processes, which are forked or spawned as
    # cli._start_method says; rings are the unit of work
    jobs: int = field(default_factory=usable_cpus)

    def validate(self) -> None:
        for noun, ids in (("ring", self.rings), ("suite", self.suites)):
            if not ids or len(set(ids)) < len(ids):
                raise InvalidConfig(f"empty or repeated {noun} list {','.join(ids)!r}")
        for rid in self.rings:
            _builtin_ring(rid)
        for sid in self.suites:
            if sid not in SUITES:
                raise InvalidConfig(f"unknown suite id {sid!r}")
        if self.max_generators < 1 or self.max_size < 1 or self.jobs < 1:
            raise InvalidConfig("policy bounds must be positive")


def _builtin_ring(rid: str) -> FiniteRing:
    """``builtin_ring``, with an unknown id, or one that builds no ring, as
    an invalid configuration."""
    try:
        return builtin_ring(rid)
    except KeyError as exc:
        raise InvalidConfig(exc.args[0]) from None
    except (ModlabError, ValueError) as exc:  # ValueError: too many digits for int()
        raise InvalidConfig(f"ring id {rid!r} builds no ring: {exc}") from None


def _catalog(rid: str, config: HarnessConfig) -> ModuleCatalog:
    return enumerate_modules(
        builtin_ring(rid),
        GenerationPolicy(config.max_generators, config.max_size),
        ring_id=rid,
    )


def _ring_job(rid: str, config: HarnessConfig):
    """One ring's share of ``run_all`` as plain picklable data: (summary
    row, {file name: text}, suite runs).  The row holds the module count,
    the skipped candidates, the profile flag count and each suite's
    summary; the texts are the ring's report files, each serialized as
    soon as its report is made, so no report object outlives its step;
    a suite run is (suite id, runtime, first disagreeing instance or
    None).

    The job starts from empty memos: an earlier job's entries are keyed
    by its ring (all but a few additive groups), so they would only hold
    memory, and so would the entries a forked worker inherits from the
    parent (the regular modules' lattices that ``_ring_cost`` built,
    say).  Clearing at the start, not the end, keeps the deallocation
    out of the last job."""
    memo.clear()
    catalog = _catalog(rid, config)
    profiles = [
        profile_module(m, desc=catalog.label(i))
        for i, m in enumerate(catalog.modules)
    ]
    row = {"ring": rid, "modules": len(catalog.modules),
           "skipped_candidates": catalog.skipped,
           "profile_flags": sum(len(p.flags) for p in profiles), "suites": {}}
    files = {f"profiles_{rid}.json": stable_dumps(
        {"ring": rid, "modules": [p.to_json() for p in profiles]})}
    runs = []
    for sid in config.suites:
        rep = verify_theorem(sid, catalog)
        files[f"{sid.replace('.', '_')}_{rid}.json"] = stable_dumps(rep.to_json())
        row["suites"][sid] = rep.summary
        runs.append((sid, rep.runtime, next(filter(disagrees, rep.instances), None)))
    return row, files, runs


def _ring_cost(rid: str) -> int:
    """Right-ideal count of the ring: it bounds the cyclic modules R/I the
    catalog is built from, and ranks the rings' measured costs."""
    return len(submodules(regular_module(builtin_ring(rid))))


def _start_method() -> str:
    """How ``_ring_results`` starts its workers: ``"fork"`` on Linux while
    this process runs one thread, ``"spawn"`` otherwise.  A forked worker
    inherits the imported modlab, so it starts no interpreter and imports
    nothing.  With one thread no other thread can hold a lock at fork
    time; a fork-context pool forks all its workers before it starts its
    manager thread, and each fork flushes stdout and stderr first, so no
    buffered text is written twice.  A caller that runs threads, and
    every other platform, gets spawned workers."""
    if sys.platform == "linux" and threading.active_count() == 1:
        return "fork"
    return "spawn"


def _worker_init(parent_limits: modlab_config.Limits) -> None:
    """Pool initializer: the parent's ``config.LIMITS`` in force, where a
    spawned worker would otherwise import the defaults, then empty memos,
    as every change of the limits needs (see :mod:`modlab.memo`)."""
    modlab_config.LIMITS = parent_limits
    memo.clear()


def _ring_results(config: HarnessConfig) -> list:
    """``_ring_job`` over every configured ring, in config order.  With
    more than one worker the rings run in separate processes, costliest
    first, so the largest ring does not start last.  Workers are forked
    on Linux while this process runs one thread, so no lock can be held
    at the fork, and spawned otherwise (:func:`_start_method`).
    :func:`_worker_init` gives each the parent's ``config.LIMITS``, so
    the results do not depend on ``config.jobs``.  Each job, in a worker or in this process, starts
    from empty memos and leaves its own ring's behind."""
    workers = min(config.jobs, len(config.rings))
    if workers <= 1:
        return [_ring_job(rid, config) for rid in config.rings]
    # imported here: concurrent.futures.process costs about 30 ms to load
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    by_cost = sorted(config.rings, key=_ring_cost, reverse=True)
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(_start_method()),
        initializer=_worker_init,
        initargs=(modlab_config.LIMITS,),
    ) as pool:
        futures = {rid: pool.submit(_ring_job, rid, config) for rid in by_cost}
        return [futures[rid].result() for rid in config.rings]


def run_all(config: HarnessConfig, echo=print) -> tuple[int, dict]:
    """Profiles plus every configured suite over every configured ring.
    Returns (exit status, summary object) and writes the report bundle
    when an output directory is configured.

    Each ring job (:func:`_ring_job`) returns its summary row and its
    report files as text, with each suite's runtime and first
    disagreeing instance, so this process holds no report object.  The
    files are written only after every ring's job has returned."""
    config.validate()
    # before the run, so a bad path wastes none of it
    if config.out_dir:
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as exc:
            raise InvalidConfig(f"output directory: {exc}") from None
    cache_dir()
    ring_results = _ring_results(config)

    bundle: dict[str, str] = {}
    summary_rows = []
    first_bad = []
    for row, files, runs in ring_results:
        bundle.update(files)
        summary_rows.append(row)
        for sid, runtime, bad in runs:
            suite_summary = row["suites"][sid]
            echo(
                f"{sid:6s} {row['ring']:7s} instances={suite_summary['instances']:5d} "
                f"disagreements={suite_summary['disagreements']} "
                f"skipped={suite_summary['skipped']} "
                f"[{runtime:.1f}s]",
                file=sys.stderr,
            )
            if bad is not None:
                first_bad.append(f"DISAGREEMENT {sid} over {row['ring']}: "
                                 f"{json.dumps(bad, sort_keys=True)}")

    disagreements = sum(s["disagreements"] for row in summary_rows
                        for s in row["suites"].values())
    profile_flags = sum(row["profile_flags"] for row in summary_rows)
    status = 0 if disagreements == 0 and profile_flags == 0 else 1
    summary = {
        "config": {
            "rings": list(config.rings),
            "suites": list(config.suites),
            "max_generators": config.max_generators,
            "max_size": config.max_size,
        },
        "rings": summary_rows,
        "total_disagreements": disagreements,
        "total_profile_flags": profile_flags,
        "status": status,
    }
    bundle["summary.json"] = stable_dumps(summary)
    if config.out_dir:
        try:
            for name, text in sorted(bundle.items()):
                with open(os.path.join(config.out_dir, name), "w") as fh:
                    fh.write(text)
                    fh.write("\n")
        except OSError as exc:
            raise InvalidConfig(f"output directory: {exc}") from None
    for line in first_bad:
        echo(line, file=sys.stderr)
    return status, summary


# -- oracle cross-checks -------------------------------------------------------


def oracle_small(config: HarnessConfig, samples: int, seed: int, echo=print) -> int:
    """Radical fast path versus the definitional smallness scan on every
    catalog pair plus randomly generated submodules."""
    def agrees(node) -> bool:
        m = node.parent
        return is_small(node) == is_small_over(m, node, m.zero_submodule(),
                                               frozenset(m.elements()))

    rng = random.Random(seed)
    mismatches = 0
    checked = 0
    pool: list[FiniteModule] = []
    for rid in config.rings:
        catalog = _catalog(rid, config)
        for m in catalog.modules:
            pool.append(m)
            lat = submodules(m)
            for node in lat.nodes:
                checked += 1
                if not agrees(node):
                    mismatches += 1
                    echo(f"MISMATCH small: {m!r} node={sorted(node.elements)}")
    while checked < samples:
        m = pool[rng.randrange(len(pool))]
        k = rng.randrange(0, 3)
        gens = [rng.randrange(m.size) for _ in range(k)]
        node = span(m, gens)
        checked += 1
        if not agrees(node):
            mismatches += 1
            echo(f"MISMATCH small: {m!r} gens={gens}")
    echo(f"oracle small: {checked} pairs, {mismatches} mismatches", file=sys.stderr)
    return 0 if mismatches == 0 else 1


def _summand_pairs(config: HarnessConfig):
    """(module, node, idempotent witness) over every catalog node whose
    End ring is within the limits."""
    for rid in config.rings:
        for m in _catalog(rid, config).modules:
            for node in submodules(m).nodes:
                try:
                    witness = summand_witness_idempotent(node)
                except SizeLimitExceeded:
                    continue
                yield m, node, witness


def oracle_summand(config: HarnessConfig, samples: int, echo=print) -> int:
    """Complement scan versus idempotent witness on all catalog pairs, or
    on the first ``samples`` of them when ``samples`` is positive."""
    mismatches = 0
    checked = 0
    for m, node, witness in _summand_pairs(config):
        checked += 1
        if (complement_of(node) is not None) != (witness is not None):
            mismatches += 1
            echo(f"MISMATCH summand: {m!r} node={sorted(node.elements)}")
        if samples and checked >= samples:
            break
    echo(f"oracle summand: {checked} pairs, {mismatches} mismatches", file=sys.stderr)
    return 0 if mismatches == 0 else 1


def _zbar_homs(config: HarnessConfig):
    """(module, its radical, small target, hom) over every catalog module
    and every hom into a small catalog module."""
    for rid in config.rings:
        catalog = _catalog(rid, config)
        smalls = [m for m in catalog.modules if is_small_module(m)]
        for m in catalog.modules:
            z = zbar(m)
            for target in smalls:
                for h in hom_set(m, target):
                    yield m, z, target, h


def oracle_zbar(config: HarnessConfig, samples: int, echo=print) -> int:
    """The closed form M * S against the kernel-intersection bound: the
    radical must sit inside the kernel of every map into a small module.
    Checks the first ``samples`` homs when ``samples`` is positive."""
    mismatches = 0
    checked = 0
    for m, z, target, h in _zbar_homs(config):
        checked += 1
        if any(h.apply(c) != 0 for c in z.elements):
            mismatches += 1
            echo(f"MISMATCH zbar: {m!r} -> {target!r}")
        if samples and checked >= samples:
            break
    echo(f"oracle zbar: {checked} homs, {mismatches} violations", file=sys.stderr)
    return 0 if mismatches == 0 else 1


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="finite ring and module workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="inspect built-in rings")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    ring_sub.add_parser("list", help="list ring ids")
    show = ring_sub.add_parser("show", help="print a ring as JSON")
    show.add_argument("ring_id")

    enum = sub.add_parser("enumerate", help="enumerate a module catalog")
    enum.add_argument("--ring", required=True)
    enum.add_argument("--gens", type=int, default=2)
    enum.add_argument("--max-size", type=int, default=256)

    prof = sub.add_parser("profile", help="full predicate profile of a module")
    prof.add_argument("--ring", required=True)
    prof.add_argument("--module", required=True,
                      help="catalog index or path to a module JSON file")
    prof.add_argument("--gens", type=int, default=2)
    prof.add_argument("--max-size", type=int, default=256)
    prof.add_argument("--hasse", action="store_true",
                      help="include the submodule lattice as a Hasse diagram")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", default="all")
    verify.add_argument("--ring", default="all")
    verify.add_argument("--out", default=None)
    verify.add_argument("--jobs", type=int, default=usable_cpus(),
                        help="at most this many worker processes "
                             "(default: the usable CPUs)")
    verify.add_argument("--gens", type=int, default=2)
    verify.add_argument("--max-size", type=int, default=256)

    oracle = sub.add_parser("oracle", help="fast-path versus brute-force checks")
    oracle.add_argument("--check", required=True, choices=["small", "summand", "zbar"])
    oracle.add_argument("--samples", type=int, default=1000)
    oracle.add_argument("--ring", default="all")
    oracle.add_argument("--seed", type=int, default=0)

    return parser


def _ids_arg(value: str, every) -> tuple[str, ...]:
    if value == "all":
        return tuple(every)
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _module_from_file(path: str, ring: FiniteRing) -> FiniteModule:
    """Module from a JSON file; a ``"ring"`` field must name ``ring``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        module = module_from_json(obj, ring=None if "ring" in obj else ring)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InvalidConfig(f"module file {path}: {type(exc).__name__}: {exc}") from None
    if module.ring != ring:
        raise InvalidConfig(f"module file {path} is over a different ring than --ring")
    return module


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ring":
            if args.ring_command == "list":
                for rid in builtin_ring_ids():
                    ring = builtin_ring(rid)
                    print(f"{rid:8s} orders={ring.component_orders} size={ring.size}")
                return 0
            ring = _builtin_ring(args.ring_id)
            print(stable_dumps(ring_to_json(ring)))
            return 0

        if args.command == "enumerate":
            config = HarnessConfig(rings=(args.ring,), max_generators=args.gens,
                                   max_size=args.max_size)
            config.validate()
            catalog = _catalog(args.ring, config)
            for i, m in enumerate(catalog.modules):
                print(f"{catalog.label(i):24s} size={m.size:4d} "
                      f"orders={m.component_orders}")
            for note in catalog.skipped:
                print(f"skipped: {note}", file=sys.stderr)
            return 0

        if args.command == "profile":
            config = HarnessConfig(rings=(args.ring,), max_generators=args.gens,
                                   max_size=args.max_size)
            config.validate()
            ring = builtin_ring(args.ring)
            if os.path.exists(args.module):
                module = _module_from_file(args.module, ring)
                desc = args.module
            else:
                try:
                    idx = int(args.module)
                except ValueError:
                    raise InvalidConfig(
                        f"--module {args.module!r} is neither a file nor a catalog index"
                    ) from None
                catalog = _catalog(args.ring, config)
                if not 0 <= idx < len(catalog.modules):
                    raise InvalidConfig(
                        f"catalog index {idx} out of range 0..{len(catalog.modules)-1}"
                    )
                module = catalog.modules[idx]
                desc = catalog.label(idx)
            report = profile_module(module, desc=desc)
            payload = report.to_json()
            if args.hasse:
                payload["hasse"] = lattice_to_hasse_json(submodules(module))
            print(stable_dumps(payload))
            return 0

        if args.command == "verify":
            config = HarnessConfig(
                rings=_ids_arg(args.ring, DEFAULT_RINGS),
                suites=_ids_arg(args.suite, SUITES),
                max_generators=args.gens,
                max_size=args.max_size,
                out_dir=args.out,
                jobs=args.jobs,
            )
            status, summary = run_all(config)
            print(stable_dumps({
                "status": summary["status"],
                "total_disagreements": summary["total_disagreements"],
                "total_profile_flags": summary["total_profile_flags"],
            }))
            return status

        if args.command == "oracle":
            config = HarnessConfig(rings=_ids_arg(args.ring, DEFAULT_RINGS))
            config.validate()
            if args.samples < 0:
                raise InvalidConfig("--samples must not be negative")
            if args.check == "small":
                return oracle_small(config, args.samples, args.seed)
            if args.check == "summand":
                return oracle_summand(config, args.samples)
            return oracle_zbar(config, args.samples)

        raise InvalidConfig(f"unknown command {args.command!r}")
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ModlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
