"""Verification suites: each suite evaluates the statements of one
equivalence or structural result independently on every applicable
instance of a module catalog and records agreement.

Suites quantifying over "every module" run over the bounded catalog and
say so in their scope string; an all-true vector is evidence at that
bound, not a proof.  Hypotheses are computed, never assumed, but for one
that a theorem discharges: a finite module is artinian, hence amply
supplemented (Wisbauer, Foundations of Module and Ring Theory, 41-43).
The oracle tests of :func:`structure.is_amply_supplemented` in
``tests/test_structure.py`` keep that honest.  Instances failing a
hypothesis are recorded as skipped.

Every suite is a function ``each(module, label)`` that yields the
module's records, run over the catalog by :func:`_suite_loop`, the one
place a suite counts a skip.  :func:`_per_module` makes a suite of it
with its id and scope string, one instance record per yield; T3.12
instead takes the conjunction of its per-module facts over the catalog.
A skip is one of two kinds:

- an instance that ``each`` does not evaluate: it yields :data:`SKIPPED`
  for a module that fails its hypothesis (P2.13's t-lifting, after which
  it returns) and for one evaluation a limit refuses (P2.13's fully
  invariant submodules, T3.12's dual-Baer predicates), after which it
  goes on;
- a module whose ``each`` raises :class:`SizeLimitExceeded`; the records
  ``each`` yielded before the raise stay.

So a suite states only its statements, and the limits are handled in
one place.  Each suite's statements and characterizations stay separate
code: that independence is the verification method.
"""

from __future__ import annotations

import operator
import time
from functools import cache
from typing import Callable, Iterator

from .catalog import ModuleCatalog
from .cosingular import zbar, zbar2
from .errors import SizeLimitExceeded
from .lattice import join_closure, radical, socle, submodules
from .modules import (
    EndRing,
    FiniteModule,
    Submodule,
    end_ring,
    submodule_as_module,
)
from .reports import TheoremReport, disagrees
from .serialize import submodule_to_json
from .structure import (
    Interval,
    is_injective,
    is_lifting,
    is_lifting_under,
    whole_interval,
)
from .tpredicates import (
    dual_baer_quotient_condition,
    fully_invariant_keys,
    has_sssp_in_zbar2,
    is_dual_baer,
    is_regular,
    is_semisimple,
    is_t_coclosed_in,
    is_t_dual_baer,
    is_t_lifting,
    is_minimal_with_joint_complement,
    k_module_class,
    square_radical_has,
    t_dual_baer_variants,
    t_lifting_variants,
    t_set_is_trivial,
    t_small_variants,
    t_trace,
    zbar2_of_node,
)

# yielded by a per-module function for an instance it does not evaluate
SKIPPED = object()


def _node_label(sub: Submodule) -> str:
    """Size and the first four codes, for an instance label."""
    return f"{sub.size}@{tuple(sorted(sub.elements)[:4])}"


def _finish(suite_id, catalog, scope, instances, skipped) -> TheoremReport:
    disagreements = sum(map(disagrees, instances))
    return TheoremReport(
        suite=suite_id,
        ring_id=catalog.ring_id,
        scope=scope,
        instances=instances,
        summary={
            "instances": len(instances),
            "disagreements": disagreements,
            "skipped": skipped,
        },
    )


def _suite_loop(each: Callable[[FiniteModule, str], Iterator],
                catalog: ModuleCatalog) -> tuple[list, int]:
    """``each(module, label)``'s records over the catalog and the skips
    counted as the module docstring describes."""
    records, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        try:
            for record in each(m, catalog.label(idx)):
                if record is SKIPPED:
                    skipped += 1
                else:
                    records.append(record)
        except SizeLimitExceeded:
            skipped += 1
    return records, skipped


def _per_module(suite_id: str, scope: str,
                each: Callable[[FiniteModule, str], Iterator],
                ) -> Callable[[ModuleCatalog], TheoremReport]:
    """The suite whose instance records are ``each``'s over the catalog."""
    def run(catalog: ModuleCatalog) -> TheoremReport:
        instances, skipped = _suite_loop(each, catalog)
        return _finish(suite_id, catalog, scope, instances, skipped)

    return run


def _values_record(label, values: dict, witness=None) -> dict:
    vals = {k: bool(v) for k, v in values.items()}
    agree = len(set(vals.values())) <= 1
    rec = {"instance": label, "values": vals, "agree": agree}
    if not agree and witness is not None:
        rec["witness"] = witness
    return rec


def _holds_record(label, holds: bool, witness=None) -> dict:
    rec = {"instance": label, "holds": bool(holds)}
    if not holds and witness is not None:
        rec["witness"] = witness
    return rec


# -- suite implementations ---------------------------------------------------


def p22(m: FiniteModule, label: str) -> Iterator:
    """Four characterizations of relative smallness agree on amply
    supplemented modules."""
    for a in submodules(m).nodes:
        yield _values_record(f"{label} A={_node_label(a)}",
                             t_small_variants(a, m), witness=submodule_to_json(a))


def l25(m: FiniteModule, label: str) -> Iterator:
    """Containment, quotient and transitivity behavior of relatively
    coclosed submodules.  Each statement scans the nodes in lattice order
    to its own first failure."""
    iv = whole_interval(m)
    lat, tcc = iv.lattice, iv.t_coclosed
    under_z2 = lat.lower_masks()[lat.node_index(zbar2(m))]

    bad = min((c for c in tcc if not under_z2 >> c & 1), default=None)
    yield _holds_record(
        f"{label} (1) t-coclosed below square radical", bad is None,
        witness=None if bad is None else submodule_to_json(lat.nodes[bad]))

    whole_tcc = lat.top_index in tcc
    noncosing = zbar(m).is_full()
    yield _holds_record(
        f"{label} (2) whole module t-coclosed iff noncosingular",
        whole_tcc == noncosing)

    def first_failure(fails) -> dict | None:
        """Witness of the first pair A < C, C then A in node order, with
        fails(C, A) on node indices; A = C needs no test, as C/C = 0 is
        t-coclosed."""
        for ci in range(len(lat)):
            for ai in lat.subnode_indices(ci)[:-1]:
                if fails(ci, ai):
                    return {"C": submodule_to_json(lat.nodes[ci]),
                            "A": submodule_to_json(lat.nodes[ai])}
        return None

    # C/A in M/A is decided on the interval [A, M], A in C on [0, C]
    upper = cache(lambda a: Interval(lat, a, lat.top_index))
    lower = cache(lambda c: Interval(lat, lat.zero_index, c))
    wit3 = first_failure(lambda c, a: c in tcc and not is_t_coclosed_in(upper(a), c))
    yield _holds_record(
        f"{label} (3) quotients of t-coclosed are t-coclosed", wit3 is None, wit3)
    # (4): C/A tcc in M/A and A tcc in M imply C tcc in M
    wit4 = first_failure(lambda c, a: c not in tcc and a in tcc
                         and is_t_coclosed_in(upper(a), c))
    yield _holds_record(
        f"{label} (4) two-step t-coclosure collapses", wit4 is None, wit4)
    # (5): A tcc in M iff A tcc in C, for amply supplemented C
    wit5 = first_failure(lambda c, a: (a in tcc) != is_t_coclosed_in(lower(c), a))
    yield _holds_record(
        f"{label} (5) relative t-coclosure matches ambient", wit5 is None, wit5)


def p26(m: FiniteModule, label: str) -> Iterator:
    """Five characterizations of relatively coclosed submodules agree."""
    iv = whole_interval(m)
    lat = iv.lattice
    # the lattice of Zbar2(M) as a module is the interval [0, Zbar2(M)]
    inside = Interval(lat, lat.zero_index, lat.node_index(zbar2(m)))
    under_z2 = lat.lower_masks()[inside.high]
    for ci, c in enumerate(lat.nodes):
        in_rad = bool(under_z2 >> ci & 1)
        noncosing = zbar2_of_node(m, c) == c.elements
        values = {
            "minimal_joint_complement": is_minimal_with_joint_complement(c, m),
            "t_coclosed": ci in iv.t_coclosed,
            "coclosed_inside_radical": ci in inside.coclosed,
            "coclosed_in_module_and_below_radical": in_rad and ci in iv.coclosed,
            "noncosingular_part": noncosing,
        }
        yield _values_record(f"{label} C={_node_label(c)}", values,
                             witness=submodule_to_json(c))


def endo_image_witness(module: FiniteModule, end: EndRing, nodes) -> dict | None:
    """The first node C of the node index set ``nodes`` (in lattice
    order) and the first endomorphism index with h(C) outside ``nodes``,
    or None.

    h(C) is the node the images of C's generators span, so endomorphisms
    that agree on them share the image: each distinct image is tested
    once, and the first endomorphism to reach a failing image is still
    the first failing one.  The signatures are read off the tables by one
    ``itemgetter``; its leading item tab[0] = 0, which every node holds,
    makes it return a tuple for a node with one generator.  The zero
    node, which has none, is its own image."""
    lat = submodules(module)
    tables = end.tables
    for ci in sorted(nodes):
        c = lat.nodes[ci]
        if ci == lat.zero_index:
            continue
        signature = operator.itemgetter(0, *c.generators())
        # signature -> first endomorphism index: later (smaller) ones win
        first = dict(zip(map(signature, reversed(tables)), reversed(range(len(tables)))))
        for sig, i in sorted(first.items(), key=operator.itemgetter(1)):
            if lat.span_index(sig) not in nodes:
                return {"C": submodule_to_json(c), "endo": i}
    return None


def c27(m: FiniteModule, label: str) -> Iterator:
    """The square radical is relatively coclosed and endomorphic images of
    relatively coclosed submodules stay relatively coclosed."""
    z2 = zbar2(m)
    iv = whole_interval(m)
    yield _holds_record(
        f"{label} (1) square radical is t-coclosed",
        iv.lattice.node_index(z2) in iv.t_coclosed, witness=submodule_to_json(z2))
    witness = endo_image_witness(m, end_ring(m), iv.t_coclosed)
    yield _holds_record(
        f"{label} (2) endo images of t-coclosed are t-coclosed",
        witness is None, witness)


def c28(m: FiniteModule, label: str) -> Iterator:
    """Sums of relatively coclosed submodules are relatively coclosed."""
    iv = whole_interval(m)
    lat, tcc = iv.lattice, iv.t_coclosed
    bad = min((i for i in join_closure(tcc, lat.join) if i not in tcc), default=None)
    yield _holds_record(
        f"{label} sums of t-coclosed are t-coclosed", bad is None,
        witness=None if bad is None else submodule_to_json(lat.nodes[bad]))


def t211(m: FiniteModule, label: str) -> Iterator:
    """Seven characterizations of relative lifting agree on amply
    supplemented modules."""
    yield _values_record(label, t_lifting_variants(m))


def p213(m: FiniteModule, label: str) -> Iterator:
    """Relative lifting passes to submodules and to quotients by fully
    invariant submodules."""
    if not is_t_lifting(m):
        yield SKIPPED
        return
    lat = submodules(m)

    def t_lifting(low: int, high: int) -> bool:
        # C as a module is the interval [0, C], M/N is [N, M]
        return is_lifting_under(Interval.t_small, Interval(lat, low, high))

    bad1 = next((c for c in range(len(lat)) if not t_lifting(lat.zero_index, c)), None)
    yield _holds_record(f"{label} (1) submodules inherit t-lifting", bad1 is None,
                        None if bad1 is None else submodule_to_json(lat.nodes[bad1]))

    try:
        invariant = set(fully_invariant_keys(m))
    except SizeLimitExceeded:
        invariant = set()
        yield SKIPPED
    for sub in (radical(m), socle(m), zbar(m), zbar2(m)):
        invariant.add(sub.key)
    bad2 = next((n for n, node in enumerate(lat.nodes) if node.key in invariant
                 and not t_lifting(n, lat.top_index)), None)
    yield _holds_record(
        f"{label} (2) quotients by fully invariant submodules inherit t-lifting",
        bad2 is None, None if bad2 is None else submodule_to_json(lat.nodes[bad2]))


def t32(m: FiniteModule, label: str) -> Iterator:
    """Four characterizations of the relative dual-Baer property agree."""
    yield _values_record(label, t_dual_baer_variants(m))


def c33(m: FiniteModule, label: str) -> Iterator:
    """Summand-sum property inside the square radical plus regularity
    forces the relative dual-Baer property."""
    if has_sssp_in_zbar2(m) and is_regular(m):
        yield _holds_record(label, is_t_dual_baer(m))


def c34(m: FiniteModule, label: str) -> Iterator:
    """Regular relative dual-Baer modules have semisimple square radical."""
    tdb = is_t_dual_baer(m)
    if is_regular(m) and tdb:
        yield _holds_record(label, square_radical_has(m, is_semisimple))


def p35(m: FiniteModule, label: str) -> Iterator:
    """Dual-Baer with split square radical is equivalent to the relative
    dual-Baer property plus the quotient splitting condition."""
    db = is_dual_baer(m)
    tdb = is_t_dual_baer(m)
    iv = whole_interval(m)
    lhs = db and iv.lattice.node_index(zbar2(m)) in iv.summands
    rhs = tdb and dual_baer_quotient_condition(m)
    yield _values_record(
        label, {"dual_baer_with_split_radical": lhs, "t_dual_baer_with_quotients": rhs})


def t36(m: FiniteModule, label: str) -> Iterator:
    """Direct summands of relative dual-Baer modules are relative
    dual-Baer.  A summand N = eM has End(N) = eEnd(M)e inside End(M), so
    once M is answered no limit refuses N."""
    if not is_t_dual_baer(m):
        return
    iv = whole_interval(m)
    ok, wit = True, None
    for i in sorted(iv.summands):
        node = iv.lattice.nodes[i]
        if not is_t_dual_baer(submodule_as_module(node).module):
            ok, wit = False, submodule_to_json(node)
            break
    yield _holds_record(label, ok, wit)


def p38(m: FiniteModule, label: str) -> Iterator:
    """The relative annihilator condition restricted below the square
    radical, and its passage to the radical itself."""
    t_k = k_module_class(m)["t_k"]
    lat = submodules(m)
    z2 = zbar2(m)
    rad = radical(m).elements
    restricted = True
    for node in lat.nodes:
        if not node.elements <= z2.elements:
            continue
        if t_set_is_trivial(node, m) and not node.elements <= rad:
            restricted = False
            break
    yield _values_record(
        f"{label} (1) restricted condition matches",
        {"t_k": t_k, "restricted_small_condition": restricted})

    if t_k:
        yield _holds_record(
            f"{label} (2) square radical inherits the annihilator condition",
            square_radical_has(m, lambda z: k_module_class(z)["k"]))


def _trace_and_vanishing(m: FiniteModule, indices) -> tuple[bool, bool]:
    """Over the nodes C with these indices: whether the trace recovers
    every C, and whether every C with T(C) = T(0) is zero."""
    nodes = [submodules(m).nodes[i] for i in indices]
    return (all(t_trace(m, c) == c.elements for c in nodes),
            all(c.is_zero() or not t_set_is_trivial(c, m) for c in nodes))


def t39(m: FiniteModule, label: str) -> Iterator:
    """Relative lifting equals relative dual-Baer plus each of the three
    annihilator-style conditions on relatively coclosed submodules."""
    t_k = k_module_class(m)["t_k"]
    tdb = is_t_dual_baer(m)
    trace_ok, vanish_ok = _trace_and_vanishing(m, whole_interval(m).t_coclosed)
    yield _values_record(label, {
        "t_lifting": is_t_lifting(m),
        "t_dual_baer_and_t_k": tdb and t_k,
        "t_dual_baer_and_trace_recovers": tdb and trace_ok,
        "t_dual_baer_and_trivial_t_set_forces_zero": tdb and vanish_ok,
    })


def c310(m: FiniteModule, label: str) -> Iterator:
    """Noncosingular lifting equals relative dual-Baer plus the strong
    annihilator-style conditions on coclosed submodules."""
    strongly_t_k = k_module_class(m)["strongly_t_k"]
    tdb = is_t_dual_baer(m)
    trace_ok, vanish_ok = _trace_and_vanishing(m, whole_interval(m).coclosed)
    yield _values_record(label, {
        "noncosingular_lifting": zbar(m).is_full() and is_lifting(m),
        "t_dual_baer_and_strongly_t_k": tdb and strongly_t_k,
        "t_dual_baer_and_trace_recovers_coclosed": tdb and trace_ok,
        "t_dual_baer_and_trivial_t_set_forces_zero_coclosed": tdb and vanish_ok,
    })


T312_STATEMENTS = (
    "noncosingular_are_injective",
    "square_radicals_split_and_are_injective",
    "all_modules_t_dual_baer",
    "all_modules_t_lifting",
    "injective_modules_t_lifting",
    "noncosingular_dual_baer_and_radicals_split",
    "noncosingular_lifting_and_radicals_split",
)


def t312_facts(m: FiniteModule, _label: str) -> Iterator:
    """The module's part of each T3.12 statement; a refused dual-Baer
    predicate yields :data:`SKIPPED` and counts as holding."""
    # the statements below read the lattice of every module kept
    iv = whole_interval(m)
    nc = zbar(m).is_full()
    inj = is_injective(m)
    try:
        tdb = is_t_dual_baer(m)
    except SizeLimitExceeded:
        tdb = True
        yield SKIPPED
    db = True
    if nc:
        try:
            db = is_dual_baer(m)
        except SizeLimitExceeded:
            yield SKIPPED
    t_lifting = is_t_lifting(m)
    splits = iv.lattice.node_index(zbar2(m)) in iv.summands
    yield {
        "noncosingular_are_injective": not nc or inj,
        "square_radicals_split_and_are_injective":
            splits and square_radical_has(m, is_injective),
        "all_modules_t_dual_baer": tdb,
        "all_modules_t_lifting": t_lifting,
        "injective_modules_t_lifting": not inj or t_lifting,
        "noncosingular_dual_baer_and_radicals_split": db and splits,
        "noncosingular_lifting_and_radicals_split":
            (not nc or is_lifting(m)) and splits,
    }


def run_t312(catalog: ModuleCatalog) -> TheoremReport:
    """Seven ring-level statements evaluated as bounded universal claims
    over the catalog."""
    facts, skipped = _suite_loop(t312_facts, catalog)
    values = {key: all(f[key] for f in facts) for key in T312_STATEMENTS}
    instances = [_values_record(f"{catalog.ring_id} catalog", values)]
    return _finish(
        "T3.12", catalog,
        f"bounded universal quantification over the {len(catalog.modules)}-member catalog",
        instances, skipped)


# in report order: ``--suite all`` and the bundle's files follow it
SUITES = {
    "P2.2": _per_module("P2.2", "all (module, submodule) pairs in catalog", p22),
    "L2.5": _per_module("L2.5", "t-coclosed structure statements per module", l25),
    "P2.6": _per_module("P2.6", "all (module, submodule) pairs in catalog", p26),
    "C2.7": _per_module("C2.7", "per module; all endomorphisms scanned", c27),
    "C2.8": _per_module("C2.8", "pairwise-sum closure of the t-coclosed nodes", c28),
    "T2.11": _per_module("T2.11", "per catalog module", t211),
    "P2.13": _per_module("P2.13", "t-lifting catalog members; fully invariant quotients",
                         p213),
    "T3.2": _per_module("T3.2", "per catalog module", t32),
    "C3.3": _per_module(
        "C3.3", "catalog members with sssp inside the square radical and regular", c33),
    "C3.4": _per_module("C3.4", "regular relative dual-Baer catalog members", c34),
    "P3.5": _per_module(
        "P3.5", "per catalog module; subset quantification via generated right ideals",
        p35),
    "T3.6": _per_module("T3.6", "summands of relative dual-Baer members", t36),
    "P3.8": _per_module("P3.8", "per catalog module", p38),
    "T3.9": _per_module("T3.9", "per catalog module", t39),
    "C3.10": _per_module("C3.10", "per catalog module", c310),
    "T3.12": run_t312,
}


def verify_theorem(suite_id: str, catalog: ModuleCatalog) -> TheoremReport:
    runner = SUITES.get(suite_id)
    if runner is None:
        raise KeyError(f"unknown suite id {suite_id!r}")
    t0 = time.perf_counter()
    report = runner(catalog)
    report.runtime = time.perf_counter() - t0
    return report
