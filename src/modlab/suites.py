"""Verification suites: each suite evaluates the statements of one
equivalence or structural result independently on every applicable
instance of a module catalog and records agreement.

Suites quantifying over "every module" run over the bounded catalog and
say so in their scope string; an all-true vector is evidence at that
bound, not a proof.  Hypotheses (amply supplemented) are computed, never
assumed; instances failing a hypothesis are recorded as skipped.
"""

from __future__ import annotations

import operator
import time

from .catalog import ModuleCatalog
from .cosingular import zbar, zbar2
from .errors import SizeLimitExceeded
from .lattice import join_closure, radical, socle, submodules
from .modules import (
    EndRing,
    FiniteModule,
    Submodule,
    end_ring,
    quotient_module,
    submodule_as_module,
)
from .reports import TheoremReport, disagrees
from .structure import (
    coclosed_keys,
    is_amply_supplemented,
    is_coclosed,
    is_injective,
    is_lifting,
    summand_keys,
)
from .tpredicates import (
    dual_baer_quotient_condition,
    fully_invariant_keys,
    has_sssp_in_zbar2,
    is_dual_baer,
    is_regular,
    is_semisimple,
    is_t_coclosed,
    is_t_dual_baer,
    is_t_lifting,
    is_minimal_with_joint_complement,
    k_module_class,
    t_coclosed_keys,
    t_dual_baer_variants,
    t_lifting_variants,
    t_set_is_trivial,
    t_small_variants,
    t_trace,
    zbar2_of_node,
)


def _node_witness(sub: Submodule) -> dict:
    return {"size": sub.size, "elements": list(sub.key)}


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


def _values_record(label, values: dict, witness=None, hypothesis=True) -> dict:
    vals = {k: bool(v) for k, v in values.items()}
    agree = len(set(vals.values())) <= 1
    rec = {"instance": label, "values": vals, "agree": agree and hypothesis}
    if not agree and witness is not None:
        rec["witness"] = witness
    return rec


def _holds_record(label, holds: bool, witness=None) -> dict:
    rec = {"instance": label, "holds": bool(holds)}
    if not holds and witness is not None:
        rec["witness"] = witness
    return rec


# -- suite implementations ---------------------------------------------------


def run_p22(catalog: ModuleCatalog) -> TheoremReport:
    """Four characterizations of relative smallness agree on amply
    supplemented modules."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        lat = submodules(m)
        for a in lat.nodes:
            values = t_small_variants(a, m)
            instances.append(_values_record(
                f"{catalog.label(idx)} A={a.size}@{a.key[:4]}",
                values, witness=_node_witness(a)))
    return _finish("P2.2", catalog, "all (module, submodule) pairs in catalog",
                   instances, skipped)


def run_l25(catalog: ModuleCatalog) -> TheoremReport:
    """Containment, quotient and transitivity behavior of relatively
    coclosed submodules."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        label = catalog.label(idx)
        lat = submodules(m)
        z2 = zbar2(m)
        tcc = t_coclosed_keys(m)

        bad = next((k for k in tcc
                    if not frozenset(lat.nodes[lat.index[k]].elements) <= z2.elements),
                   None)
        instances.append(_holds_record(
            f"{label} (1) t-coclosed below square radical", bad is None,
            witness=None if bad is None else {"elements": list(bad)}))

        whole_tcc = m.full_submodule().key in tcc
        noncosing = zbar(m).is_full()
        instances.append(_holds_record(
            f"{label} (2) whole module t-coclosed iff noncosingular",
            whole_tcc == noncosing))

        ok3 = True
        wit3 = None
        ok4 = True
        wit4 = None
        ok5 = True
        wit5 = None
        for ck in tcc:
            c = lat.nodes[lat.index[ck]]
            for ai in lat.subnode_indices(lat.index[ck]):
                a = lat.nodes[ai]
                q, proj = quotient_module(m, a)
                image = Submodule(q, proj.restrict_codes(c.elements))
                if not is_t_coclosed(image, q):
                    ok3 = False
                    wit3 = {"C": _node_witness(c), "A": _node_witness(a)}
                    break
            if not ok3:
                break
        instances.append(_holds_record(
            f"{label} (3) quotients of t-coclosed are t-coclosed", ok3, wit3))

        for ci, c in enumerate(lat.nodes):
            for ai in lat.subnode_indices(ci):
                a = lat.nodes[ai]
                if ai == ci:
                    continue
                # (4): C/A tcc in M/A and A tcc in M imply C tcc in M
                if a.key in tcc:
                    q, proj = quotient_module(m, a)
                    image = Submodule(q, proj.restrict_codes(c.elements))
                    if is_t_coclosed(image, q) and c.key not in tcc:
                        ok4 = False
                        wit4 = {"C": _node_witness(c), "A": _node_witness(a)}
                # (5): A tcc in M iff A tcc in C, for amply supplemented C
                inner = submodule_as_module(c)
                if is_amply_supplemented(inner.module):
                    a_in = Submodule(inner.module, inner.pull_in(a.elements))
                    if (a.key in tcc) != is_t_coclosed(a_in, inner.module):
                        ok5 = False
                        wit5 = {"C": _node_witness(c), "A": _node_witness(a)}
            if not (ok4 and ok5):
                break
        instances.append(_holds_record(
            f"{label} (4) two-step t-coclosure collapses", ok4, wit4))
        instances.append(_holds_record(
            f"{label} (5) relative t-coclosure matches ambient", ok5, wit5))
    return _finish("L2.5", catalog, "t-coclosed structure statements per module",
                   instances, skipped)


def run_p26(catalog: ModuleCatalog) -> TheoremReport:
    """Five characterizations of relatively coclosed submodules agree."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        lat = submodules(m)
        z2 = zbar2(m)
        inner = submodule_as_module(z2) if not z2.is_zero() else None
        for c in lat.nodes:
            in_rad = c.elements <= z2.elements
            if inner is not None and in_rad:
                c_in = Submodule(inner.module, inner.pull_in(c.elements))
                coclosed_in_rad = is_coclosed(c_in, inner.module)
            else:
                coclosed_in_rad = in_rad and c.is_zero()
            noncosing = zbar2_of_node(m, c) == c.elements
            values = {
                "minimal_joint_complement": is_minimal_with_joint_complement(c, m),
                "t_coclosed": is_t_coclosed(c, m),
                "coclosed_inside_radical": in_rad and coclosed_in_rad,
                "coclosed_in_module_and_below_radical": in_rad and is_coclosed(c, m),
                "noncosingular_part": noncosing,
            }
            instances.append(_values_record(
                f"{catalog.label(idx)} C={c.size}@{c.key[:4]}", values,
                witness=_node_witness(c)))
    return _finish("P2.6", catalog, "all (module, submodule) pairs in catalog",
                   instances, skipped)


def endo_image_witness(module: FiniteModule, end: EndRing, keys) -> dict | None:
    """The first node C of ``keys`` (in their iteration order) and the
    first endomorphism index with h(C) outside ``keys``, or None.

    h(C) is spanned by the images of C's generators, so endomorphisms
    that agree on them share the image: each distinct image is tested
    once, and the first endomorphism to reach a failing image is still
    the first failing one.  The signatures are read off the tables by one
    ``itemgetter``; its leading item tab[0] = 0 keeps it defined on the
    zero node, which has no generators."""
    lat = submodules(module)
    tables = end.tables
    for key in keys:
        c = lat.nodes[lat.index[key]]
        signature = operator.itemgetter(0, *c.generators())
        # signature -> first endomorphism index: later (smaller) ones win
        first = dict(zip(map(signature, reversed(tables)), reversed(range(len(tables)))))
        for i in sorted(first.values()):
            tab = tables[i]
            if tuple(sorted(set(map(tab.__getitem__, c.elements)))) not in keys:
                return {"C": _node_witness(c), "endo": i}
    return None


def run_c27(catalog: ModuleCatalog) -> TheoremReport:
    """The square radical is relatively coclosed and endomorphic images of
    relatively coclosed submodules stay relatively coclosed."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        label = catalog.label(idx)
        z2 = zbar2(m)
        instances.append(_holds_record(
            f"{label} (1) square radical is t-coclosed",
            is_t_coclosed(z2, m), witness=_node_witness(z2)))
        try:
            end = end_ring(m)
        except SizeLimitExceeded:
            skipped += 1
            continue
        witness = endo_image_witness(m, end, t_coclosed_keys(m))
        instances.append(_holds_record(
            f"{label} (2) endo images of t-coclosed are t-coclosed",
            witness is None, witness))
    return _finish("C2.7", catalog, "per module; all endomorphisms scanned",
                   instances, skipped)


def run_c28(catalog: ModuleCatalog) -> TheoremReport:
    """Sums of relatively coclosed submodules are relatively coclosed."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        lat = submodules(m)
        tcc = t_coclosed_keys(m)
        closure = join_closure([lat.index[k] for k in tcc], lat.join)
        bad = next((i for i in closure if lat.nodes[i].key not in tcc), None)
        instances.append(_holds_record(
            f"{catalog.label(idx)} sums of t-coclosed are t-coclosed",
            bad is None,
            witness=None if bad is None else _node_witness(lat.nodes[bad])))
    return _finish("C2.8", catalog, "pairwise-sum closure of the t-coclosed nodes",
                   instances, skipped)


def run_t211(catalog: ModuleCatalog) -> TheoremReport:
    """Seven characterizations of relative lifting agree on amply
    supplemented modules."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        values = t_lifting_variants(m)
        instances.append(_values_record(catalog.label(idx), values))
    return _finish("T2.11", catalog, "per catalog module", instances, skipped)


def run_p213(catalog: ModuleCatalog) -> TheoremReport:
    """Relative lifting passes to submodules and to quotients by fully
    invariant submodules."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_t_lifting(m):
            skipped += 1
            continue
        label = catalog.label(idx)
        lat = submodules(m)
        ok1, wit1 = True, None
        for node in lat.nodes:
            inner = submodule_as_module(node)
            if not is_t_lifting(inner.module):
                ok1, wit1 = False, _node_witness(node)
                break
        instances.append(_holds_record(
            f"{label} (1) submodules inherit t-lifting", ok1, wit1))

        try:
            invariant = set(fully_invariant_keys(m))
        except SizeLimitExceeded:
            invariant = set()
            skipped += 1
        for sub in (radical(m), socle(m), zbar(m), zbar2(m)):
            invariant.add(sub.key)
        ok2, wit2 = True, None
        for key in sorted(invariant):
            node = lat.nodes[lat.index[key]]
            q, _ = quotient_module(m, node)
            if not is_t_lifting(q):
                ok2, wit2 = False, _node_witness(node)
                break
        instances.append(_holds_record(
            f"{label} (2) quotients by fully invariant submodules inherit t-lifting",
            ok2, wit2))
    return _finish("P2.13", catalog,
                   "t-lifting catalog members; fully invariant quotients",
                   instances, skipped)


def run_t32(catalog: ModuleCatalog) -> TheoremReport:
    """Four characterizations of the relative dual-Baer property agree."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        try:
            values = t_dual_baer_variants(m)
        except SizeLimitExceeded:
            skipped += 1
            continue
        instances.append(_values_record(catalog.label(idx), values))
    return _finish("T3.2", catalog, "per catalog module", instances, skipped)


def run_c33(catalog: ModuleCatalog) -> TheoremReport:
    """Summand-sum property inside the square radical plus regularity
    forces the relative dual-Baer property."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not (has_sssp_in_zbar2(m) and is_regular(m)):
            continue
        value = is_t_dual_baer(m)
        if value is None:
            skipped += 1
            continue
        instances.append(_holds_record(catalog.label(idx), value))
    return _finish("C3.3", catalog,
                   "catalog members with sssp inside the square radical and regular",
                   instances, skipped)


def run_c34(catalog: ModuleCatalog) -> TheoremReport:
    """Regular relative dual-Baer modules have semisimple square radical."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        tdb = is_t_dual_baer(m)
        if tdb is None:
            skipped += 1
            continue
        if not (is_regular(m) and tdb):
            continue
        z2 = zbar2(m)
        if z2.is_zero():
            value = True
        else:
            value = is_semisimple(submodule_as_module(z2).module)
        instances.append(_holds_record(catalog.label(idx), value))
    return _finish("C3.4", catalog, "regular relative dual-Baer catalog members",
                   instances, skipped)


def run_p35(catalog: ModuleCatalog) -> TheoremReport:
    """Dual-Baer with split square radical is equivalent to the relative
    dual-Baer property plus the quotient splitting condition."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        try:
            db = is_dual_baer(m)
            tdb = is_t_dual_baer(m)
            if db is None or tdb is None:
                skipped += 1
                continue
            summands = summand_keys(m)
            lhs = db and zbar2(m).key in summands
            rhs = tdb and dual_baer_quotient_condition(m)
        except SizeLimitExceeded:
            skipped += 1
            continue
        instances.append(_values_record(
            catalog.label(idx),
            {"dual_baer_with_split_radical": lhs, "t_dual_baer_with_quotients": rhs}))
    return _finish("P3.5", catalog,
                   "per catalog module; subset quantification via generated right ideals",
                   instances, skipped)


def run_t36(catalog: ModuleCatalog) -> TheoremReport:
    """Direct summands of relative dual-Baer modules are relative
    dual-Baer."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        tdb = is_t_dual_baer(m)
        if tdb is None:
            skipped += 1
            continue
        if not tdb:
            continue
        lat = submodules(m)
        ok, wit = True, None
        for key in sorted(summand_keys(m)):
            node = lat.nodes[lat.index[key]]
            inner = submodule_as_module(node)
            value = is_t_dual_baer(inner.module)
            if value is None:
                skipped += 1
                continue
            if not value:
                ok, wit = False, _node_witness(node)
                break
        instances.append(_holds_record(catalog.label(idx), ok, wit))
    return _finish("T3.6", catalog, "summands of relative dual-Baer members",
                   instances, skipped)


def run_p38(catalog: ModuleCatalog) -> TheoremReport:
    """The relative annihilator condition restricted below the square
    radical, and its passage to the radical itself."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        label = catalog.label(idx)
        try:
            kc = k_module_class(m)
        except SizeLimitExceeded:
            skipped += 1
            continue
        if kc["t_k"] is None:
            skipped += 1
            continue
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
        instances.append(_values_record(
            f"{label} (1) restricted condition matches",
            {"t_k": bool(kc["t_k"]), "restricted_small_condition": restricted}))

        if kc["t_k"]:
            if z2.is_zero():
                inherited = True
            else:
                inner = submodule_as_module(z2)
                inner_kc = k_module_class(inner.module)
                if inner_kc["k"] is None:
                    skipped += 1
                    continue
                inherited = bool(inner_kc["k"])
            instances.append(_holds_record(
                f"{label} (2) square radical inherits the annihilator condition",
                inherited))
    return _finish("P3.8", catalog, "per catalog module", instances, skipped)


def _trace_and_vanishing(m: FiniteModule, keys) -> tuple[bool, bool]:
    """Over the nodes C of ``keys``: whether the trace recovers every C,
    and whether every C with T(C) = T(0) is zero."""
    lat = submodules(m)
    nodes = [lat.nodes[lat.index[key]] for key in keys]
    return (all(t_trace(m, c) == c.elements for c in nodes),
            all(c.is_zero() or not t_set_is_trivial(c, m) for c in nodes))


def run_t39(catalog: ModuleCatalog) -> TheoremReport:
    """Relative lifting equals relative dual-Baer plus each of the three
    annihilator-style conditions on relatively coclosed submodules."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        try:
            kc = k_module_class(m)
            tdb = is_t_dual_baer(m)
        except SizeLimitExceeded:
            skipped += 1
            continue
        if tdb is None or kc["t_k"] is None:
            skipped += 1
            continue
        trace_ok, vanish_ok = _trace_and_vanishing(m, t_coclosed_keys(m))
        values = {
            "t_lifting": is_t_lifting(m),
            "t_dual_baer_and_t_k": tdb and bool(kc["t_k"]),
            "t_dual_baer_and_trace_recovers": tdb and trace_ok,
            "t_dual_baer_and_trivial_t_set_forces_zero": tdb and vanish_ok,
        }
        instances.append(_values_record(catalog.label(idx), values))
    return _finish("T3.9", catalog, "per catalog module", instances, skipped)


def run_c310(catalog: ModuleCatalog) -> TheoremReport:
    """Noncosingular lifting equals relative dual-Baer plus the strong
    annihilator-style conditions on coclosed submodules."""
    instances, skipped = [], 0
    for idx, m in enumerate(catalog.modules):
        if not is_amply_supplemented(m):
            skipped += 1
            continue
        try:
            kc = k_module_class(m)
            tdb = is_t_dual_baer(m)
        except SizeLimitExceeded:
            skipped += 1
            continue
        if tdb is None or kc["strongly_t_k"] is None:
            skipped += 1
            continue
        trace_ok, vanish_ok = _trace_and_vanishing(m, coclosed_keys(m))
        values = {
            "noncosingular_lifting": zbar(m).is_full() and is_lifting(m),
            "t_dual_baer_and_strongly_t_k": tdb and bool(kc["strongly_t_k"]),
            "t_dual_baer_and_trace_recovers_coclosed": tdb and trace_ok,
            "t_dual_baer_and_trivial_t_set_forces_zero_coclosed": tdb and vanish_ok,
        }
        instances.append(_values_record(catalog.label(idx), values))
    return _finish("C3.10", catalog, "per catalog module", instances, skipped)


def run_t312(catalog: ModuleCatalog) -> TheoremReport:
    """Seven ring-level statements evaluated as bounded universal claims
    over the catalog."""
    skipped = 0
    noncosingular = []
    injective_members = []
    per_module = []
    for idx, m in enumerate(catalog.modules):
        try:
            nc = zbar(m).is_full()
            inj = is_injective(m)
        except SizeLimitExceeded:
            skipped += 1
            continue
        per_module.append((idx, m, nc, inj))
        if nc:
            noncosingular.append((idx, m))
        if inj:
            injective_members.append((idx, m))

    def all_noncosingular_injective():
        return all(inj for _, _, nc, inj in per_module if nc)

    def radicals_split_and_injective():
        for idx, m, _, _ in per_module:
            z2 = zbar2(m)
            if z2.key not in summand_keys(m):
                return False
            if z2.is_zero():
                continue
            if not is_injective(submodule_as_module(z2).module):
                return False
        return True

    def all_t_dual_baer():
        nonlocal skipped
        out = True
        for idx, m, _, _ in per_module:
            v = is_t_dual_baer(m)
            if v is None:
                skipped += 1
                continue
            out = out and v
        return out

    def all_t_lifting():
        return all(is_t_lifting(m) for _, m, _, _ in per_module)

    def injective_t_lifting():
        return all(is_t_lifting(m) for _, m in injective_members)

    def radicals_split():
        return all(zbar2(m).key in summand_keys(m) for _, m, _, _ in per_module)

    def noncosingular_dual_baer():
        nonlocal skipped
        out = True
        for _, m in noncosingular:
            v = is_dual_baer(m)
            if v is None:
                skipped += 1
                continue
            out = out and v
        return out

    def noncosingular_lifting():
        return all(is_lifting(m) for _, m in noncosingular)

    splits = radicals_split()
    values = {
        "noncosingular_are_injective": all_noncosingular_injective(),
        "square_radicals_split_and_are_injective": radicals_split_and_injective(),
        "all_modules_t_dual_baer": all_t_dual_baer(),
        "all_modules_t_lifting": all_t_lifting(),
        "injective_modules_t_lifting": injective_t_lifting(),
        "noncosingular_dual_baer_and_radicals_split": noncosingular_dual_baer() and splits,
        "noncosingular_lifting_and_radicals_split": noncosingular_lifting() and splits,
    }
    instances = [_values_record(f"{catalog.ring_id} catalog", values)]
    return _finish(
        "T3.12", catalog,
        f"bounded universal quantification over the {len(catalog.modules)}-member catalog",
        instances, skipped)


# in report order: ``--suite all`` and the bundle's files follow it
SUITES = {
    "P2.2": run_p22,
    "L2.5": run_l25,
    "P2.6": run_p26,
    "C2.7": run_c27,
    "C2.8": run_c28,
    "T2.11": run_t211,
    "P2.13": run_p213,
    "T3.2": run_t32,
    "C3.3": run_c33,
    "C3.4": run_c34,
    "P3.5": run_p35,
    "T3.6": run_t36,
    "P3.8": run_p38,
    "T3.9": run_t39,
    "C3.10": run_c310,
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
