"""Radical, socle and Baer's injectivity test computed from the additive
generators of J(R), against the element scans they replaced: the radical
as the span of x * j over every x and every j in J, the socle as the
elements every j in J kills, and Baer's test over the set
{(m * v_j)_j : m in M} for each right ideal."""

from unittest import mock

import pytest

from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.lattice import (
    jacobson_generators,
    jacobson_radical,
    radical,
    radical_of_subset,
    socle,
    submodules,
)
from modlab.modules import FiniteModule, _Workspace, direct_sum, hom_group, regular_module
from modlab.rings import builtin_ring, cyclic_ring, product_ring
from modlab.structure import (
    _right_ideal_modules,
    character_dual,
    injective_hull,
    is_injective,
)

RING_IDS = ["Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2"]
# J(Z4 x Z4) = 2Z4 x 2Z4 needs two additive generators; no built-in ring's
# J needs more than one
Z4_SQUARED = "Z4xZ4"
# lattices of modules up to this size are small enough to check every node
LATTICE_MAX = 256


def nonzero_j(ring):
    return [ring.decode(j) for j in sorted(jacobson_radical(ring)) if j]


def radical_of_subset_scan(module, codes):
    """X * J: the span of x * j over every x in X and every j in J."""
    ws = module.workspace()
    return frozenset(ws.additive_closure(
        {ws.act(x, r) for r in nonzero_j(module.ring) for x in codes}))


def socle_scan(module):
    """ann_M(J): the elements every j in J kills."""
    ws = module.workspace()
    js = nonzero_j(module.ring)
    return frozenset(x for x in module.elements() if all(ws.act(x, r) == 0 for r in js))


def is_injective_scan(module):
    """Baer's test with the extendable homs listed element by element:
    (m * v_j)_j for every m in M, per right ideal."""
    ring = module.ring
    ws = module.workspace()
    for ideal in _right_ideal_modules(ring):
        basis_vectors = [tuple(x % d for x, d in zip(row, ring.component_orders))
                         for row in ideal.include.matrix]
        extendable = {tuple(ws.act(m, v) for v in basis_vectors) for m in module.elements()}
        for rep in hom_group(ideal.module, module)[1]:
            if tuple(map(module.encode, rep)) not in extendable:
                return False
    return True


def ring_and_policy(rid):
    if rid == Z4_SQUARED:
        return product_ring(cyclic_ring(4), cyclic_ring(4)), GenerationPolicy(1, 256)
    return builtin_ring(rid), GenerationPolicy(2, 256)


def kernel_modules(rid):
    """The catalog members with their hulls and character duals, and the
    pairwise sums of members with at most 256 elements."""
    ring, policy = ring_and_policy(rid)
    members = list(enumerate_modules(ring, policy, ring_id=rid).modules)
    near = (members + [injective_hull(m)[0] for m in members]
            + [character_dual(m) for m in members])
    sums = [direct_sum(a, b) for i, a in enumerate(members) for b in members[i:]
            if a.size * b.size <= 256]
    return near, sums


@pytest.mark.parametrize("rid", RING_IDS + [Z4_SQUARED])
def test_generator_kernels_match_the_element_scans(rid):
    """Radical, socle and injectivity on every module of
    :func:`kernel_modules`; the radical of every lattice node of the
    catalog members, hulls and duals with at most LATTICE_MAX elements."""
    near, sums = kernel_modules(rid)
    for m in near + sums:
        assert radical(m).elements == radical_of_subset_scan(m, m.elements()), m
        assert socle(m).elements == socle_scan(m), m
        assert is_injective(m) == is_injective_scan(m), m
    for m in near:
        if m.size <= LATTICE_MAX:
            for node in submodules(m).nodes:
                assert (radical_of_subset(m, node.elements)
                        == radical_of_subset_scan(m, node.elements)), (m, node.key)


def test_jacobson_generators_span_j():
    for rid in RING_IDS + [Z4_SQUARED]:
        ring, _ = ring_and_policy(rid)
        gens = jacobson_generators(ring)
        span = regular_module(ring).workspace().additive_closure(map(ring.encode, gens))
        assert frozenset(span) == jacobson_radical(ring), rid
    assert len(jacobson_generators(ring_and_policy(Z4_SQUARED)[0])) == 2


def test_is_injective_builds_no_workspace():
    """Baer's test reads only the module's action matrices and hom group;
    the right ideals are the ring's and built beforehand."""
    def refuse(module):
        raise AssertionError(f"workspace of {module!r} built")

    for rid in ("Z8", "T2F2", Z4_SQUARED):
        near, sums = kernel_modules(rid)
        _right_ideal_modules(near[0].ring)
        with mock.patch.object(FiniteModule, "workspace", refuse):
            for m in near + sums:
                assert is_injective.__wrapped__(m) == is_injective(m)


def test_radical_and_socle_act_only_by_the_generators_of_j():
    """Over Z4 x Z4, J has 15 nonzero elements and two additive
    generators; radical, socle and radical_of_subset act by those two."""
    ring, policy = ring_and_policy(Z4_SQUARED)
    gens = set(jacobson_generators(ring))
    assert len(gens) < len(nonzero_j(ring))
    acted = []
    matrix = FiniteModule.ring_action_matrix
    table = _Workspace.action_table

    def record_matrix(module, rcoords):
        acted.append(tuple(rcoords))
        return matrix(module, rcoords)

    def record_table(ws, rcoords):
        acted.append(tuple(rcoords))
        return table(ws, rcoords)

    for m in enumerate_modules(ring, policy, ring_id=Z4_SQUARED).modules:
        with mock.patch.object(FiniteModule, "ring_action_matrix", record_matrix), \
                mock.patch.object(_Workspace, "action_table", record_table):
            radical.__wrapped__(m)
            socle.__wrapped__(m)
            radical_of_subset.__wrapped__(m, frozenset(m.elements()))
    assert acted and set(acted) <= gens
