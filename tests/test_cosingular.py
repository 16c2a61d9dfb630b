"""The cosingularity radical, its square, and the classification: the
closed forms M * S and M * S^2 against the hull route."""

import pytest

from modlab import memo
from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.config import Limits
from modlab.cosingular import classify, zbar, zbar2
from modlab.errors import SizeLimitExceeded
from modlab.lattice import jacobson_radical, left_socle_generators, submodules
from modlab.modules import (
    FiniteModule,
    direct_sum,
    hom_set,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
    zero_module,
)
from modlab.rings import builtin_ring
from modlab.structure import is_small_module
from modlab.tpredicates import zbar2_of_node, zbar2_pullback
from scan_oracles import (
    small_by_hull,
    zbar2_by_hull,
    zbar2_of_node_by_submodule,
    zbar2_pullback_by_quotient,
    zbar_by_hull,
    zbar_witnesses,
)

RING_IDS = ("Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2")


def is_cosingular(module):
    return zbar(module).is_zero()


def test_zbar_chain_ring(z4_reg):
    assert sorted(zbar(z4_reg).elements) == [0, 2]
    assert zbar2(z4_reg).is_zero()


def test_zbar_witnesses_are_exactly_small_quotients(z4_reg):
    witnesses = {w.key for w in zbar_witnesses(z4_reg)}
    lat = submodules(z4_reg)
    expected = set()
    for node in lat.nodes:
        q, _ = quotient_module(z4_reg, node)
        if is_small_module(q):
            expected.add(node.key)
    assert witnesses == expected
    assert frozenset((0, 2)) in witnesses  # quotient Z/2 is small


def test_zbar_of_simple_block_is_full(s_block):
    assert zbar(s_block).is_full()
    assert classify(s_block).classification == "noncosingular"


def test_zbar_of_semisimple_ring_module(F3):
    reg = regular_module(F3)
    assert zbar(reg).is_full()
    big = direct_sum(reg, reg)
    assert zbar(big).is_full()


def test_zbar_mixed_module(z2_plus_z8):
    z = zbar(z2_plus_z8)
    assert z.size == 2
    assert z.elements == span(z2_plus_z8, [(0, 4)]).elements
    assert zbar2(z2_plus_z8).is_zero()
    assert classify(z2_plus_z8).classification == "mixed"


def test_zbar_product_ring_module(s_plus_c):
    z = zbar(s_plus_c)
    assert z.size == 4
    assert z.elements == span(s_plus_c, [(1, 0), (0, 2)]).elements
    z2 = zbar2(s_plus_c)
    assert z2.size == 2
    assert z2.elements == span(s_plus_c, [(1, 0)]).elements


def test_small_module_is_cosingular(z2_over_z4):
    assert is_small_module(z2_over_z4)
    assert is_cosingular(z2_over_z4)


def test_zero_module_profile(Z4):
    z = zero_module(Z4)
    prof = classify(z)
    assert prof.zbar.is_zero() and prof.zbar.is_full()


def test_reject_containment_invariant(z2_plus_z4, z4_reg, z2_over_z4):
    # maps into small modules must kill the radical
    catalog = [z2_plus_z4, z4_reg, z2_over_z4]
    smalls = [m for m in catalog if is_small_module(m)]
    for m in catalog:
        z = zbar(m)
        for target in smalls:
            for h in hom_set(m, target):
                assert all(h.apply(c) == 0 for c in z.elements)


def test_square_radical_is_noncosingular(z2_plus_z8, s_plus_c, z4_reg):
    for m in (z2_plus_z8, s_plus_c, z4_reg):
        z2 = zbar2(m)
        if z2.is_zero():
            continue
        inner = submodule_as_module(z2)
        assert zbar(inner.module).is_full()


def test_full_invariance_of_radicals(s_plus_c, z2_plus_z4):
    for m in (s_plus_c, z2_plus_z4):
        z = zbar(m)
        z2 = zbar2(m)
        for h in hom_set(m, m):
            assert h.restrict_codes(z.elements) <= z.elements
            assert h.restrict_codes(z2.elements) <= z2.elements


def test_radical_additive_on_summands(z2_over_z8, z8_reg, s_block, c_block):
    from modlab.modules import direct_sum_with_maps

    pairs = [(z2_over_z8, z8_reg), (s_block, c_block)]
    for a, b in pairs:
        total, injections, _ = direct_sum_with_maps(a, b)
        za = injections[0].restrict_codes(zbar2(a).elements)
        zb = injections[1].restrict_codes(zbar2(b).elements)
        ws = total.workspace()
        combined = frozenset(ws.span(list(za | zb)))
        assert zbar2(total).elements == combined


def test_images_of_noncosingular_are_noncosingular(s_block, s_plus_c, F3):
    noncosingular = [s_block, direct_sum(s_block, s_block), regular_module(F3)]
    targets = {s_block.ring.key: s_plus_c, F3.key: regular_module(F3)}
    for m in noncosingular:
        assert zbar(m).is_full()
        target = targets[m.ring.key]
        for h in hom_set(m, target):
            img = target.submodule(h.restrict_codes(range(m.size)))
            inner = submodule_as_module(img)
            if inner.module.size > 1:
                assert zbar(inner.module).is_full()


def reversed_copy(m):
    """m with its components in reverse order: isomorphic to m, with a
    different presentation."""
    order = range(len(m.component_orders) - 1, -1, -1)
    action = [[[a[j][l] for l in order] for j in order] for a in m.action]
    return FiniteModule(m.ring, [m.component_orders[j] for j in order], action)


def test_radical_and_small_module_memos_are_keyed_by_limits(z2_plus_z4, z2_over_z4,
                                                            limits):
    """Under max_module=2 the regular module of Z4 (4 elements) is over the
    limit, so J(Z4) and S = Soc(_R R), which both radicals and the
    small-module test read, are refused: a value memoized under the
    default limits, for the same presentation or an isomorphic one, must
    not answer."""
    copy = reversed_copy(z2_plus_z4)
    assert copy != z2_plus_z4
    assert not zbar(z2_plus_z4).is_full()
    assert zbar2(z2_plus_z4).is_zero()
    pair = direct_sum(z2_over_z4, z2_over_z4)
    pair_copy = reversed_copy(pair)
    assert is_small_module(pair)
    limits(Limits(max_module=2))
    for m in (z2_plus_z4, copy):
        for radical in (zbar, zbar2):
            with pytest.raises(SizeLimitExceeded):
                radical(m)
    for m in (pair, pair_copy):
        with pytest.raises(SizeLimitExceeded):
            is_small_module(m)


@pytest.mark.parametrize("rid", RING_IDS)
def test_isomorphism_class_index_agrees_with_cold_computation(rid):
    """zbar and is_small_module keep no isomorphism-class index: the closed
    form gives isomorphic presentations the same answer by itself.  On
    every catalog member and on its copy with the components reversed,
    computed cold (every memo empty), the radicals of the copy are the
    reversals of the member's, and smallness agrees."""
    members = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256),
                                ring_id=rid).modules
    warm = [(zbar(m).elements, zbar2(m).elements, is_small_module(m)) for m in members]
    memo.clear()
    for m, (z, z2, small) in zip(members, warm):
        copy = reversed_copy(m)

        def reverse(codes):
            return frozenset(copy.encode(m.decode(c)[::-1]) for c in codes)

        assert zbar(copy).elements == reverse(z), (rid, m.component_orders)
        assert zbar2(copy).elements == reverse(z2), (rid, m.component_orders)
        assert is_small_module(copy) == small
    memo.clear()


def check_against_the_hull_route(catalog):
    """On every catalog module M and every lattice node N: the small-module
    test of M/N against its hull; Zbar(M/N), pulled back to M, against the
    intersection of the nodes K >= N with M/K small by the hull, since
    (M/N)/(K/N) = M/K; the pullback of Zbar2(M/N) against the quotient
    module's; Zbar2 of N against N as a module's.  Then Zbar(M) and
    Zbar2(M) against the hull route."""
    for m in catalog.modules:
        lat = submodules(m)
        small = [small_by_hull(quotient_module(m, k)[0]) for k in lat.nodes]
        for n in lat.nodes:
            q, proj = quotient_module(m, n)
            assert is_small_module(q) == small[lat.node_index(n)]
            want = frozenset(m.elements())
            for k, k_small in zip(lat.nodes, small):
                if k_small and n.elements <= k.elements:
                    want &= k.elements
            table, z = proj.table(), zbar(q).elements
            assert frozenset(c for c in m.elements() if table[c] in z) == want
            assert zbar2_pullback(m, n) == zbar2_pullback_by_quotient(m, n)
            assert zbar2_of_node(m, n) == zbar2_of_node_by_submodule(m, n)
        assert zbar(m).elements == zbar_by_hull(m), m.component_orders
        assert zbar2(m).elements == zbar2_by_hull(m), m.component_orders


@pytest.mark.parametrize("rid", RING_IDS)
def test_closed_form_matches_the_hull_route(rid):
    check_against_the_hull_route(
        enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid))


@pytest.mark.parametrize("rid", ["Q", "Qop"])
def test_closed_form_matches_the_hull_route_over_the_quiver_rings(rid, request):
    """Over Q and its opposite S = Soc(_R R) is not inside J(R), so M * S
    and M * J(R) differ there on modules the built-in rings do not have."""
    ring = request.getfixturevalue(rid)
    assert any(ring.encode(s) not in jacobson_radical(ring)
               for s in left_socle_generators(ring))
    check_against_the_hull_route(enumerate_modules(ring, GenerationPolicy(1, 256),
                                                   ring_id=rid))
