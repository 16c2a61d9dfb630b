"""The cosingularity radical, its square, and the classification."""

import pytest

from modlab import memo
from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.config import Limits
from modlab.cosingular import classify, is_cosingular, zbar, zbar2, zbar_witnesses
from modlab.errors import SizeLimitExceeded
from modlab.lattice import submodules
from modlab.modules import (
    FiniteModule,
    IsoClasses,
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
from modlab.tpredicates import end_data


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
    assert (0, 2) in witnesses  # quotient Z/2 is small


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
        data = end_data(m)
        z = zbar(m)
        z2 = zbar2(m)
        for h in data.end.homs:
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
    """Under max_module=8 the hull of the quotient Z2 + Z2 (16 elements) is
    over the limit, so a value memoized under the default limits, for the
    same presentation or an isomorphic one, must not answer."""
    copy = reversed_copy(z2_plus_z4)
    assert copy != z2_plus_z4
    assert not zbar(z2_plus_z4).is_full()
    assert zbar2(z2_plus_z4).is_zero()
    pair = direct_sum(z2_over_z4, z2_over_z4)
    assert is_small_module(pair)
    limits(Limits(max_module=8))
    for m in (z2_plus_z4, copy):
        for radical in (zbar, zbar2):
            with pytest.raises(SizeLimitExceeded):
                radical(m)
    for m in (pair, reversed_copy(pair)):
        with pytest.raises(SizeLimitExceeded):
            is_small_module(m)


@pytest.mark.parametrize("rid", ["Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2"])
def test_isomorphism_class_index_agrees_with_cold_computation(rid, monkeypatch):
    """zbar and is_small_module answered through the isomorphism-class
    index, on every catalog member and on an isomorphic copy of it with
    its components reversed, equal the values computed with the index
    switched off and every memo empty."""
    members = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256),
                                ring_id=rid).modules
    modules = members + [reversed_copy(m) for m in members]
    indexed = [(zbar(m).key, is_small_module(m)) for m in modules]
    memo.clear()
    monkeypatch.setattr(IsoClasses, "find", lambda self, module: None)
    try:
        cold = [(zbar(m).key, is_small_module(m)) for m in modules]
    finally:
        memo.clear()
    assert indexed == cold
