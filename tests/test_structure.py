"""Summands, supplements, coclosure, lifting, duality, covers, hulls and
injectivity."""

import pytest

from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.lattice import is_essential, is_small, is_small_within, radical, submodules
from modlab.modules import (
    direct_sum,
    hom_set,
    is_isomorphic,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
    zero_module,
)
from modlab.rings import builtin_ring
from modlab.structure import (
    character_dual,
    coclosed_keys,
    complement_of,
    dual_hom,
    injective_hull,
    is_amply_supplemented,
    is_coclosed,
    is_coclosed_under,
    is_direct_summand,
    is_injective,
    is_lifting,
    is_small_module,
    is_supplement,
    projective_cover,
    summand_witness_idempotent,
    supplements_of,
    whole_interval,
)
from scan_oracles import lifting_by_coclosed, small_in_quotient_scan


def test_summands_basic(z4_reg, s_plus_c):
    assert is_direct_summand(z4_reg.zero_submodule())
    assert complement_of(z4_reg.zero_submodule()).is_full()
    assert not is_direct_summand(span(z4_reg, [2]))
    s_part = span(s_plus_c, [(1, 0)])
    comp = complement_of(s_part)
    assert comp is not None
    assert comp.elements == span(s_plus_c, [(0, 1)]).elements


def test_summand_idempotent_witness_agrees(z2_plus_z4):
    lat = submodules(z2_plus_z4)
    for node in lat.nodes:
        witness = summand_witness_idempotent(node)
        assert (witness is not None) == is_direct_summand(node)
        if witness is not None:
            assert witness.then(witness).matrix == witness.matrix
            assert witness.image().elements == node.elements


def test_idempotent_index_keeps_the_first_idempotent(z2_plus_z4, s_plus_c):
    """The per-End-ring index returns what the scan over the canonical hom
    list finds first: an idempotent h with image equal to the node.  The
    End ring builds its homs on demand, so the two are equal (same
    endpoints and matrix), not one object."""
    for m in (z2_plus_z4, s_plus_c):
        homs = hom_set(m, m)
        for node in submodules(m).nodes:
            want = next((h for h in homs if h.then(h) == h
                         and h.image().elements == node.elements), None)
            assert summand_witness_idempotent(node) == want


def test_supplements(z4_reg, s_plus_c):
    assert is_supplement(z4_reg.full_submodule(), z4_reg.zero_submodule(), z4_reg)
    assert is_supplement(z4_reg.full_submodule(), span(z4_reg, [2]), z4_reg)
    s_part = span(s_plus_c, [(1, 0)])
    c_part = span(s_plus_c, [(0, 1)])
    assert c_part in supplements_of(s_part, s_plus_c)


def test_amply_supplemented(z2_plus_z8, F2xZ4, Z4):
    assert is_amply_supplemented(z2_plus_z8)
    assert is_amply_supplemented(zero_module(Z4))
    assert is_amply_supplemented(regular_module(F2xZ4))


RING_IDS = ["Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2"]


def ample_sweep(module):
    """Ample supplementation by the definition: for every pair with
    A + B = M, scan A's subnodes for a supplement of B.  The reference for
    the test on minimal supplements only."""
    lat = submodules(module)
    top = lat.top_index
    for i in range(len(lat)):
        for j, b in enumerate(lat.nodes):
            if lat.join(i, j) != top:
                continue
            if not any(lat.join(xi, j) == top and is_small_within(
                           module, lat.nodes[xi].elements & b.elements,
                           lat.nodes[xi].elements)
                       for xi in lat.subnode_indices(i)):
                return False
    return True


def catalog_modules(rid, gens=2):
    ring = builtin_ring(rid)
    return enumerate_modules(ring, GenerationPolicy(gens, 256), ring_id=rid).modules


@pytest.mark.parametrize("rid", RING_IDS)
def test_minimal_supplements_agree_with_the_pair_sweep(rid):
    """Over every two-generator catalog module and each of its nodes taken
    as a standalone module, both are true: every module over a finite ring
    is amply supplemented, which the suites and the profile take as a
    theorem instead of checking it."""
    for m in catalog_modules(rid):
        for module in [m] + [submodule_as_module(node).module
                             for node in submodules(m).nodes]:
            assert is_amply_supplemented(module) and ample_sweep(module), module


@pytest.mark.parametrize("rid", ["Z4", "F3"])
def test_every_finite_module_is_amply_supplemented(rid):
    """The theorem the suites and the profile take instead of a check (a
    finite module is artinian, hence linearly compact, hence amply
    supplemented), on the three-generator catalogs; the two-generator
    ones and their nodes are above."""
    for m in catalog_modules(rid, gens=3):
        assert is_amply_supplemented(m), m


@pytest.mark.parametrize("rid", RING_IDS)
def test_minimal_members_of_the_up_set_are_the_supplements(rid):
    """For every B: the members of U = {X : X + B = M} covering no member
    of U are the ones with no proper subnode in U, each supplements B, and
    every member of U holds one."""
    for m in catalog_modules(rid):
        lat = submodules(m)
        covers = lat.covers()
        for j, b in enumerate(lat.nodes):
            up = {i for i in range(len(lat)) if lat.join(i, j) == lat.top_index}
            minimal = {i for i in up if up.isdisjoint(covers[i])}
            assert minimal == {i for i in up
                               if up.isdisjoint(lat.subnode_indices(i)[:-1])}
            assert all(is_supplement(lat.nodes[i], b, m) for i in minimal)
            assert all(minimal.intersection(lat.subnode_indices(a)) for a in up)


def test_coclosed_examples(z4_reg, s_plus_c):
    assert is_coclosed(z4_reg.zero_submodule(), z4_reg)
    assert not is_coclosed(span(z4_reg, [2]), z4_reg)
    assert is_coclosed(span(s_plus_c, [(1, 0)]), s_plus_c)


@pytest.mark.parametrize("rid", RING_IDS)
def test_coclosed_scan_agrees_with_radical_route(rid):
    """coclosed_keys, read off the coclosed node set of [0, M], against
    the coclosure loop run with the definitional smallness scan, on every
    two-generator catalog module."""
    for m in catalog_modules(rid):
        lat = submodules(m)

        def scan(iv, a, n):
            return small_in_quotient_scan(lat.nodes[a], lat.nodes[n], m)

        iv = whole_interval(m)
        assert coclosed_keys(m) == frozenset(
            node.key for i, node in enumerate(lat.nodes)
            if is_coclosed_under(scan, iv, i)), (rid, m.component_orders)


def test_lifting_flagship_examples(z2_plus_z4, z2_plus_z8, F3):
    assert is_lifting(z2_plus_z4)
    assert not is_lifting(z2_plus_z8)
    assert is_lifting(regular_module(F3))


def test_lifting_methods_agree(z2_plus_z4, z2_plus_z8, s_plus_c, z4_reg):
    for m in (z2_plus_z4, z2_plus_z8, s_plus_c, z4_reg):
        assert is_lifting(m) == lifting_by_coclosed(m)


def test_character_dual_sizes(z4_reg, z2_plus_z8, s_block):
    for m in (z4_reg, z2_plus_z8, s_block):
        d = character_dual(m)
        assert d.size == m.size
        # the double dual is literally the same presentation
        assert character_dual(d).key == m.key


def test_character_dual_of_chain_ring_is_self(z4_reg):
    d = character_dual(z4_reg)
    assert d.ring == z4_reg.ring  # commutative
    assert is_isomorphic(d, z4_reg)


def test_character_dual_of_simple_block(s_block):
    d = character_dual(s_block)
    assert d.ring == s_block.ring
    assert is_isomorphic(d, s_block)


def test_dual_hom_contravariant(z2_plus_z4):
    homs = hom_set(z2_plus_z4, z2_plus_z4)
    f, g = homs[3], homs[7]
    left = dual_hom(f.then(g))
    right = dual_hom(g).then(dual_hom(f))
    assert left.matrix == right.matrix


def test_projective_cover_examples(Z4, z4_reg, z2_over_z4, s_block, F2xZ4):
    p, cover = projective_cover(z2_over_z4)
    assert is_isomorphic(p, z4_reg)
    assert cover.is_surjective()
    assert cover.kernel().size == 2
    assert is_small(
        p.submodule(cover.kernel().elements), p
    )
    p2, cover2 = projective_cover(z4_reg)
    assert p2.size == 4 and cover2.is_bijective()
    p3, cover3 = projective_cover(s_block)
    assert p3.size == 2 and cover3.is_bijective()


def test_projective_cover_kernel_small_everywhere(z2_plus_z8):
    lat = submodules(z2_plus_z8)
    for node in lat.nodes:
        q, _ = quotient_module(z2_plus_z8, node)
        p, cover = projective_cover(q)
        assert cover.is_surjective()
        assert cover.kernel().elements <= radical(p).elements


def test_injective_hull_examples(Z4, z4_reg, z2_over_z4):
    e, emb = injective_hull(z2_over_z4)
    assert e.size == 4
    assert is_isomorphic(e, z4_reg)
    assert emb.is_injective()
    e2, emb2 = injective_hull(z4_reg)
    assert e2.size == 4
    z = zero_module(Z4)
    e3, _ = injective_hull(z)
    assert e3.size == 1


def test_injective_hull_postconditions(z2_plus_z8):
    lat = submodules(z2_plus_z8)
    for node in lat.nodes:
        q, _ = quotient_module(z2_plus_z8, node)
        e, emb = injective_hull(q)
        assert emb.is_injective()
        assert is_essential(emb.image(), e)
        assert is_injective(e)


def test_hull_memo_is_keyed_by_limits(Z4, limits):
    """A hull memoized under the default limits is not returned for
    tighter ones: the hulls of Z2^2, Z4+Z2 and Z4^2 have 16 elements."""
    from modlab.catalog import GenerationPolicy, enumerate_modules
    from modlab.config import Limits
    from modlab.errors import SizeLimitExceeded

    catalog = enumerate_modules(Z4, GenerationPolicy(2, 256), ring_id="Z4")
    hulls = [injective_hull(m)[0] for m in catalog.modules]
    limits(Limits(max_module=8))
    over = []
    for m, hull in zip(catalog.modules, hulls):
        try:
            injective_hull(m)
        except SizeLimitExceeded:
            over.append(m.component_orders)
        else:
            assert hull.size <= 8
    assert sorted(over) == [(2, 2), (2, 4), (4, 4)]


def test_hull_of_direct_sum(z2_over_z4, z4_reg):
    e1, _ = injective_hull(z2_over_z4)
    e2, _ = injective_hull(z4_reg)
    e12, _ = injective_hull(direct_sum(z2_over_z4, z4_reg))
    assert is_isomorphic(e12, direct_sum(e1, e2))


def test_is_injective_examples(z4_reg, z2_over_z4, F3):
    assert is_injective(z4_reg)
    assert not is_injective(z2_over_z4)
    f3 = regular_module(F3)
    assert is_injective(f3)
    assert is_injective(direct_sum(f3, f3))


def test_small_module_examples(Z4, z2_over_z4, z4_reg, s_block):
    assert is_small_module(zero_module(Z4))
    assert is_small_module(z2_over_z4)
    assert not is_small_module(z4_reg)
    assert not is_small_module(s_block)


def test_small_module_iff_inside_hull_radical(z2_plus_z8):
    lat = submodules(z2_plus_z8)
    for node in lat.nodes:
        q, _ = quotient_module(z2_plus_z8, node)
        e, emb = injective_hull(q)
        expected = emb.image().elements <= radical(e).elements
        assert is_small_module(q) == expected


def test_summand_decomposition_with_projections(s_plus_c, z4_reg):
    from modlab.structure import summand_decomposition

    dec = summand_decomposition(span(s_plus_c, [(1, 0)]))
    assert dec is not None
    assert [p.size for p in dec.parts] == [2, 4]
    assert dec.witness is not None and len(dec.witness) == 2
    assert dec.verify()
    assert summand_decomposition(span(z4_reg, [2])) is None


def test_projection_along_is_idempotent(z2_plus_z4):
    from modlab.structure import complement_of, projection_along

    sub = span(z2_plus_z4, [(1, 0)])
    comp = complement_of(sub)
    e = projection_along(sub, comp)
    assert e.then(e).matrix == e.matrix
    assert e.image().elements == sub.elements
    assert e.kernel().elements == comp.elements
