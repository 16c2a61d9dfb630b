"""Relative smallness, coclosure, lifting, the dual-Baer family, and the
annihilator-style endomorphism conditions."""

from array import array

import pytest

from end_presentation import as_ring, end_index, hom_index_from_ring_coords
from scan_oracles import split_pair_scan
from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.cosingular import zbar2
from modlab.errors import NotSubmodule, SizeLimitExceeded
from modlab.lattice import is_small, submodules
from modlab.modules import (
    direct_sum,
    end_ring,
    hom_set,
    regular_module,
    span,
    submodule_as_module,
    table_type,
    zero_module,
)
from modlab.rings import builtin_ring
from modlab.structure import (
    injective_hull,
    is_coclosed,
    is_lifting,
    small_in_quotient,
    summand_keys,
    whole_interval,
)
from modlab.tpredicates import (
    EndoSubset,
    d_set,
    dual_baer_witness,
    end_data,
    fully_invariant_keys,
    has_sssp_in_zbar2,
    is_dual_baer,
    is_minimal_with_joint_complement,
    is_regular,
    is_semisimple,
    is_t_coclosed,
    is_t_dual_baer,
    is_t_lifting,
    is_t_small,
    k_module_class,
    splits_into_summand_and_t_small,
    t_coclosed_keys,
    t_dual_baer_variants,
    t_lifting_variants,
    t_set,
    t_set_is_trivial,
    t_small_in_quotient,
    t_small_keys,
    t_small_variants,
    t_trace,
    zbar2_pullback,
)


def test_t_small_trivial_and_separating(z2_plus_z8, s_plus_c):
    assert is_t_small(z2_plus_z8.zero_submodule(), z2_plus_z8)
    # vanishing square radical makes everything relatively small
    assert is_t_small(z2_plus_z8.full_submodule(), z2_plus_z8)
    # the chain-block summand is relatively small but not small
    a = span(s_plus_c, [(0, 1)])
    assert is_t_small(a, s_plus_c)
    assert not is_small(a)


def test_t_small_variants_agree_on_catalog(z2_plus_z4, z2_plus_z8, s_plus_c):
    for m in (z2_plus_z4, z2_plus_z8, s_plus_c):
        for node in submodules(m).nodes:
            values = t_small_variants(node, m)
            assert len(set(values.values())) == 1, (m, node.key, values)


def test_t_coclosed_examples(s_plus_c, z2_plus_z8):
    assert is_t_coclosed(s_plus_c.zero_submodule(), s_plus_c)
    assert is_t_coclosed(span(s_plus_c, [(1, 0)]), s_plus_c)
    assert not is_t_coclosed(span(s_plus_c, [(0, 2)]), s_plus_c)
    assert not is_t_coclosed(z2_plus_z8.full_submodule(), z2_plus_z8)


def test_t_coclosed_iff_noncosingular_part(s_plus_c):
    from modlab.tpredicates import zbar2_of_node

    for node in submodules(s_plus_c).nodes:
        noncosing = zbar2_of_node(s_plus_c, node) == node.elements
        assert is_t_coclosed(node, s_plus_c) == noncosing


def test_t_lifting_flagship(z2_plus_z4, z2_plus_z8, s_plus_c):
    assert is_t_lifting(z2_plus_z4)
    assert is_t_lifting(z2_plus_z8)
    assert not is_lifting(z2_plus_z8)
    assert is_t_lifting(s_plus_c)


def test_t_lifting_variants_agree(z2_plus_z4, z2_plus_z8, s_plus_c, z4_reg):
    for m in (z2_plus_z4, z2_plus_z8, s_plus_c, z4_reg):
        values = t_lifting_variants(m)
        assert len(set(values.values())) == 1, (m, values)


def test_d_set_t_set_examples(s_plus_c):
    full = d_set(s_plus_c.full_submodule(), s_plus_c)
    assert len(full) == end_ring(s_plus_c).size
    only_zero = d_set(s_plus_c.zero_submodule(), s_plus_c)
    assert len(only_zero) == 1
    t0 = t_set(s_plus_c.zero_submodule(), s_plus_c)
    assert len(t0) == 4
    tc = t_set(span(s_plus_c, [(0, 1)]), s_plus_c)
    assert tc.members == t0.members


def mask(indexes):
    """The endomorphism mask with exactly these indexes' bits set."""
    return sum(1 << i for i in set(indexes))


def set_bits(mask):
    """The indexes of a mask's set bits, read one bit at a time."""
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def table_images(end, codes):
    """Per endomorphism, its image of the code set, read off its code
    table: the whole image for every code, the radical image for the
    square radical's."""
    return [frozenset(map(tab.__getitem__, codes)) for tab in end.tables]


def within(images, target):
    """Mask of the endomorphisms whose image lies in the target code set:
    D(N) from the whole images, T(N) from the radical images.  The
    index-set route the image predicates are checked against."""
    return mask(i for i, img in enumerate(images) if img <= target)


def span_of_images(module, images, indexes):
    """Additive span of the images of the endomorphisms at the given
    indexes: the image sum of an index set."""
    return frozenset(module.workspace().additive_closure(
        c for img in {images[i] for i in indexes} for c in img))


def test_memoized_endo_sets_match_the_image_scan(s_plus_c, z2_plus_z8):
    for m in (s_plus_c, z2_plus_z8):
        end = end_ring(m)
        whole = table_images(end, range(m.size))
        radical = table_images(end, zbar2(m).elements)
        for _ in range(2):  # the second pass reads the memoized End data
            for n, node in enumerate(submodules(m).nodes):
                d_mask = within(whole, node.elements)
                t_mask = within(radical, node.elements)
                assert d_set(node, m).members == set_bits(d_mask)
                assert t_set(node, m).members == set_bits(t_mask)
                # D(N) = {0} exactly when N is over no nonzero image f(M)
                assert (not end_data(m).full_over >> n & 1) == (
                    d_mask == within(whole, {0}))
                assert t_set_is_trivial(node, m) == (t_mask == within(radical, {0}))


def idempotents_by_image_scan(homs):
    """EndRing.idempotents_by_image by a frozenset of each endomorphism's
    table: the first idempotent per image, in canonical order."""
    out = {}
    for h in homs:
        tab = h.table()
        img = frozenset(tab)
        if img not in out and all(tab[y] == y for y in img):
            out[img] = h
    return out


def node_pairs(m, pairs):
    """Pairs of node indices of the module's lattice as pairs of element
    sets."""
    nodes = submodules(m).nodes
    return [(nodes[f].elements, nodes[z].elements) for f, z in pairs]


def assert_images_match_each_hom(m):
    """The End data's distinct (image, radical image) pairs and
    idempotents_by_image against per-endomorphism scans of hom_set, whose
    order is the End ring's."""
    homs = hom_set(m, m)
    radical = zbar2(m).elements
    pairs = [(frozenset(h.table()), h.restrict_codes(radical)) for h in homs]
    assert node_pairs(m, end_data(m).pairs) == list(dict.fromkeys(pairs)), m
    assert list(end_ring(m).idempotents_by_image().items()) == list(
        idempotents_by_image_scan(homs).items()), m


def test_one_pass_image_sets_match_each_hom(s_plus_c, z2_plus_z8, z2_plus_z4, c_block):
    for m in (s_plus_c, z2_plus_z8, z2_plus_z4, c_block):
        assert_images_match_each_hom(m)


def is_right_ideal(subset):
    """Closure under addition and under composition with every
    endomorphism on the inner side, each looked up by its table."""
    end, members = subset.end, subset.members
    tables, add = end.tables, end.module.workspace().add

    def plus(i, j):
        return end_index(end, map(add, tables[i], tables[j]))

    def after(i, j):
        return end_index(end, map(tables[i].__getitem__, tables[j]))

    return (all(plus(i, j) in members for i in members for j in members)
            and all(after(i, j) in members for i in members for j in range(end.size)))


def test_endo_subsets_are_right_ideals(s_plus_c, z2_plus_z4):
    for m in (s_plus_c, z2_plus_z4):
        lat = submodules(m)
        for node in list(lat.nodes)[:4]:
            assert is_right_ideal(d_set(node, m))
            assert is_right_ideal(t_set(node, m))


def test_dual_baer_flagship(z4_reg, F3, s_block):
    assert is_dual_baer(regular_module(F3))
    assert is_dual_baer(z4_reg) is False
    witness = dual_baer_witness(z4_reg)
    members, image_sum = witness
    # the witness ideal is 2*End and its image sum is the radical
    assert sorted(image_sum) == [0, 2]
    assert members is not None and len(members) == 2
    from modlab.modules import direct_sum

    assert is_dual_baer(direct_sum(s_block, s_block))


def test_t_dual_baer_flagship(z4_reg, s_plus_c, Z4):
    assert is_t_dual_baer(z4_reg)
    assert is_t_dual_baer(s_plus_c)
    assert is_t_dual_baer(zero_module(Z4))


def test_t_dual_baer_variants_agree(z4_reg, s_plus_c, z2_plus_z8, z2_plus_z4):
    for m in (z4_reg, s_plus_c, z2_plus_z8, z2_plus_z4):
        values = t_dual_baer_variants(m)
        assert len(set(values.values())) == 1, (m, values)


def additive_pair_closure(module):
    """image_pair_closure by additive closures of unions: the pairwise-join
    closure of the single-endomorphism (image, radical image) pairs, in
    the order it finds them."""
    ws = module.workspace()
    end = end_ring(module)
    closure = dict.fromkeys(zip(table_images(end, range(module.size)),
                                table_images(end, zbar2(module).elements)))
    worklist = list(closure)
    while worklist:
        fu, zu = worklist.pop()
        for fv, zv in list(closure):
            if fu <= fv and zu <= zv:
                continue
            joined = (frozenset(ws.additive_closure(fu | fv)),
                      frozenset(ws.additive_closure(zu | zv)))
            if joined not in closure:
                closure[joined] = None
                worklist.append(joined)
    return list(closure)


def right_ideals(end):
    """(member endo indexes, generator endo indexes) per right ideal of an
    End ring: the submodule lattice of its regular module, read back as
    endomorphisms.  The definitional listing the image-pair closure is
    checked against."""
    ring = as_ring(end)
    to_endo = [hom_index_from_ring_coords(end, ring.decode(c)) for c in range(ring.size)]
    return [(frozenset(to_endo[c] for c in node.elements),
             tuple(to_endo[c] for c in node.generators()))
            for node in submodules(regular_module(ring)).nodes]


RING_IDS = ["Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2"]
# End rings up to this size are small enough to list their right ideals
LISTED_END_MAX = 1024


@pytest.mark.parametrize("rid,gens",
                         [(rid, 2) for rid in RING_IDS] + [("Z4", 3), ("Q", 1), ("Qop", 1)],
                         ids=lambda v: f"gens{v}" if isinstance(v, int) else v)
def test_split_form_by_masks_matches_the_pair_scan(rid, gens, request):
    """T2.11's split form, node by node over every catalog module: the
    mask test against the meet-and-join scan of every (summand, t-small)
    pair under the node.  Every node of the built-in rings' catalogs
    splits; Q's one-generator catalog has nodes that do not."""
    ring = request.getfixturevalue(rid) if rid in ("Q", "Qop") else builtin_ring(rid)
    catalog = enumerate_modules(ring, GenerationPolicy(gens, 256), ring_id=rid)
    seen = set()
    for m in catalog.modules:
        iv = whole_interval(m)
        splits = splits_into_summand_and_t_small(iv)
        got = [splits(i) for i in range(len(iv.lattice))]
        assert got == [split_pair_scan(iv, i) for i in range(len(iv.lattice))], m
        assert t_lifting_variants(m)["split_into_summand_and_t_small"] is all(got), m
        seen.update(got)
    assert seen == ({True, False} if rid == "Q" else {True})


@pytest.mark.parametrize("rid,gens", [(rid, 2) for rid in RING_IDS] + [("Z4", 3)],
                         ids=lambda v: f"gens{v}" if isinstance(v, int) else v)
def test_shared_images_match_each_hom_catalog_wide(rid, gens):
    """Every catalog module whose End ring is within the default limits."""
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(gens, 256), ring_id=rid)
    checked = 0
    for m in catalog.modules:
        try:
            end_ring(m)
        except SizeLimitExceeded:
            continue
        assert_images_match_each_hom(m)
        checked += 1
    assert checked


@pytest.mark.parametrize("rid", RING_IDS)
def test_fully_invariant_keys_match_a_scan_over_every_endomorphism(rid):
    """Over every catalog module whose End ring is within the default
    limits: the nodes stable under the additive basis are exactly the
    nodes that every endomorphism's table maps into themselves."""
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
    checked = 0
    for m in catalog.modules:
        try:
            tables = end_ring(m).tables
        except SizeLimitExceeded:
            continue
        stable = frozenset(
            node.key for node in submodules(m).nodes
            if all(tab[x] in node.elements for tab in tables for x in node.elements))
        assert fully_invariant_keys(m) == stable, m
        checked += 1
    assert checked


@pytest.mark.parametrize("rid", RING_IDS)
def test_end_ring_tables_and_masks_match_single_element_scans(rid):
    """Over every catalog module whose End ring is within the default
    limits: each End-ring table is packed (bytes up to 256 elements, an
    array above) and holds the single-element images, and at every node
    N the image predicates agree with the D- and T-set masks scanned off
    those tables: D(N) = {0}, T(N) = T(0), and the trace as the span of
    the radical images over T(N)."""
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
    checked = 0
    for m in catalog.modules:
        try:
            end = end_ring(m)
        except SizeLimitExceeded:
            continue
        pack = table_type(m.size)
        packed_type = bytes if m.size <= 256 else array
        for h in map(end.hom, range(end.size)):
            assert type(h.table()) is packed_type
            assert h.table() == pack([h.apply(c) for c in range(m.size)]), (m, h.matrix)
        whole = table_images(end, range(m.size))
        radical = table_images(end, zbar2(m).elements)
        zero_d = within(whole, {0})
        t0 = within(radical, {0})
        for n, node in enumerate(submodules(m).nodes):
            t_mask = within(radical, node.elements)
            assert (not end_data(m).full_over >> n & 1) == (
                within(whole, node.elements) == zero_d), (m, node.key)
            assert t_set_is_trivial(node, m) == (t_mask == t0), (m, node.key)
            assert t_trace(m, node) == span_of_images(
                m, radical, set_bits(t_mask)), (m, node.key)
        checked += 1
    assert checked


@pytest.mark.parametrize("rid,gens", [(rid, 2) for rid in RING_IDS] + [("Z4", 3)],
                         ids=lambda v: f"gens{v}" if isinstance(v, int) else v)
def test_closure_route_matches_the_right_ideal_listing(rid, gens):
    """Over every catalog module whose End ring has at most LISTED_END_MAX
    elements:
    the (image sum, radical image sum) pairs of all right ideals are the
    pairs of the closure, the dual-Baer verdicts are the definitional ones,
    and a failing witness is a right ideal with the reported image sum."""
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(gens, 256), ring_id=rid)
    checked = 0
    for m in catalog.modules:
        try:
            data = end_data(m)
        except SizeLimitExceeded:
            continue
        end = end_ring(m)
        if end.size > LISTED_END_MAX:
            continue
        ideals = right_ideals(end)
        whole = table_images(end, range(m.size))
        radical = table_images(end, zbar2(m).elements)
        pairs = {(span_of_images(m, whole, g), span_of_images(m, radical, g))
                 for _, g in ideals}
        assert pairs == set(node_pairs(m, data.image_pair_closure())), m
        summands = summand_keys(m)
        dual_baer = all(full in summands for full, _ in pairs)
        t_dual_baer = all(z in summands for _, z in pairs)
        assert is_dual_baer(m) is dual_baer, m
        assert is_t_dual_baer(m) is t_dual_baer, m
        if not dual_baer:
            members, image_sum = dual_baer_witness(m)
            assert is_right_ideal(EndoSubset(end, members, "d_set")), m
            assert members in {ideal for ideal, _ in ideals}, m
            assert span_of_images(m, whole, members) == image_sum, m
            assert image_sum not in summands, m
        checked += 1
    assert checked


@pytest.mark.parametrize("rid", RING_IDS)
def test_pair_closure_by_node_index_matches_additive_closure(rid):
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
    large = 0
    for m in catalog.modules:
        large += end_ring(m).size > LISTED_END_MAX
        assert node_pairs(m, end_data(m).image_pair_closure()) == additive_pair_closure(m), m
    if rid in ("Z8", "F2xZ4", "T2F2"):
        assert large


def minimal_with_joint_complement_scan(sub, module):
    """The definition read literally: some S has Zbar2(M) <= C + S and no
    proper subnode X of C has Zbar2(M) <= X + S."""
    lat = submodules(module)
    z = zbar2(module).elements
    ci = lat.node_index(sub)
    for j in range(len(lat.nodes)):
        if not z <= lat.nodes[lat.join(ci, j)].elements:
            continue
        if not any(z <= lat.nodes[lat.join(xi, j)].elements
                   for xi in lat.subnode_indices(ci) if xi != ci):
            return True
    return False


@pytest.mark.parametrize("rid", RING_IDS)
def test_minimal_joint_complement_matches_the_subnode_scan(rid):
    """Testing the covered nodes of C gives the verdict of testing every
    proper subnode, at every node of every catalog module."""
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
    for m in catalog.modules:
        for node in submodules(m).nodes:
            assert (is_minimal_with_joint_complement(node, m)
                    == minimal_with_joint_complement_scan(node, m)), (m, node.key)


def t_small_loop(sub, module):
    """Relative smallness read literally: no node B misses the square
    radical while A + B holds it."""
    lat = submodules(module)
    z = zbar2(module).elements
    ai = lat.node_index(sub)
    for j, b in enumerate(lat.nodes):
        if z <= b.elements:
            continue
        if z <= lat.nodes[lat.join(ai, j)].elements:
            return False
    return True


def t_small_in_quotient_loop(a, n, module):
    """Relative smallness of A/N in M/N read literally: no node B >= N
    misses the pullback of the quotient's square radical while A + B
    holds it."""
    lat = submodules(module)
    z = zbar2_pullback(module, n)
    ai = lat.node_index(a)
    for j, b in enumerate(lat.nodes):
        if not n.elements <= b.elements:
            continue
        if z <= b.elements:
            continue
        if z <= lat.nodes[lat.join(ai, j)].elements:
            return False
    return True


def t_coclosed_loop(sub, module):
    """No proper subnode N of C leaves C/N relatively small in M/N."""
    lat = submodules(module)
    i = lat.node_index(sub)
    return not any(t_small_in_quotient_loop(sub, lat.nodes[j], module)
                   for j in lat.subnode_indices(i) if j != i)


def t_lifting_loop(module):
    """Every node A holds a summand N with A/N relatively small in M/N."""
    lat = submodules(module)
    summands = summand_keys(module)
    for i, a in enumerate(lat.nodes):
        found = False
        for j in lat.subnode_indices(i):
            n = lat.nodes[j]
            if n.key not in summands:
                continue
            if t_small_in_quotient_loop(a, n, module):
                found = True
                break
        if not found:
            return False
    return True


@pytest.mark.parametrize("rid", RING_IDS)
def test_shared_scan_matches_the_t_small_loops(rid):
    """The one smallness scan at Z = Zbar2(M), and at Z the pullback of
    Zbar2(M/N), against the relative loops on every node and every pair
    N <= A of every two-generator catalog module."""
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
    for m in catalog.modules:
        lat = submodules(m)
        for i, a in enumerate(lat.nodes):
            assert is_t_small(a, m) == t_small_loop(a, m), (m, a.key)
            for j in lat.subnode_indices(i):
                n = lat.nodes[j]
                assert (t_small_in_quotient(a, n, m)
                        == t_small_in_quotient_loop(a, n, m)), (m, a.key, n.key)


def test_quotient_smallness_needs_n_inside_a(z2_plus_z4):
    """Both radical routes rest on N <= A (the t-route's modular law
    too), so a pair with N outside A is refused, not answered."""
    n = span(z2_plus_z4, [(1, 0)])
    a = span(z2_plus_z4, [(0, 1)])
    for small in (small_in_quotient, t_small_in_quotient):
        with pytest.raises(NotSubmodule):
            small(a, n, z2_plus_z4)


@pytest.mark.parametrize("rid", RING_IDS)
def test_shared_loops_match_the_t_coclosed_and_t_lifting_loops(rid):
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
    for m in catalog.modules:
        for node in submodules(m).nodes:
            assert is_t_coclosed(node, m) == t_coclosed_loop(node, m), (m, node.key)
        assert is_t_lifting(m) == t_lifting_loop(m), m


def test_t_small_keys_match_the_definitional_scan(Q, Qop):
    """t_small_keys, by the radical route, against the scan is_t_small on
    every node of every two-generator catalog module of the built-in rings
    and every one-generator catalog module of Q and Qop."""
    catalogs = [enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
                for rid in RING_IDS] + [
        enumerate_modules(ring, GenerationPolicy(1, 256), ring_id=rid)
        for rid, ring in (("Q", Q), ("Qop", Qop))]
    for catalog in catalogs:
        for m in catalog.modules:
            scan = frozenset(s.key for s in submodules(m).nodes if is_t_small(s, m))
            assert t_small_keys(m) == scan, (catalog.ring_id, m.component_orders)


def test_lifting_checks_fail_on_a_hull_plus_its_module(Q):
    """A module that is neither lifting nor t-lifting: over Q, with
    N = e1 Q, M = E(N) + N has 32 elements.  A lifting loop that skipped
    its direct-summand test would call M t-lifting."""
    reg = regular_module(Q)
    n = submodule_as_module(span(reg, [(1, 0, 0, 0, 0)])).module
    hull, _ = injective_hull(n)
    m = direct_sum(hull, n)
    assert m.size == 32
    assert is_t_lifting(m) == t_lifting_loop(m) is False
    assert is_lifting(m) is False


def test_sum_over_ideal_members_matches_generators(z2_plus_z4):
    end = end_ring(z2_plus_z4)
    for codes in (range(z2_plus_z4.size), zbar2(z2_plus_z4).elements):
        images = table_images(end, codes)
        for members, gens in right_ideals(end):
            assert (span_of_images(z2_plus_z4, images, members)
                    == span_of_images(z2_plus_z4, images, gens))


def test_sssp_regular_semisimple(z4_reg, s_plus_c, F3):
    assert has_sssp_in_zbar2(s_plus_c)
    assert not is_regular(z4_reg)
    f3 = regular_module(F3)
    assert is_regular(f3)
    assert is_semisimple(f3)
    assert not is_semisimple(z4_reg)


def test_k_module_classes(z2_plus_z8, s_plus_c, s_block):
    kc = k_module_class(z2_plus_z8)
    assert kc["t_k"] is True
    assert kc["strongly_t_k"] is False
    kc2 = k_module_class(s_plus_c)
    assert kc2["t_k"] is True
    kc3 = k_module_class(s_block)
    assert kc3 == {"k": True, "t_k": True, "strongly_t_k": True}


def test_t_trace_recovers_t_coclosed(s_plus_c):
    lat = submodules(s_plus_c)
    for key in t_coclosed_keys(s_plus_c):
        node = lat.nodes[lat.index[key]]
        assert t_trace(s_plus_c, node) == node.elements


def test_fully_invariant_keys(s_plus_c, z2_plus_z4):
    from modlab.cosingular import zbar, zbar2
    from modlab.lattice import radical, socle

    for m in (s_plus_c, z2_plus_z4):
        invariant = fully_invariant_keys(m)
        for sub in (radical(m), socle(m), zbar(m), zbar2(m)):
            assert sub.key in invariant
    # over the chain ring both blocks map into each other, so the small
    # block summand is not invariant
    assert span(z2_plus_z4, [(1, 0)]).key not in fully_invariant_keys(z2_plus_z4)
    # over the product ring the blocks are orthogonal: everything is
    assert len(fully_invariant_keys(s_plus_c)) == len(submodules(s_plus_c).nodes)


def test_unevaluated_on_end_limit(z2_plus_z4, limits):
    """Over ``max_end`` the End-ring predicates raise; the profile is the
    one place that records the refusal, as null."""
    from modlab.config import Limits
    from modlab.reports import profile_module

    limits(Limits(max_end=8))
    for predicate in (is_dual_baer, is_t_dual_baer, k_module_class):
        with pytest.raises(SizeLimitExceeded):
            predicate(z2_plus_z4)
    rep = profile_module(z2_plus_z4)
    assert rep.end_size is None
    refused = ("dual_baer", "t_dual_baer", "k", "t_k", "strongly_t_k")
    assert [rep.to_json()["predicates"][k] for k in refused] == [None] * 5
    # the predicates a limit does not refuse are still evaluated
    assert rep.predicates["amply_supplemented"] is True


def test_lifting_implies_t_lifting_on_examples(z2_plus_z4, s_plus_c, z4_reg):
    for m in (z2_plus_z4, s_plus_c, z4_reg):
        if is_lifting(m):
            assert is_t_lifting(m)


def test_noncosingular_t_small_equals_small(s_block, F3):
    from modlab.cosingular import zbar
    from modlab.modules import direct_sum

    for m in (direct_sum(s_block, s_block), regular_module(F3)):
        assert zbar(m).is_full()
        for node in submodules(m).nodes:
            assert is_t_small(node, m) == is_small(node)
            assert is_t_coclosed(node, m) == is_coclosed(node, m)

def test_endo_subset_kinds(s_plus_c):
    assert d_set(s_plus_c.zero_submodule(), s_plus_c).kind == "d_set"
    assert t_set(s_plus_c.zero_submodule(), s_plus_c).kind == "t_set"


@pytest.mark.parametrize("predicate", [t_small_keys, is_t_lifting],
                         ids=lambda f: f.__name__)
def test_relative_memos_are_keyed_by_limits(z2_plus_z4, predicate, limits):
    """Under max_module=4 the lattice of Z2 + Z4 (8 elements) is over the
    limit, so a value memoized under the default limits must not
    answer."""
    from modlab.config import Limits

    predicate(z2_plus_z4)
    limits(Limits(max_module=4))
    with pytest.raises(SizeLimitExceeded):
        predicate(z2_plus_z4)
