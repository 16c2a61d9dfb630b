"""Core module arithmetic, with brute-force oracles computed
independently of the code paths they check."""

import gc
from array import array
import itertools
import random
import types
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from end_presentation import as_ring, end_index, hom_coords, hom_tables_by_rows
from modlab import config, memo, modules
from modlab.errors import NotSubmodule, RingMismatch, SizeLimitExceeded
from modlab.modules import (
    FiniteModule,
    ModuleHom,
    additive_group,
    direct_sum,
    direct_sum_with_maps,
    end_ring,
    end_ring_size,
    find_isomorphism,
    hom_group,
    hom_set,
    hom_tables,
    identity_hom,
    image_table,
    is_isomorphic,
    kernel_image,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
    table_type,
    zero_module,
)
from modlab.rings import builtin_ring


def zero_hom(source, target):
    return ModuleHom(source, target,
                     [[0] * len(target.component_orders) for _ in source.component_orders],
                     validate=False)


# -- oracles -------------------------------------------------------------------


def closure_oracle(module, gens):
    """Fixpoint closure under pairwise addition and all basis actions,
    written without the span machinery."""
    ws = module.workspace()
    current = {0} | set(gens)
    while True:
        nxt = set(current)
        for a in current:
            for b in current:
                nxt.add(ws.add(a, b))
            for tab in ws.basis_action():
                nxt.add(tab[a])
        if nxt == current:
            return current
        current = nxt


def brute_hom_list(source, target):
    """The sorted matrices of all maps, by filtering every matrix candidate
    entrywise (only for very small search spaces)."""
    from math import gcd

    src = source.component_orders
    tgt = target.component_orders
    choices = []
    for m in src:
        for n in tgt:
            g = gcd(m, n)
            choices.append([(n // g) * i for i in range(g)])
    found = []
    for flat in itertools.product(*choices):
        rows = []
        it = iter(flat)
        for _ in src:
            rows.append([next(it) for _ in tgt])
        try:
            found.append(ModuleHom(source, target, rows).matrix)
        except NotSubmodule:
            continue
    return sorted(found)


def matrix_sorted_homs(source, target):
    """Hom(source, target) by enumerating matrices: every sum of multiples
    of the hom_group representatives as a flat tuple of reduced entries,
    sorted (rows have equal length, so flat order is matrix order), each
    built by the checked constructor."""
    orders, reps = hom_group(source, target)
    col_orders = target.component_orders * len(source.component_orders)
    flats = [(0,) * len(col_orders)]
    for o, rep in zip(orders, reps):
        step = [x for row in rep for x in row]
        block = flats
        flats = list(block)
        for _ in range(1, o):
            block = [tuple((x + y) % n for x, y, n in zip(f, step, col_orders))
                     for f in block]
            flats.extend(block)
    t = len(target.component_orders)
    cuts = [slice(j * t, (j + 1) * t) for j in range(len(source.component_orders))]
    return [ModuleHom(source, target, [f[cut] for cut in cuts]) for f in sorted(flats)]


def assert_homs_match_the_oracle(homs, source, target):
    """The homs are the oracle's, in its order, each with the table of its
    own matrix."""
    want = matrix_sorted_homs(source, target)
    assert [h.matrix for h in homs] == [w.matrix for w in want], (source, target)
    for h, w in zip(homs, want):
        assert h == w and h.table() == w.table(), (source, target, h.matrix)


RING_IDS = ["Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2"]


def catalog_modules(rid):
    from modlab.catalog import GenerationPolicy, enumerate_modules

    return enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid).modules


def rebuilt(m, order):
    """A separately built copy of m with its components taken in the given
    order: the same presentation for the identity order."""
    action = [[[a[j][l] for l in order] for j in order] for a in m.action]
    return FiniteModule(m.ring, [m.component_orders[j] for j in order], action)


def signature_by_definition(m):
    """iso_signature's profile, with the annihilator of x counted over
    every ring element and the additive order found by repeated addition."""
    ws = m.workspace()
    profile = []
    for x in m.elements():
        order, y = 1, x
        while y:
            y, order = ws.add(y, x), order + 1
        ann = sum(1 for r in m.ring.element_coords() if ws.act(x, r) == 0)
        profile.append((order, ann, len(ws.cyclic_span(x))))
    return tuple(sorted(profile))


# -- constructions -------------------------------------------------------------


def test_regular_module_action_is_right_multiplication(Z4, z4_reg):
    ws = z4_reg.workspace()
    for x in range(4):
        for r in range(4):
            assert ws.act(x, (r,)) == (x * r) % 4


def test_regular_module_of_field_is_simple(F3):
    reg = regular_module(F3)
    from modlab.lattice import submodules

    assert len(submodules(reg).nodes) == 2


def test_direct_sum_size_and_maps(z2_over_z4, z4_reg):
    total, injections, projections = direct_sum_with_maps(z2_over_z4, z4_reg)
    assert total.size == 8
    for inj, proj, part in zip(injections, projections, (z2_over_z4, z4_reg)):
        assert inj.then(proj).matrix == identity_hom(part).matrix
        assert inj.is_injective()
        assert proj.is_surjective()


def test_direct_sum_with_zero_is_isomorphic(z4_reg, Z4):
    total = direct_sum(z4_reg, zero_module(Z4))
    assert is_isomorphic(total, z4_reg)


def test_direct_sum_ring_mismatch(Z4, F3):
    with pytest.raises(RingMismatch):
        direct_sum(regular_module(Z4), regular_module(F3))


def test_span_examples(z4_reg, z2_plus_z4):
    assert span(z4_reg, []).size == 1
    assert sorted(span(z4_reg, [2]).elements) == [0, 2]
    # closure oracle for a generator in the mixed module
    gen = z2_plus_z4.encode((1, 2))
    assert span(z2_plus_z4, [gen]).elements == frozenset(
        closure_oracle(z2_plus_z4, [gen])
    )
    assert span(z2_plus_z4, [gen]).size == 2


def test_span_matches_closure_oracle_everywhere(s_plus_c):
    for code in range(s_plus_c.size):
        assert span(s_plus_c, [code]).elements == frozenset(
            closure_oracle(s_plus_c, [code])
        )


def orbit_span(module, gens):
    """The span as closure of the generators under the ring basis actions,
    then the additive closure of that orbit."""
    ws = module.workspace()
    orbit, stack = set(), list(gens)
    while stack:
        x = stack.pop()
        if x not in orbit:
            orbit.add(x)
            stack.extend(tab[x] for tab in ws.basis_action())
    return ws.additive_closure(orbit), sorted(orbit)


def catalog_and_square(rid):
    reg = regular_module(builtin_ring(rid))
    return list(catalog_modules(rid)) + [direct_sum(reg, reg)]


@pytest.mark.parametrize("rid", RING_IDS)
def test_span_of_generator_images_matches_the_orbit_span(rid):
    rng = random.Random(rid)
    for m in catalog_and_square(rid):
        ws = m.workspace()
        for _ in range(12):
            gens = rng.sample(range(m.size), min(m.size, rng.randint(1, 3)))
            assert ws.span(gens) == orbit_span(m, gens)[0], (m, gens)


@pytest.mark.parametrize("rid", RING_IDS)
def test_generator_images_and_orbit_generate_the_same_subgroup(rid):
    """The seed rows of quotients and submodule presentations generate each
    node, as the action orbit of its generators does."""
    from modlab.intlinalg import subgroup_decomposition
    from modlab.lattice import submodules

    for m in catalog_and_square(rid):
        ws = m.workspace()
        for node in submodules(m).nodes:
            seeds = ws.generator_images(node.generators())
            closed, orbit = orbit_span(m, node.generators())
            assert ws.additive_closure(seeds) == closed == node.elements
            rows = [[list(ws.coords[c]) for c in codes] for codes in (seeds, orbit)]
            orders = [subgroup_decomposition(m.component_orders, r)[0] for r in rows]
            assert orders[0] == orders[1]


def test_quotient_by_zero_and_full(z2_plus_z4):
    q, proj = quotient_module(z2_plus_z4, z2_plus_z4.zero_submodule())
    assert is_isomorphic(q, z2_plus_z4)
    q, proj = quotient_module(z2_plus_z4, z2_plus_z4.full_submodule())
    assert q.size == 1


def test_quotient_coset_oracle(z2_plus_z8):
    # (Z2 + Z8) / (0 + 2Z8) should be Z2 + Z2 of size 4
    sub = span(z2_plus_z8, [(0, 2)])
    q, proj = quotient_module(z2_plus_z8, sub)
    assert q.size == 4
    assert sorted(q.component_orders) == [2, 2]
    # coset table oracle: distinct cosets = image classes
    ws = z2_plus_z8.workspace()
    cosets = {frozenset(ws.add(x, s) for s in sub.elements) for x in z2_plus_z8.elements()}
    assert len(cosets) == 4
    assert proj.is_surjective()
    assert proj.kernel().elements == sub.elements


def test_quotient_projection_kernel(z2_plus_z4):
    sub = span(z2_plus_z4, [(0, 2)])
    q, proj = quotient_module(z2_plus_z4, sub)
    assert proj.kernel().elements == sub.elements
    assert q.size * sub.size == z2_plus_z4.size


def test_hom_set_counts(Z4, z4_reg, z2_over_z4, s_block, c_block):
    assert len(hom_set(z2_over_z4, z4_reg)) == 2
    assert len(hom_set(s_block, c_block)) == 1
    assert len(hom_set(z4_reg, zero_module(Z4))) == 1


def test_hom_counts_match_bruteforce(z4_reg, z2_over_z4, z2_plus_z4, s_block, c_block,
                                    s_plus_c, T2F2):
    t2_reg = regular_module(T2F2)
    t2_simple = submodule_as_module(span(t2_reg, [t2_reg.encode((0, 1, 0))])).module
    t2_column = submodule_as_module(span(t2_reg, [t2_reg.encode((1, 0, 0))])).module
    pairs = [
        (z2_over_z4, z4_reg),
        (z4_reg, z2_over_z4),
        (z2_plus_z4, z2_plus_z4),
        (z4_reg, z2_plus_z4),
        (s_block, c_block),
        (c_block, s_block),
        (s_plus_c, s_plus_c),
        (t2_reg, t2_reg),
        (t2_simple, t2_reg),
        (t2_reg, t2_simple),
        (t2_column, t2_reg),
    ]
    for src, tgt in pairs:
        homs = hom_set(src, tgt)
        assert [h.matrix for h in homs] == brute_hom_list(src, tgt)
        assert prod(hom_group(src, tgt)[0]) == len(homs)


def test_hom_product_formula(z4_reg, z2_over_z4, z2_plus_z4):
    pairs = [(z4_reg, z2_over_z4), (z2_over_z4, z4_reg), (z2_plus_z4, z4_reg)]
    for m, n1 in pairs:
        for n2 in (z4_reg, z2_over_z4):
            total = direct_sum(n1, n2)
            assert len(hom_set(m, total)) == len(hom_set(m, n1)) * len(hom_set(m, n2))


def test_end_ring_counts(z4_reg, z2_plus_z4, Z4):
    assert end_ring(z4_reg).size == 4
    assert end_ring(z2_plus_z4).size == 32
    assert end_ring(zero_module(Z4)).size == 1


def test_end_ring_as_ring_valid(z2_plus_z4):
    ends = end_ring(z2_plus_z4)
    ring = as_ring(ends)
    assert ring.size == 32
    # composition agrees with the structure constants through coordinates
    for i in (0, 1, 5):
        for j in (0, 2, 7):
            left = hom_coords(ends, ends.hom(j).then(ends.hom(i)))
            fi = hom_coords(ends, ends.hom(i))
            fj = hom_coords(ends, ends.hom(j))
            assert left == ring.mul_coords(fi, fj)


# End rings up to this size have all their (i, j) pairs checked
LOOKUP_END_MAX = 64


@pytest.mark.parametrize("rid", RING_IDS)
def test_end_ring_lookups_match_a_linear_scan(rid):
    """For every End ring of at most LOOKUP_END_MAX elements in the
    two-generator catalog, the tables are hom_set's, and the tables of
    identity_hom, zero_hom and of the composite and sum of every two
    endomorphisms, looked up among them, sit at the linear-scan position
    of the matrix that then and add give: the tables hold a ring."""
    checked = 0
    for m in catalog_modules(rid):
        try:
            end = end_ring(m)
        except SizeLimitExceeded:
            continue
        if end.size > LOOKUP_END_MAX:
            continue
        homs = hom_set(m, m)
        assert [h.table() for h in homs] == end.tables
        position = [h.matrix for h in homs].index
        add = m.workspace().add
        assert end_index(end, identity_hom(m).table()) == position(identity_hom(m).matrix)
        assert end_index(end, zero_hom(m, m).table()) == position(zero_hom(m, m).matrix)
        for f in homs:
            for g in homs:
                after = end_index(end, map(f.table().__getitem__, g.table()))
                assert after == position(g.then(f).matrix), (m, f, g)
                plus = end_index(end, map(add, f.table(), g.table()))
                assert plus == position(f.add(g).matrix), (m, f, g)
        checked += 1
    assert checked


@pytest.mark.parametrize("rid", RING_IDS)
def test_ring_codec_matches_its_regular_module_and_group(rid):
    """A ring and its regular module share one mixed-radix codec, and both
    agree with the additive group's decode table on every code."""
    ring = builtin_ring(rid)
    reg = regular_module(ring)
    coords = additive_group(ring.component_orders).coords
    for code in range(ring.size):
        c = ring.decode(code)
        assert c == reg.decode(code) == coords[code]
        assert ring.encode(c) == reg.encode(c) == code
        # encode reduces each coordinate first
        assert ring.encode([x + d for x, d in zip(c, ring.component_orders)]) == code


@pytest.mark.parametrize("rid", RING_IDS)
def test_end_tables_built_by_additivity_match_image_table(rid):
    """hom_set sums the tables of its enumeration; each must equal the
    table built from the hom's own matrix."""
    for m in catalog_modules(rid):
        for h in hom_set(m, m):
            assert h._table == image_table(m, m, h.matrix), (rid, m, h.matrix)


@pytest.mark.parametrize("rid", RING_IDS)
def test_hom_set_matrices_are_reduced_homs(rid):
    """hom_set and the End ring build their homs unchecked from tables
    sorted by the matrix read off each table.  Over every pair of
    two-generator catalog members (the size-1 module among them) within
    max_end, they must be matrix_sorted_homs' checked homs, so reduced
    homs, in its order and with equal tables."""
    mods = catalog_modules(rid)
    assert min(m.size for m in mods) == 1
    max_end = config.LIMITS.max_end
    for src in mods:
        for tgt in mods:
            assert prod(hom_group(src, tgt)[0]) <= max_end
            assert_homs_match_the_oracle(hom_set(src, tgt), src, tgt)
        end = end_ring(src)
        assert_homs_match_the_oracle([end.hom(i) for i in range(end.size)], src, src)


def test_end_ring_homs_match_the_oracle_at_three_generators():
    """Every End ring within max_end of Z4's three-generator catalog lists
    matrix_sorted_homs' endomorphisms, in its order and with equal
    tables."""
    from modlab.catalog import GenerationPolicy, enumerate_modules

    checked = 0
    for m in enumerate_modules(builtin_ring("Z4"), GenerationPolicy(3, 256),
                               ring_id="Z4").modules:
        try:
            end = end_ring(m)
        except SizeLimitExceeded:
            continue
        assert_homs_match_the_oracle([end.hom(i) for i in range(end.size)], m, m)
        checked += 1
    assert checked == 9


@pytest.mark.parametrize("rid,gens", [(rid, 2) for rid in RING_IDS] + [("Z4", 3)],
                         ids=lambda v: f"gens{v}" if isinstance(v, int) else v)
def test_hom_tables_by_columns_match_the_row_oracle(rid, gens):
    """hom_tables builds End(M) column by column; the row-wise additivity
    loop lists the same tables, in the same order and packed type, for
    every catalog module whose End ring is within max_end."""
    from modlab.catalog import GenerationPolicy, enumerate_modules

    checked = 0
    for m in enumerate_modules(builtin_ring(rid), GenerationPolicy(gens, 256),
                               ring_id=rid).modules:
        try:
            end_ring_size(m)
        except SizeLimitExceeded:
            continue
        got, want = hom_tables(m, m), hom_tables_by_rows(m, m)
        assert got == want and {type(t) for t in got} == {type(t) for t in want}, m
        checked += 1
    assert checked


def test_hom_tables_into_a_target_over_256_elements_match_the_row_oracle(
        z2_over_z4, z4_reg, z2_plus_z4):
    """Into Z4^5 (1024 elements) the tables are arrays, shifted by the
    additive group's translate rather than bytes.translate."""
    big = direct_sum(*[z4_reg] * 5)
    for src in (z2_over_z4, z4_reg, z2_plus_z4, zero_module(z4_reg.ring)):
        got, want = hom_tables(src, big), hom_tables_by_rows(src, big)
        assert got == want and all(type(t) is array for t in got), src
        assert len(got) == prod(hom_group(src, big)[0])
    assert hom_tables(big, z2_over_z4) == hom_tables_by_rows(big, z2_over_z4)


def live_homs() -> list[ModuleHom]:
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is ModuleHom]


def reachable(root) -> list:
    """Every object reachable from root by gc.get_referents, not entering
    types, functions or modules (a function's globals reach the memos)."""
    skip = (type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType)
    seen, stack, out = {id(root)}, [root], []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)
                out.append(ref)
    return out


def test_end_ring_holds_no_hom_per_endomorphism(z2_over_z4, z4_reg):
    """End(Z2 + Z4 + Z4) has 8,192 endomorphisms, kept as code tables:
    the only ModuleHom objects reachable from the End ring are its cached
    idempotents, and building it leaves no more new ModuleHom objects
    alive than those."""
    m = direct_sum(z2_over_z4, z4_reg, z4_reg)
    memo.clear()
    before = len(live_homs())
    end = end_ring(m)
    idempotents = end.idempotents_by_image()
    assert end.size == 8192 and idempotents
    grown = len(live_homs()) - before
    assert grown <= len(idempotents)
    held = [o for o in reachable(end) if type(o) is ModuleHom]
    assert {id(h) for h in held} == {id(h) for h in idempotents.values()}


def test_end_ring_limit(z2_plus_z4, limits):
    from modlab.config import Limits

    limits(Limits(max_end=8))
    with pytest.raises(SizeLimitExceeded):
        end_ring(z2_plus_z4)


def test_regular_module_memo_is_keyed_by_limits(Z4, limits):
    from modlab.config import Limits

    regular_module(Z4)
    limits(Limits(max_module=2))
    with pytest.raises(SizeLimitExceeded):
        regular_module(Z4)


def test_memoized_constructions_serve_every_name():
    """Two separately built equal rings have one key, and so do their
    modules: every memoized construction returns one object for both."""
    from modlab.cosingular import zbar, zbar2
    from modlab.lattice import radical, socle, submodules
    from modlab.rings import cyclic_ring, upper_triangular_ring
    from modlab.structure import character_dual

    for make, arg in ((cyclic_ring, 4), (upper_triangular_ring, 2)):
        results = []
        rings = (make(arg), make(arg))
        assert rings[0] is not rings[1]
        for ring in rings:
            reg = regular_module(ring)
            sub = span(reg, sorted(radical(reg).elements)[1:2])  # one element of J
            results.append((reg, quotient_module(reg, sub), submodule_as_module(sub),
                            character_dual(reg), radical(reg), socle(reg), zbar(reg),
                            zbar2(reg), submodules(reg)))
        for a, b in zip(*results):
            assert a is b, (make.__name__, a)


def test_kernel_image_examples(z4_reg):
    ident = identity_hom(z4_reg)
    k, i = kernel_image(ident)
    assert k.size == 1 and i.size == 4
    zero = zero_hom(z4_reg, z4_reg)
    k, i = kernel_image(zero)
    assert k.size == 4 and i.size == 1
    doubling = ModuleHom(z4_reg, z4_reg, [[2]])
    k, i = kernel_image(doubling)
    # elementwise evaluation oracle
    assert k.elements == frozenset(x for x in range(4) if (2 * x) % 4 == 0)
    assert i.elements == frozenset((2 * x) % 4 for x in range(4))
    assert k.size * i.size == z4_reg.size


def test_kernel_image_composition_containments(z2_plus_z4):
    homs = hom_set(z2_plus_z4, z2_plus_z4)
    import random

    rng = random.Random(3)
    for _ in range(40):
        f = rng.choice(homs)
        g = rng.choice(homs)
        comp = f.then(g)
        assert f.kernel().elements <= comp.kernel().elements
        assert comp.image().elements <= g.image().elements


def test_is_isomorphic_basic(z4_reg, z2_over_z4):
    assert is_isomorphic(z4_reg, z4_reg)
    two_by_two = direct_sum(z2_over_z4, z2_over_z4)
    assert not is_isomorphic(two_by_two, z4_reg)


def test_isomorphism_does_not_read_the_presentation_orders(Z6):
    """Over Z6, R/3R + R/2R has component orders (2, 3) and R_R has (6,):
    the modules are isomorphic, and they share the catalog's bucket, their
    iso_signature."""
    reg = regular_module(Z6)
    by_three, _ = quotient_module(reg, span(reg, [3]))
    by_two, _ = quotient_module(reg, span(reg, [2]))
    split = direct_sum(by_three, by_two)
    assert sorted(split.component_orders) == [2, 3]
    assert is_isomorphic(split, reg) and is_isomorphic(reg, split)
    assert modules.iso_signature(split) == modules.iso_signature(reg)


@pytest.mark.parametrize("rid", RING_IDS)
def test_iso_signature_matches_the_definitional_count(rid):
    for m in catalog_modules(rid):
        assert modules.iso_signature(m) == signature_by_definition(m)


@pytest.mark.parametrize("rid", RING_IDS)
def test_find_isomorphism_of_equal_presentations_is_bijective(rid):
    for m in catalog_modules(rid):
        copy = rebuilt(m, range(len(m.component_orders)))
        assert copy == m and copy is not m
        for n in (m, copy):
            iso = find_isomorphism(m, n)
            assert iso.source is m and iso.target is n
            assert iso.is_bijective()
            # a checked hom with the same matrix: the map is module-linear
            ModuleHom(m, n, iso.matrix)


@pytest.mark.parametrize("rid", RING_IDS)
def test_is_isomorphic_separates_catalog_members(rid):
    """Distinct catalog members are never isomorphic; every member is
    isomorphic to a copy built again, in the same presentation and with
    its components reversed."""
    mods = catalog_modules(rid)
    for a, b in itertools.combinations(mods, 2):
        assert not is_isomorphic(a, b)
    for m in mods:
        t = len(m.component_orders)
        assert is_isomorphic(m, rebuilt(m, range(t)))
        iso = find_isomorphism(m, rebuilt(m, range(t - 1, -1, -1)))
        assert iso is not None and iso.is_bijective()


def test_regular_product_ring_decomposition(F2xZ4, s_block, c_block):
    reg = regular_module(F2xZ4)
    total = direct_sum(s_block, c_block)
    iso = find_isomorphism(reg, total)
    assert iso is not None and iso.is_bijective()


def test_hom_validation_rejects_non_linear(Z4, z2_over_z4, z4_reg):
    # x -> x is additive Z2 -> Z4 but 1 has order 2 and image order 1*...
    from modlab.errors import NotSubmodule

    with pytest.raises(NotSubmodule):
        ModuleHom(z2_over_z4, z4_reg, [[1]])


def test_validation_runs_once_per_presentation(Z4):
    regular_module(Z4)
    with mock.patch.object(FiniteModule, "_validate") as check:
        FiniteModule(Z4, [4], [[[1]]])
        FiniteModule(Z4, [4], [[[5]]])
    check.assert_not_called()
    bad = ([4], [[[2]]])
    for _ in range(2):
        with pytest.raises(NotSubmodule):
            FiniteModule(Z4, *bad)
    # a presentation that failed is not recorded as validated
    with mock.patch.object(FiniteModule, "_validate", autospec=True,
                           side_effect=FiniteModule._validate) as check:
        with pytest.raises(NotSubmodule):
            FiniteModule(Z4, *bad)
    check.assert_called_once()


def test_module_validation_rejects_bad_action(Z4, Z8):
    # over Z4, doubling is fine but 'x -> 3x only under e_1' breaks the
    # compatibility with e_1 * e_1 = e_1 unless 3*3 = 3 (false mod 4)
    with pytest.raises(NotSubmodule):
        FiniteModule(Z4, (4,), (((3,),),))
    # x * 8 e_1 = x * 0 must be 0, so Z/3 cannot carry a Z/8-action
    with pytest.raises(NotSubmodule):
        FiniteModule(Z8, (3,), (((1,),),))


def test_zero_module_roundtrip(Z4):
    z = zero_module(Z4)
    assert z.size == 1
    assert len(hom_set(z, z)) == 1
    assert is_isomorphic(z, z)


def test_submodule_validation(z2_plus_z4, T2F2):
    from modlab.errors import NotSubmodule
    from modlab.modules import Submodule

    good = span(z2_plus_z4, [(0, 2)])
    Submodule(z2_plus_z4, good.elements, check=True)
    with pytest.raises(NotSubmodule):
        Submodule(z2_plus_z4, frozenset({1, 2}), check=True)
    # additively closed but not action-closed: the span of a mixed element
    # of the triangular ring picks up its basis-action image
    reg = regular_module(T2F2)
    mixed = reg.encode((1, 1, 0))
    with pytest.raises(NotSubmodule):
        Submodule(reg, frozenset({0, mixed}), gens=(mixed,), check=True)


def test_quotient_rejects_non_submodule(z2_plus_z4):
    from modlab.errors import NotSubmodule
    from modlab.modules import Submodule, quotient_module

    bad = Submodule(z2_plus_z4, frozenset({0, 1, 2, 3}))
    try:
        quotient_module(z2_plus_z4, bad)
    except NotSubmodule:
        pass
    else:
        # if the arbitrary set happened to be closed this is fine; force a
        # genuinely open set instead
        worse = Submodule(z2_plus_z4, frozenset({0, z2_plus_z4.encode((0, 1))}))
        with pytest.raises(NotSubmodule):
            quotient_module(z2_plus_z4, worse)


# -- constructor and hom validation against the axioms ---------------------------


def _coord_map(source, target, matrix):
    """x -> decode(x) @ matrix, encoded in the target: the map a matrix
    defines on the canonical coordinates, well defined or not."""
    def f(code):
        x = source.decode(code)
        return target.encode([sum(xi * row[l] for xi, row in zip(x, matrix))
                              for l in range(len(target.component_orders))])
    return f


def _coord_add(module, a, b):
    return module.encode([x + y for x, y in zip(module.decode(a), module.decode(b))])


def hom_axioms_hold(source, target, matrix):
    """Brute force: the coordinate map is additive on every pair of
    elements (that is, well defined) and commutes with every ring basis
    action."""
    f = _coord_map(source, target, matrix)
    for x in source.elements():
        for y in source.elements():
            if f(_coord_add(source, x, y)) != _coord_add(target, f(x), f(y)):
                return False
    for a, b in zip(source.action, target.action):
        act_s, act_t = _coord_map(source, source, a), _coord_map(target, target, b)
        if any(f(act_s(x)) != act_t(f(x)) for x in source.elements()):
            return False
    return True


def module_axioms_hold(ring, orders, action):
    """Brute force over all elements x, y and ring elements r, s, with
    x * r computed from coordinates: (x + y) r = xr + yr (well defined),
    x(r + s) = xr + xs, x(rs) = (xr)s and x * 1 = x."""
    probe = FiniteModule(ring, orders, action, validate=False)
    ring_elements = list(ring.element_coords())

    def act(x, r):
        mat = [[sum(c * a[j][l] for c, a in zip(r, action)) for l in range(len(orders))]
               for j in range(len(orders))]
        return _coord_map(probe, probe, mat)(x)

    def ring_add(r, s):
        return tuple((x + y) % d for x, y, d in zip(r, s, ring.component_orders))

    for x in probe.elements():
        if act(x, ring.one) != x:
            return False
        for r in ring_elements:
            xr = act(x, r)
            for y in probe.elements():
                if act(_coord_add(probe, x, y), r) != _coord_add(probe, xr, act(y, r)):
                    return False
            for s in ring_elements:
                if act(x, ring_add(r, s)) != _coord_add(probe, xr, act(x, s)):
                    return False
                if act(x, ring.mul_coords(r, s)) != act(xr, s):
                    return False
    return True


def _small_module(data, ring):
    """The regular module, a cyclic submodule of it, or a direct sum of
    two such pieces of at most 16 elements."""
    pieces = [_piece(data, ring) for _ in range(data.draw(st.integers(1, 2)))]
    if len(pieces) == 2 and pieces[0].size * pieces[1].size <= 16:
        return direct_sum(*pieces)
    return pieces[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Z4", "F2xZ4", "T2F2"]), st.booleans(), st.data())
def test_hom_validation_matches_axioms(ring_id, from_hom_set, data):
    ring = builtin_ring(ring_id)
    source, target = _small_module(data, ring), _small_module(data, ring)
    s, t = len(source.component_orders), len(target.component_orders)
    if from_hom_set:
        # a hom, possibly with one entry moved, so both outcomes occur
        matrix = [list(row) for row in data.draw(st.sampled_from(hom_set(source, target))).matrix]
        if s and t and data.draw(st.booleans()):
            j, l = data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, t - 1))
            matrix[j][l] += data.draw(st.integers(1, target.component_orders[l]))
    else:
        matrix = [[data.draw(st.integers(0, n - 1)) for n in target.component_orders]
                  for _ in range(s)]
    try:
        ModuleHom(source, target, matrix)
        accepted = True
    except NotSubmodule:
        accepted = False
    assert accepted == hom_axioms_hold(source, target, matrix)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Z4", "F2xZ4", "T2F2"]), st.booleans(), st.data())
def test_module_validation_matches_axioms(ring_id, from_module, data):
    ring = builtin_ring(ring_id)
    k = len(ring.component_orders)
    if from_module:
        # a module, possibly with one action entry moved, so both outcomes occur
        module = _small_module(data, ring)
        orders = module.component_orders
        action = [[list(row) for row in mat] for mat in module.action]
        if orders and data.draw(st.booleans()):
            t = len(orders)
            b, j, l = (data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, t - 1)),
                       data.draw(st.integers(0, t - 1)))
            action[b][j][l] += data.draw(st.integers(1, orders[l]))
    else:
        orders = tuple(data.draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2)))
        action = [[[data.draw(st.integers(0, n - 1)) for n in orders] for _ in orders]
                  for _ in range(k)]
        if data.draw(st.booleans()):
            # solve x * 1 = x for one basis action, so that the other
            # axioms decide
            b0 = ring.one.index(1)
            for j in range(len(orders)):
                for l in range(len(orders)):
                    action[b0][j][l] = int(j == l) - sum(
                        ring.one[b] * action[b][j][l] for b in range(k) if b != b0)
    try:
        FiniteModule(ring, orders, action)
        accepted = True
    except NotSubmodule:
        accepted = False
    assert accepted == module_axioms_hold(ring, orders, action)


# -- element tables against coordinate arithmetic -------------------------------


def check_tables(module, homs, samples):
    """Every workspace table and hom table against encode/decode and
    ModuleHom.apply, on a fresh copy of the module (so that it gets a new
    workspace).  Homs from or to the module are moved onto the copy."""
    m = FiniteModule(module.ring, module.component_orders, module.action,
                     validate=False)
    ws = m.workspace()
    for a, b in samples:
        xa, xb = m.decode(a), m.decode(b)
        assert ws.add(a, b) == m.encode([x + y for x, y in zip(xa, xb)])
        assert list(ws.translate(a, [b, 0])) == [ws.add(a, b), a]
    for c in m.elements():
        assert ws.coords[c] == m.decode(c)
    for mat, tab in zip(m.action, ws.basis_action()):
        h = ModuleHom(m, m, mat, validate=False)
        assert tab == table_type(m.size)([h.apply(c) for c in m.elements()])
    for r in itertools.islice(m.ring.element_coords(), 5):
        h = ModuleHom(m, m, m.ring_action_matrix(r), validate=False)
        assert [ws.act(c, r) for c in m.elements()] == [h.apply(c) for c in m.elements()]
    for f in homs:
        f = ModuleHom(m if f.source == module else f.source,
                      m if f.target == module else f.target, f.matrix, validate=False)
        applied = [f.apply(c) for c in f.source.elements()]
        assert image_table(f.source, f.target, f.matrix) == table_type(f.target.size)(applied)
        assert f.image().elements == frozenset(applied)
        assert f.kernel().elements == frozenset(
            c for c, y in zip(f.source.elements(), applied) if y == 0)
    return ws


def _piece(data, ring):
    """The regular module or a cyclic submodule of it, as a module."""
    reg = regular_module(ring)
    gen = data.draw(st.integers(1, reg.size - 1), label="generator")
    if data.draw(st.booleans(), label="whole"):
        return reg
    return submodule_as_module(span(reg, [gen])).module


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["Z4", "Z8", "Z6", "F3", "F2xZ4", "T2F2"]),
       st.integers(1, 3), st.booleans(), st.data())
def test_tables_match_coordinate_arithmetic(ring_id, count, two_level, data):
    ring = builtin_ring(ring_id)
    pieces = [_piece(data, ring) for _ in range(count)]
    while len(pieces) > 1 and prod(p.size for p in pieces) > 512:
        pieces.pop()
    if len(pieces) == 1:
        total, injections, projections = pieces[0], [], []
    else:
        total, injections, projections = direct_sum_with_maps(*pieces)
    homs = injections + projections
    if total.size <= 16:
        homs += hom_set(total, total)[:8]
    n = total.size
    samples = [(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
               for _ in range(20)]
    # a limit of 0 puts every group on the two-level table; the memos are
    # emptied on the way in and out, so that every table is built afresh
    # and none built here outlives the patch
    with mock.patch.object(modules, "ADD_TABLE_MAX", 0 if two_level else 1024):
        memo.clear()
        try:
            ws = check_tables(total, homs, samples)
        finally:
            memo.clear()
    assert (ws.add_table is None) == two_level


def test_tables_of_large_module_use_two_levels(z8_reg):
    total, injections, projections = direct_sum_with_maps(*[z8_reg] * 4)
    assert total.size == 4096
    rng = random.Random(7)
    samples = [(rng.randrange(4096), rng.randrange(4096)) for _ in range(2000)]
    assert check_tables(total, injections + projections, samples).add_table is None


# -- the two routes of hom_group ------------------------------------------------


def hom_routes(a, b, monkeypatch):
    """(orders, tables) of Hom(a, b) by the route hom_group picks, then by
    Smith reduction with the prime test made to fail.  Memos are emptied
    before each, so each route solves the system itself."""
    memo.clear()
    picked = (hom_group(a, b)[0], hom_tables(a, b))
    with monkeypatch.context() as patch:
        patch.setattr(modules, "prime_modulus", lambda moduli: None)
        memo.clear()
        smith = (hom_group(a, b)[0], hom_tables(a, b))
    memo.clear()
    return picked, smith


@pytest.mark.parametrize("rid", RING_IDS + ["Q"])
def test_elimination_and_smith_routes_give_one_hom_group(rid, request, monkeypatch):
    """Over every pair of the two-generator catalog (Q: one generator),
    both routes give the same factor orders and the same canonical list
    of hom tables.  T2F2, F3 and Q solve every system mod p; the others
    some."""
    from modlab.catalog import GenerationPolicy, enumerate_modules

    ring = request.getfixturevalue("Q") if rid == "Q" else builtin_ring(rid)
    mods = enumerate_modules(ring, GenerationPolicy(1 if rid == "Q" else 2, 256),
                             ring_id=rid).modules
    for a in mods:
        for b in mods:
            picked, smith = hom_routes(a, b, monkeypatch)
            assert picked == smith, (a, b)


@pytest.mark.parametrize("rid,calls", [("T2F2", False), ("Z4", True)])
def test_hom_group_reaches_smith_only_off_prime_fields(rid, calls, monkeypatch):
    """T2F2 is an F_2-algebra, so each of its hom systems is solved mod 2
    with no Smith reduction; Z4's catalog has Z/4 components, so some of
    its systems still take Smith's route."""
    from modlab import intlinalg

    mods = catalog_modules(rid)
    memo.clear()
    count = [0]
    smith = intlinalg.smith_normal_form

    def counted(a):
        count[0] += 1
        return smith(a)

    monkeypatch.setattr(modules, "smith_normal_form", counted)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    for a in mods:
        for b in mods:
            hom_group(a, b)
    assert bool(count[0]) is calls
