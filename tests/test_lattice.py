"""Lattice enumeration against a brute-force subgroup filter, and the
relative predicates small/essential/radical/socle."""

import functools
import itertools
import random

import pytest

from modlab import memo
from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.config import Limits
from modlab.errors import ParentMismatch, SizeLimitExceeded
from modlab.lattice import (
    SumIndex,
    _disk_load,
    _prune_generators,
    _sum_key,
    intersect_submodules,
    is_essential,
    is_small,
    join_closure,
    radical,
    socle,
    submodules,
    sum_submodules,
)
from modlab.modules import Submodule
from modlab.modules import direct_sum, regular_module, span, zero_module
from modlab.rings import builtin_ring
from scan_oracles import small_scan


def subgroup_filter_oracle(module):
    """Every subset of element codes that is action-closed and additively
    closed; exponential, so only for very small modules."""
    assert module.size <= 16
    ws = module.workspace()
    elements = list(range(module.size))
    found = set()
    nonzero = [c for c in elements if c != 0]
    for r in range(len(nonzero) + 1):
        for combo in itertools.combinations(nonzero, r):
            candidate = frozenset((0,) + combo)
            ok = True
            for a in candidate:
                for b in candidate:
                    if ws.add(a, b) not in candidate:
                        ok = False
                        break
                if not ok:
                    break
                for tab in ws.basis_action():
                    if tab[a] not in candidate:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(candidate)
    return found


def test_lattice_counts_z4(z4_reg):
    assert len(submodules(z4_reg).nodes) == 3


def test_lattice_counts_z2_plus_z4(z2_plus_z4):
    lat = submodules(z2_plus_z4)
    assert len(lat.nodes) == 8
    assert {s.elements for s in lat.nodes} == subgroup_filter_oracle(z2_plus_z4)


def test_lattice_counts_z2_plus_z8(z2_plus_z8):
    lat = submodules(z2_plus_z8)
    assert len(lat.nodes) == 11
    assert {s.elements for s in lat.nodes} == subgroup_filter_oracle(z2_plus_z8)


def test_lattice_of_zero_module(Z4):
    assert len(submodules(zero_module(Z4)).nodes) == 1


def test_lattice_closure_and_modular_law(z2_plus_z8):
    lat = submodules(z2_plus_z8)
    n = len(lat.nodes)
    for i in range(n):
        for j in range(n):
            s = lat.join(i, j)
            m = lat.meet(i, j)
            assert 0 <= s < n and 0 <= m < n
            a, b = lat.nodes[i], lat.nodes[j]
            assert a.size * b.size == lat.nodes[s].size * lat.nodes[m].size


def test_sum_intersect_identities(z2_plus_z4):
    lat = submodules(z2_plus_z4)
    zero = z2_plus_z4.zero_submodule()
    full = z2_plus_z4.full_submodule()
    for node in lat.nodes:
        assert sum_submodules(node, zero).elements == node.elements
        assert intersect_submodules(node, full).elements == node.elements


def test_sum_example_in_mixed_module(z2_plus_z4):
    a = span(z2_plus_z4, [(1, 2)])
    b = span(z2_plus_z4, [(0, 2)])
    total = sum_submodules(a, b)
    # element-set union closure oracle
    ws = z2_plus_z4.workspace()
    union = {ws.add(x, y) for x in a.elements for y in b.elements}
    assert total.elements == frozenset(union)
    assert total.size == 4
    assert total.elements == span(z2_plus_z4, [(1, 0), (0, 2)]).elements


@pytest.mark.parametrize("rid", ["Z8", "F2xZ4", "T2F2"])
def test_joins_match_the_span_of_both_generator_sets(rid):
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 32), ring_id=rid)
    for m in catalog.modules:
        lat = submodules(m)
        for i, a in enumerate(lat.nodes):
            for j, b in enumerate(lat.nodes):
                want = span(m, a.generators() + b.generators()).elements
                assert lat.nodes[lat.join(i, j)].elements == want
                assert sum_submodules(a, b).elements == want


@pytest.mark.parametrize("rid", ["Z8", "F2xZ4", "T2F2"])
def test_meets_match_the_intersection_of_both_element_sets(rid):
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 32), ring_id=rid)
    for m in catalog.modules:
        lat = submodules(m)
        for i, a in enumerate(lat.nodes):
            for j, b in enumerate(lat.nodes):
                assert lat.nodes[lat.meet(i, j)].elements == a.elements & b.elements


RING_IDS = ["Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2"]


def catalog_and_square(rid):
    """The two-generator catalog of a built-in ring, plus R^2."""
    ring = builtin_ring(rid)
    catalog = enumerate_modules(ring, GenerationPolicy(2, 256), ring_id=rid)
    reg = regular_module(ring)
    return list(catalog.modules) + [direct_sum(reg, reg)]


@pytest.mark.parametrize("rid", RING_IDS)
def test_a_node_is_named_by_its_element_set(rid):
    """Every node's key is its element set itself, and the index finds
    the node from any equal set: a fresh span's or a rebuilt one."""
    for m in catalog_and_square(rid):
        lat = submodules(m)
        for i, node in enumerate(lat.nodes):
            assert node.key is node.elements
            assert lat.index[frozenset(sorted(node.elements))] == i
            rebuilt = span(m, node.generators())
            assert rebuilt.key is rebuilt.elements
            assert lat.node_index(rebuilt) == i


@pytest.mark.parametrize("rid", RING_IDS)
def test_join_by_size_matches_the_coset_sum(rid):
    """The node-mask lookup of a join names the node the coset sum builds,
    for every node pair of every catalog module and of R^2."""
    for m in catalog_and_square(rid):
        lat = submodules(m)
        for i, a in enumerate(lat.nodes):
            for j in range(i, len(lat.nodes)):
                want = _sum_key(m, a, lat.nodes[j])
                assert lat.nodes[lat.join(i, j)].key == want
                assert lat.nodes[lat.join(j, i)].key == want


@pytest.mark.parametrize("rid", RING_IDS)
def test_span_index_names_the_span_of_any_codes(rid):
    """The node-mask lookup of the submodule some codes generate names the
    workspace span, and its mask holds exactly the nodes over that span:
    for no codes, for code 0 alone, and for random code sets of one to
    four codes, over every catalog module and R^2.  A node's upper mask
    holds exactly the nodes over it."""
    rng = random.Random(rid)

    def over(lat, elements):
        return sum(1 << k for k, n in enumerate(lat.nodes) if elements <= n.elements)

    for m in catalog_and_square(rid):
        lat = submodules(m)
        ws = m.workspace()
        samples = [(), (0,)] + [tuple(rng.choices(range(m.size), k=rng.randint(1, 4)))
                                for _ in range(40)]
        for codes in samples:
            span = frozenset(ws.span(codes))
            assert lat.nodes[lat.span_index(codes)].elements == span
            assert lat.holders(codes) == over(lat, span)
        assert lat.upper_masks() == [over(lat, n.elements) for n in lat.nodes]


def test_large_sum_matches_the_span(Z4):
    # |A| * |B| = 256 * 512 and 256 * 1024, above the old 1 << 16 span cutoff
    m = direct_sum(*[regular_module(Z4)] * 5)  # Z4^5, 1024 elements
    e = [tuple(int(k == i) for k in range(5)) for i in range(5)]
    a = span(m, e[:4])
    b = span(m, [(2, 0, 0, 0, 0)] + e[1:])
    full = m.full_submodule()
    assert (a.size, b.size) == (256, 512)
    assert not a.elements <= b.elements
    for x, y in ((a, b), (b, a), (a, full)):
        got = sum_submodules(x, y).elements
        assert got == span(m, x.generators() + y.generators()).elements
        assert len(got) == 1024


@pytest.mark.parametrize("rid", ["Z8", "F2xZ4", "T2F2"])
def test_subnode_indices_match_the_scan(rid):
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 64), ring_id=rid)
    for m in catalog.modules:
        lat = submodules(m)
        for i, a in enumerate(lat.nodes):
            want = tuple(j for j, b in enumerate(lat.nodes) if b.elements <= a.elements)
            assert lat.subnode_indices(i) == want
            assert lat.subnode_indices(i) == want  # from the memo


def covers_scan(lat):
    """For each node, the indices it covers: the nodes strictly below it
    with no node strictly between (cubic scan)."""
    out = []
    for a in lat.nodes:
        below = [j for j, b in enumerate(lat.nodes)
                 if b.size < a.size and b.elements < a.elements]
        out.append(sorted(j for j in below
                          if not any(lat.nodes[j].elements < lat.nodes[k].elements
                                     for k in below)))
    return out


def maximal_scan(lat):
    """Indices of the proper nodes inside no larger proper node
    (quadratic scan)."""
    top = lat.nodes[lat.top_index]
    return [i for i, a in enumerate(lat.nodes)
            if a.size < top.size
            and not any(a.elements < b.elements and b.size < top.size
                        for b in lat.nodes)]


@pytest.mark.parametrize("rid", RING_IDS)
def test_covers_and_maximal_nodes_match_the_scans(rid):
    for m in catalog_and_square(rid):
        lat = submodules(m)
        assert lat.covers() == covers_scan(lat), m
        assert lat.maximal_indices() == maximal_scan(lat), m
        assert lat.maximal_indices() == lat.covers()[lat.top_index]


def test_lattice_memo_checks_the_size_limit_first(Z4, limits):
    reg = regular_module(Z4)
    m = direct_sum(reg, reg)
    assert len(submodules(m)) == 15
    limits(Limits(max_module=4))
    with pytest.raises(SizeLimitExceeded):
        submodules(m)


@pytest.mark.parametrize("rid", ["Z8", "F2xZ4", "T2F2"])
def test_join_closure_holds_the_join_of_every_subset(rid):
    """Of single nodes under the lattice join, and of node pairs under the
    componentwise join: the seeds first, then every join of a subset, each
    once."""
    rng = random.Random(rid)
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 64), ring_id=rid)
    for m in catalog.modules:
        lat = submodules(m)

        def pair_join(u, v):
            return lat.join(u[0], v[0]), lat.join(u[1], v[1])

        for _ in range(6):
            k = min(len(lat), rng.randint(1, 5))
            picked = rng.sample(range(len(lat)), k)
            pairs = list(zip(picked, rng.sample(range(len(lat)), k)))
            for seeds, join in ((picked, lat.join), (pairs, pair_join)):
                want = set()
                for r in range(1, len(seeds) + 1):
                    for subset in itertools.combinations(seeds, r):
                        want.add(functools.reduce(join, subset))
                got = join_closure(seeds, join)
                assert got[:len(set(seeds))] == list(dict.fromkeys(seeds))
                assert len(got) == len(want) and set(got) == want


def pairwise_closure_keys(module):
    """Node keys of the lattice by the round-based pairwise closure of the
    cyclic spans: each round joins every new node with every known one
    and skips a pair whose sum a known node of that size already holds.
    The reference scan for the closure by cyclic extension."""
    ws = module.workspace()
    seen = {}
    zero = module.zero_submodule()
    seen[zero.key] = zero
    for code in range(1, module.size):
        cyc = ws.cyclic_span(code)
        if cyc not in seen:
            seen[cyc] = Submodule(module, cyc, gens=(code,))
    by_size = {}
    for node in seen.values():
        by_size.setdefault(node.size, []).append(node.elements)
    worklist = list(seen.values())
    while worklist:
        nxt = []
        current = list(seen.values())
        for a in worklist:
            for b in current:
                if a.elements <= b.elements or b.elements <= a.elements:
                    continue
                size = a.size * b.size // len(a.elements & b.elements)
                gens = a.generators() + b.generators()
                if any(map(frozenset(gens).issubset, by_size.get(size, ()))):
                    continue
                key = _sum_key(module, a, b)
                new = Submodule(module, key,
                                gens=_prune_generators(module, gens, size))
                seen[key] = new
                by_size.setdefault(size, []).append(new.elements)
                nxt.append(new)
        worklist = nxt
    return set(seen)


def catalog_square_and_cube(rid):
    """catalog_and_square, plus R^3 for the rings small enough to close
    it pairwise in a test."""
    modules = catalog_and_square(rid)
    if rid in ("Z4", "F3"):
        reg = regular_module(builtin_ring(rid))
        modules.append(direct_sum(reg, reg, reg))
    return modules


@pytest.mark.parametrize("rid", RING_IDS)
def test_cyclic_extension_keeps_the_pairwise_closure_nodes(rid):
    for m in catalog_square_and_cube(rid):
        lat = submodules(m)
        assert {node.key for node in lat.nodes} == pairwise_closure_keys(m), m
        for node in lat.nodes:
            assert span(m, node.generators()).elements == node.elements, m


def scan_built_nodes(module):
    """{node key: generators} of the lattice built as ``submodules`` builds
    it, but with each sum looked up by scanning the nodes of size |A + B|
    for the one holding both generator sets.  The reference for the
    :class:`SumIndex` lookup."""
    ws = module.workspace()
    cyclics = {}
    for code in range(1, module.size):
        cyc = ws.cyclic_span(code)
        if cyc not in cyclics:
            cyclics[cyc] = Submodule(module, cyc, gens=(code,))
    by_size = {}
    for node in cyclics.values():
        by_size.setdefault(node.size, {})[node.elements] = node

    def extend(a, c):
        if c.elements <= a.elements:
            return a
        size = a.size * c.size // len(a.elements & c.elements)
        gens = a.generators() + c.generators()
        candidates = by_size.setdefault(size, {})
        found = next(filter(frozenset(gens).issubset, candidates), None)
        if found is not None:
            return candidates[found]
        new = Submodule(module, _sum_key(module, a, c),
                        gens=_prune_generators(module, gens, size))
        candidates[new.elements] = new
        return new

    nodes = join_closure(cyclics.values(), extend) + [module.zero_submodule()]
    return {node.key: node.generators() for node in nodes}


@pytest.mark.parametrize("rid", RING_IDS)
def test_sum_index_builds_the_nodes_and_generators_of_the_scan(rid):
    for m in catalog_square_and_cube(rid):
        got = {node.key: node.generators() for node in submodules(m).nodes}
        assert got == scan_built_nodes(m), m


@pytest.mark.parametrize("rid", RING_IDS)
def test_sum_index_finds_a_sum_only_when_it_is_indexed(rid):
    for m in catalog_and_square(rid):
        lat = submodules(m)
        kept = set(range(0, len(lat), 2))
        index = SumIndex((lat.nodes[k], k) for k in kept)
        for i, a in enumerate(lat.nodes):
            for j, b in enumerate(lat.nodes):
                joined = lat.join(i, j)
                assert index.find(a, b) == (joined if joined in kept else None)


@pytest.mark.parametrize("rid", ["Z8", "F2xZ4"])
def test_lattice_read_back_from_the_disk_cache_matches_a_fresh_build(
        tmp_path, monkeypatch, rid):
    monkeypatch.setenv("MODLAB_CACHE", str(tmp_path))
    memo.clear()
    modules = catalog_and_square(rid)
    fresh = [submodules(m) for m in modules]
    memo.clear()
    for m, lat in zip(modules, fresh):
        loaded = _disk_load(m)
        assert loaded is not None and loaded is not lat
        assert [n.key for n in loaded.nodes] == [n.key for n in lat.nodes]
        assert [n.generators() for n in loaded.nodes] == [n.generators() for n in lat.nodes]


def test_parent_mismatch(z4_reg, z2_plus_z4):
    with pytest.raises(ParentMismatch):
        sum_submodules(z4_reg.zero_submodule(), z2_plus_z4.zero_submodule())


def test_is_small_examples(z4_reg, s_plus_c):
    assert is_small(z4_reg.zero_submodule())
    assert is_small(span(z4_reg, [2]))
    assert small_scan(span(z4_reg, [2]))
    summand = span(s_plus_c, [(0, 1)])
    assert not is_small(summand)
    assert not small_scan(summand)


def test_is_small_full_module_only_for_zero(z4_reg, Z4):
    assert not is_small(z4_reg.full_submodule())
    z = zero_module(Z4)
    assert is_small(z.full_submodule())


def test_is_essential_examples(z4_reg, s_plus_c):
    assert is_essential(z4_reg.full_submodule())
    assert is_essential(span(z4_reg, [2]))
    assert not is_essential(span(s_plus_c, [(1, 0)]))


def atom_sum(module):
    """Soc(M) by definition: the span of the minimal nonzero nodes."""
    nodes = submodules(module).nodes
    atoms = [a for a in nodes if a.size > 1
             and not any(1 < b.size < a.size and b.elements < a.elements for b in nodes)]
    gens = [g for a in atoms for g in a.generators()]
    return frozenset(module.workspace().span(gens))


def meets_every_cyclic_span(sub):
    """Essentiality by definition: A meets every nonzero cyclic submodule."""
    ws = sub.parent.workspace()
    return all(len(ws.cyclic_span(code) & sub.elements) > 1
               for code in range(1, sub.parent.size))


@pytest.mark.parametrize("rid", RING_IDS)
def test_socle_is_the_sum_of_atoms(rid):
    for m in catalog_and_square(rid):
        assert socle(m).elements == atom_sum(m)


@pytest.mark.parametrize("rid", RING_IDS)
def test_is_essential_matches_the_cyclic_span_scan(rid):
    """Every node of every catalog module and of R^2, and every hull
    embedding of those modules."""
    from modlab.structure import injective_hull

    for m in catalog_and_square(rid):
        for node in submodules(m).nodes:
            assert is_essential(node) == meets_every_cyclic_span(node)
        _, embed = injective_hull(m)
        assert is_essential(embed.image()) == meets_every_cyclic_span(embed.image())
        assert meets_every_cyclic_span(embed.image())


def test_radical_socle_examples(z4_reg, z2_plus_z8, F3):
    assert sorted(socle(z4_reg).elements) == [0, 2]
    r = radical(z2_plus_z8)
    assert r.size == 4
    assert r.elements == span(z2_plus_z8, [(0, 2)]).elements
    semisimple = regular_module(F3)
    assert radical(semisimple).is_zero()


def test_radical_of_quotient_by_radical_vanishes(z2_plus_z8, s_plus_c):
    from modlab.modules import quotient_module

    for m in (z2_plus_z8, s_plus_c):
        q, _ = quotient_module(m, radical(m))
        assert radical(q).is_zero()
        assert socle(socle(m).parent).elements >= socle(m).elements


def test_socle_idempotent(z2_plus_z8):
    from modlab.modules import submodule_as_module

    s = socle(z2_plus_z8)
    inner = submodule_as_module(s)
    assert socle(inner.module).size == s.size


def test_radical_is_sum_of_small_submodules(z2_plus_z8):
    lat = submodules(z2_plus_z8)
    small_union = set()
    for node in lat.nodes:
        if small_scan(node):
            small_union |= node.elements
    ws = z2_plus_z8.workspace()
    assert radical(z2_plus_z8).elements == frozenset(ws.span(list(small_union)))


def test_hasse_export(z2_plus_z4):
    from modlab.serialize import lattice_to_hasse_json

    lat = submodules(z2_plus_z4)
    data = lattice_to_hasse_json(lat)
    assert len(data["nodes"]) == 8
    assert len(data["covers"]) == 8
    # zero covers nothing; the top covers at least one maximal node
    zero_idx = next(i for i, n in enumerate(data["nodes"]) if n["size"] == 1)
    assert data["covers"][zero_idx] == []
    top_idx = next(i for i, n in enumerate(data["nodes"]) if n["size"] == 8)
    assert data["covers"][top_idx]
