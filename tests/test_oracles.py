"""Fast-path versus brute-force cross-checks: the radical criterion for
smallness, plain and relative in a quotient, summand detection by
complements versus idempotents, and the kernel-intersection bound for the
cosingularity radical."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.cosingular import zbar, zbar2
from modlab.errors import SizeLimitExceeded
from modlab.lattice import is_small, radical, submodules
from modlab.modules import FiniteModule, hom_set, span
from modlab.rings import builtin_ring
from modlab.structure import (
    is_direct_summand,
    is_small_module,
    small_in_quotient,
    summand_witness_idempotent,
)
from modlab.tpredicates import t_small_in_quotient
from scan_oracles import (
    lifting_by_coclosed,
    small_in_quotient_scan,
    small_scan,
    t_small_in_quotient_scan,
    zbar_witnesses,
)

RING_IDS = ("Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2")


def _catalog(rid):
    return enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)


@pytest.mark.parametrize("rid", RING_IDS)
def test_nakayama_agrees_with_scan_on_all_catalog_pairs(rid):
    for m in _catalog(rid).modules:
        for node in submodules(m).nodes:
            fast = is_small(node)
            slow = small_scan(node)
            assert fast == slow, (rid, m.component_orders, sorted(node.elements))


def test_nakayama_agrees_on_random_spans():
    rng = random.Random(20240817)
    pool = [m for rid in RING_IDS for m in _catalog(rid).modules]
    for _ in range(1000):
        m = pool[rng.randrange(len(pool))]
        gens = [rng.randrange(m.size) for _ in range(rng.randrange(0, 3))]
        node = span(m, gens)
        assert is_small(node) == small_scan(node)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(RING_IDS),
    st.data(),
)
def test_nakayama_agrees_property(rid, data):
    catalog = _catalog(rid).modules
    m = data.draw(st.sampled_from(catalog))
    gens = data.draw(st.lists(st.integers(0, m.size - 1), max_size=3))
    node = span(m, gens)
    assert is_small(node) == small_scan(node)


@pytest.mark.parametrize("rid", RING_IDS)
def test_summand_scan_agrees_with_idempotent_witness(rid):
    for m in _catalog(rid).modules:
        try:
            witnessable = True
            for node in submodules(m).nodes:
                witness = summand_witness_idempotent(node)
                assert (witness is not None) == is_direct_summand(node)
        except SizeLimitExceeded:
            continue


@pytest.mark.parametrize("rid", RING_IDS)
def test_zbar_reject_containment(rid):
    catalog = _catalog(rid).modules
    smalls = [m for m in catalog if is_small_module(m)]
    for m in catalog:
        z = zbar(m)
        for target in smalls:
            for h in hom_set(m, target):
                assert all(h.apply(c) == 0 for c in z.elements), (
                    rid, m.component_orders, target.component_orders
                )


@pytest.mark.parametrize("rid", RING_IDS)
def test_zbar_agrees_with_witness_scan(rid):
    """zbar's closed form M * S against the definition: the intersection of
    every submodule whose quotient is small in its injective hull.  Each
    catalog member comes with a copy whose components are reversed, an
    isomorphic presentation."""
    for m in _catalog(rid).modules:
        order = range(len(m.component_orders) - 1, -1, -1)
        copy = FiniteModule(m.ring, [m.component_orders[j] for j in order],
                            [[[a[j][l] for l in order] for j in order] for a in m.action])
        for module in (m, copy):
            expected = frozenset(module.elements())
            for node in zbar_witnesses(module):
                expected &= node.elements
            assert zbar(module).elements == expected, (rid, module.component_orders)


@pytest.mark.parametrize("rid", ("Z4", "Z6", "F2xZ4"))
def test_small_in_quotient_scan_agrees(rid):
    """Radical route versus definitional scan for smallness of quotient
    pairs, across full sublattices."""
    from modlab.structure import small_in_quotient

    for m in _catalog(rid).modules:
        lat = submodules(m)
        for i, a in enumerate(lat.nodes):
            for j in lat.subnode_indices(i):
                n = lat.nodes[j]
                assert small_in_quotient(a, n, m) == small_in_quotient_scan(
                    a, n, m
                ), (rid, m.component_orders, a.key, n.key)


def t_small_in_quotient_mutants(a, n, m) -> dict:
    """Near misses of the radical route A & Zbar2(M) <= N + Rad(M)."""
    return {
        "N dropped from N + Rad(M)": a.elements & zbar2(m).elements <= radical(m).elements,
        "plain small_in_quotient": small_in_quotient(a, n, m),
    }


def test_t_small_in_quotient_route_matches_the_scan(Q, Qop):
    """The radical route against the definitional scan on every pair
    N <= A of every two-generator catalog module of the built-in rings
    and every one-generator catalog module of Q and Qop, where S is not
    inside J(R).  Each near-miss mutant of the route disagrees with the
    scan somewhere, so the comparison can fail."""
    catalogs = [_catalog(rid) for rid in RING_IDS] + [
        enumerate_modules(ring, GenerationPolicy(1, 256), ring_id=rid)
        for rid, ring in (("Q", Q), ("Qop", Qop))]
    pairs, killed = 0, Counter()
    for catalog in catalogs:
        for m in catalog.modules:
            lat = submodules(m)
            for i, a in enumerate(lat.nodes):
                for j in lat.subnode_indices(i):
                    n = lat.nodes[j]
                    want = t_small_in_quotient_scan(a, n, m)
                    assert t_small_in_quotient(a, n, m) == want, (
                        catalog.ring_id, m.component_orders, a.key, n.key)
                    pairs += 1
                    killed.update(name for name, got
                                  in t_small_in_quotient_mutants(a, n, m).items()
                                  if got != want)
    print(f"{pairs} pairs; mutants killed on {dict(killed)}")
    assert set(killed) == {"N dropped from N + Rad(M)", "plain small_in_quotient"}


def test_hypothesis_rejects_malformed_rings():
    from modlab.errors import ModlabError
    from modlab.rings import ring_from_constants

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.data(),
    )
    def inner(order, data):
        k = data.draw(st.integers(1, 2))
        orders = tuple(data.draw(st.sampled_from([2, 3, 4])) for _ in range(k))
        constants = [
            [
                [data.draw(st.integers(0, 3)) for _ in range(k)]
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        one = [data.draw(st.integers(0, 3)) for _ in range(k)]
        try:
            ring = ring_from_constants(orders, constants, one)
        except ModlabError:
            return
        # anything accepted must truly be an associative unital ring
        for a in ring.element_coords():
            for b in ring.element_coords():
                for c in ring.element_coords():
                    left = ring.mul_coords(ring.mul_coords(a, b), c)
                    right = ring.mul_coords(a, ring.mul_coords(b, c))
                    assert left == right
        for a in ring.element_coords():
            assert ring.mul_coords(ring.one, a) == a
            assert ring.mul_coords(a, ring.one) == a

    inner()


@pytest.mark.parametrize("rid", ("Z4", "Z8", "F2xZ4"))
def test_hull_of_sums_is_sum_of_hulls(rid):
    from modlab.modules import direct_sum, is_isomorphic
    from modlab.structure import injective_hull

    catalog = _catalog(rid).modules
    budget = 0
    for i, a in enumerate(catalog):
        for b in catalog[i:]:
            if a.size * b.size > 64:
                continue
            budget += 1
            ea, _ = injective_hull(a)
            eb, _ = injective_hull(b)
            total, _ = injective_hull(direct_sum(a, b))
            assert is_isomorphic(total, direct_sum(ea, eb))
    assert budget > 3


@pytest.mark.parametrize("rid", ("Z8", "Z6", "F2xZ4"))
def test_lifting_criteria_agree_catalog_wide(rid):
    from modlab.structure import is_lifting

    for m in _catalog(rid).modules:
        assert is_lifting(m) == lifting_by_coclosed(m)


@pytest.mark.parametrize("rid", RING_IDS)
def test_noncosingular_dual_baer_coincidence(rid):
    from modlab.tpredicates import is_dual_baer, is_t_dual_baer

    for m in _catalog(rid).modules:
        if not zbar(m).is_full():
            continue
        assert is_dual_baer(m) == is_t_dual_baer(m)


def test_hom_count_multiplicative_over_catalog_triples():
    from modlab.modules import direct_sum, hom_set

    catalog = _catalog("Z4").modules
    for m in catalog:
        for n1 in catalog:
            for n2 in catalog:
                if n1.size * n2.size > 64:
                    continue
                total = direct_sum(n1, n2)
                assert len(hom_set(m, total)) == (
                    len(hom_set(m, n1)) * len(hom_set(m, n2))
                )
