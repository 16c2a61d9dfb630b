"""The interval route against the module-building route: questions about a
submodule C or a quotient M/A are decided on the intervals [0, C] and
[A, M] of M's lattice, and checked here against C and M/A built as
modules, on every pair of every two-generator catalog module of the
built-in rings and every one-generator catalog module of Q and Qop."""

from collections import Counter

import pytest

from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.cosingular import zbar2
from modlab.lattice import radical, submodules, times_jacobson
from modlab.rings import builtin_ring
from modlab.structure import Interval, complement_of, whole_interval
from modlab.structure import is_lifting_under
from modlab.tpredicates import is_t_coclosed_in, zbar2_of_node
from scan_oracles import (
    image_t_coclosed_by_module,
    summand_of_quotient_by_module,
    t_coclosed_in_by_module,
    t_lifting_by_module,
)

RING_IDS = ("Z4", "Z8", "F3", "Z6", "F2xZ4", "T2F2")


@pytest.fixture(scope="module")
def catalogs(Q, Qop):
    return [enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 256), ring_id=rid)
            for rid in RING_IDS] + [
        enumerate_modules(ring, GenerationPolicy(1, 256), ring_id=rid)
        for rid, ring in (("Q", Q), ("Qop", Qop))]


def _none_below(lat, a, holds) -> bool:
    """No node N < A with holds(N)."""
    return not any(holds(lat.nodes[n].elements) for n in lat.subnode_indices(a)[:-1])


def image_mutants(m, lat, c, a) -> dict:
    """Near misses of C/A t-coclosed in M/A: no N in [A, C) has
    C & Zbar2(M) <= N + Rad(M)."""
    z2, rad = zbar2(m).elements, radical(m).elements
    meet = lat.nodes[c].elements & z2
    return {
        "N >= A dropped": _none_below(lat, c, lambda n: meet <= _join(m, n, rad)),
    }


def in_c_mutants(m, lat, c, a) -> dict:
    """Near misses of A t-coclosed in C: no N < A has
    A & C*S^2 <= N + C*J."""
    cj = times_jacobson(m, lat.nodes[c].elements)
    inner = lat.nodes[a].elements
    return {
        "Zbar2(M) for C*S^2": _none_below(
            lat, a, lambda n: inner & zbar2(m).elements <= _join(m, n, cj)),
    }


def in_c_with_mj(m, lat, c, a) -> bool:
    """A t-coclosed in C with M*J for C*J: no N < A has
    A & C*S^2 <= N + M*J.  This is no near miss but the same predicate,
    as C*S^2 & M*J <= C*J for every node C, so the two sides meet C in the
    same part (N <= C).

    Proof.  T = S^2 is a two-sided ideal, and its image in the semisimple
    ring R/J is e'(R/J) for a central idempotent e', which lifts to an
    idempotent f in T.  So T <= fR + J, and fr - rf lies in J for every r,
    which gives C*T <= C*f + C*J.  Take y = c*f + z in C*T & M*J with
    z in C*J.  Then c*f lies in M*J, and f lies in S, which J kills from
    the left, so c*f = (c*f)*f lies in M*J*f = 0.  Hence y = z."""
    cs2 = zbar2_of_node(m, lat.nodes[c])
    inner = lat.nodes[a].elements
    return _none_below(lat, a, lambda n: inner & cs2 <= _join(m, n, radical(m).elements))


def _join(m, x, y) -> frozenset:
    lat = submodules(m)
    return lat.nodes[lat.join(lat.index[x], lat.index[y])].elements


def test_interval_t_coclosure_matches_the_module_route(catalogs):
    """L2.5's two interval questions on every pair A < C: C/A in M/A on
    [A, M] against the quotient module M/A, and A in C on [0, C] against C
    as a module.  Each near-miss mutant disagrees with the module route
    somewhere, so the comparison can fail; M*J for C*J is no near miss
    (:func:`in_c_with_mj`) and agrees everywhere."""
    pairs, killed = 0, Counter()
    for catalog in catalogs:
        for m in catalog.modules:
            lat = submodules(m)
            for c in range(len(lat)):
                below_c = Interval(lat, lat.zero_index, c)
                for a in lat.subnode_indices(c)[:-1]:
                    cn, an = lat.nodes[c], lat.nodes[a]
                    image = image_t_coclosed_by_module(m, cn, an)
                    inside = t_coclosed_in_by_module(cn, an)
                    where = (catalog.ring_id, m.component_orders, cn.key, an.key)
                    assert is_t_coclosed_in(Interval(lat, a, lat.top_index), c) == image, where
                    assert is_t_coclosed_in(below_c, a) == inside, where
                    assert in_c_with_mj(m, lat, c, a) == inside, where
                    pairs += 1
                    killed.update(name for name, got in image_mutants(m, lat, c, a).items()
                                  if got != image)
                    killed.update(name for name, got in in_c_mutants(m, lat, c, a).items()
                                  if got != inside)
    print(f"{pairs} pairs; mutants killed on {dict(killed)}")
    assert set(killed) == {"N >= A dropped", "Zbar2(M) for C*S^2"}


def test_interval_summands_and_t_lifting_match_the_module_route(catalogs):
    """The summand test on [N, M] against M/N for every pair N <= B, and
    t-lifting on [0, C] and on [N, M] against C and M/N built as modules,
    for every node: P2.13's and P3.5's interval questions."""
    for catalog in catalogs:
        for m in catalog.modules:
            lat = submodules(m)
            top = lat.top_index
            for n in range(len(lat)):
                above = Interval(lat, n, top)
                for b in above.members:
                    assert (above.complement(b) is not None) == summand_of_quotient_by_module(
                        m, lat.nodes[b], lat.nodes[n]), (catalog.ring_id, n, b)
                for low, high in ((lat.zero_index, n), (n, top)):
                    assert is_lifting_under(Interval.t_small, Interval(lat, low, high)) == t_lifting_by_module(
                        m, lat.nodes[low], lat.nodes[high]), (catalog.ring_id, low, high)


def test_complements_are_the_first_of_their_size(catalogs):
    """The size-block scan finds the first complement in lattice order,
    the one a scan of every node finds."""
    for catalog in catalogs[:len(RING_IDS)]:
        for m in catalog.modules:
            nodes = submodules(m).nodes
            for a in nodes:
                first = next((b for b in nodes if b.size * a.size == m.size
                              and len(a.elements & b.elements) == 1), None)
                assert complement_of(a) == first
            assert whole_interval(m).members == tuple(range(len(nodes)))
