"""The oracles that production fast paths are checked against: the
definitional smallness scans, plain and in a quotient, plain and
relative, lifting by the criterion "amply supplemented, and every
coclosed submodule is a direct summand", the hull route to the
cosingularity radicals, which the closed forms M * S and M * S^2
replace, the pair scan of T2.11's split form, which its mask test
replaces, and the module-building route to questions about a submodule
C or a quotient M/A, which the intervals [0, C] and [A, M] of M's
lattice replace."""

from modlab.cosingular import zbar2
from modlab.lattice import is_small_over, radical, submodules
from modlab.modules import Submodule, quotient_module, submodule_as_module
from modlab.structure import (
    injective_hull,
    is_amply_supplemented,
    is_coclosed,
    is_direct_summand,
    summand_keys,
)
from modlab.tpredicates import is_t_coclosed, is_t_lifting, zbar2_pullback


def small_scan(node):
    """A << M by the definition: no proper node B has A + B = M."""
    m = node.parent
    return is_small_over(m, node, m.zero_submodule(), frozenset(m.elements()))


def small_in_quotient_scan(a, n, module):
    """A/N << M/N by the definition: no proper node B >= N has A + B = M."""
    return is_small_over(module, a, n, frozenset(module.elements()))


def t_small_in_quotient_scan(a, n, module):
    """A/N relatively small in M/N by the definition: no node B >= N
    misses the pullback Zp = N + Zbar2(M) of Zbar2(M/N) while A + B holds
    it.  The oracle of the radical route A & Zbar2(M) <= N + Rad(M).

    The route with N kept in the pullback, A & (N + Zbar2(M)) <= N + Rad(M),
    is no near-miss of it: for N <= A the modular law makes
    A & (N + Zbar2(M)) = N + (A & Zbar2(M)), so the two are one predicate
    and a mutation table has no row for that form."""
    return is_small_over(module, a, n, zbar2_pullback(module, n))


def lifting_by_coclosed(module):
    """Lifting for amply supplemented modules: every coclosed submodule is
    a direct summand."""
    if not is_amply_supplemented(module):
        return False
    summands = summand_keys(module)
    return all(s.key in summands for s in submodules(module).nodes if is_coclosed(s, module))


def small_by_hull(module):
    """A small module by the definition: it lies in the radical of its
    injective hull, N <= Rad E(N)."""
    hull, embed = injective_hull(module)
    return embed.image().elements <= radical(hull).elements


def zbar_witnesses(module):
    """All submodules with small quotient, each quotient tested by its
    hull."""
    return [node for node in submodules(module).nodes
            if small_by_hull(quotient_module(module, node)[0])]


def zbar_by_hull(module):
    """Zbar(M) by the definition: the intersection of the submodules with
    small quotient."""
    out = frozenset(module.elements())
    for node in zbar_witnesses(module):
        out &= node.elements
    return out


def zbar2_by_hull(module):
    """Zbar2(M) by the definition: Zbar of Zbar(M) as a module, pushed back
    into M."""
    z = zbar_by_hull(module)
    if len(z) == module.size:
        return z
    inner = submodule_as_module(Submodule(module, z))
    return inner.include.restrict_codes(zbar_by_hull(inner.module))


def zbar2_pullback_by_quotient(module, n):
    """The preimage of Zbar2(M/N) in M, read off the quotient module."""
    q, proj = quotient_module(module, n)
    target = zbar2(q).elements
    return frozenset(c for c, y in enumerate(proj.table()) if y in target)


def zbar2_of_node_by_submodule(module, sub):
    """Zbar2 of a submodule, read off the submodule as a module."""
    inner = submodule_as_module(sub)
    return inner.include.restrict_codes(zbar2(inner.module).elements)


def image_t_coclosed_by_module(module, c, a):
    """C/A relatively coclosed in M/A, for A <= C, read off the quotient
    module M/A."""
    q, proj = quotient_module(module, a)
    return is_t_coclosed(Submodule(q, proj.restrict_codes(c.elements)), q)


def t_coclosed_in_by_module(c, a):
    """A relatively coclosed in C, for A <= C, read off C as a module."""
    inner = submodule_as_module(c)
    pull_in = {y: x for x, y in enumerate(inner.include.table())}
    return is_t_coclosed(Submodule(inner.module, frozenset(map(pull_in.get, a.elements))),
                         inner.module)


def summand_of_quotient_by_module(module, b, n):
    """B/N a direct summand of M/N, for N <= B, read off M/N."""
    q, proj = quotient_module(module, n)
    return is_direct_summand(Submodule(q, proj.restrict_codes(b.elements)), q)


def t_lifting_by_module(module, low, high):
    """H/L relatively lifting, for nodes L <= H, with L = 0 read off H as
    a module and H = M read off M/L."""
    if low.is_zero():
        return is_t_lifting(submodule_as_module(high).module)
    assert high.is_full()
    return is_t_lifting(quotient_module(module, low)[0])


def split_pair_scan(iv, i):
    """Node i of the whole interval [0, M] is S + T with S & T = 0 for a
    summand S of M and a relatively small T under i, by a meet and a
    join for every such pair.  The oracle of
    :func:`tpredicates.splits_into_summand_and_t_small`."""
    lat = iv.lattice
    below = lat.subnode_indices(i)
    return any(lat.meet(s, t) == lat.zero_index and lat.join(s, t) == i
               for s in below if s in iv.summands
               for t in below if t in iv.t_small_nodes)
