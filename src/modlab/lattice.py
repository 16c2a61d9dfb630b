"""Submodule lattice enumeration and the basic relative predicates:
sums, intersections, small, essential, radical, socle.

Radical and socle come from J = J(R) without the lattice of the module:
Rad(M) = M * J, and Soc(M) = ann_M(J) = {x : x * J = 0}.  A finite ring
is semilocal, so ann_M(J) is an R/J-module, hence semisimple and inside
the socle; every simple module is killed by J, so the socle is inside
ann_M(J).  A submodule is essential exactly when it contains the socle,
since in a finite module every nonzero submodule contains a simple one.
Both are computed from the few additive generators h of J
(:func:`jacobson_generators`), never from all of J: x * j is additive in
x and in j, so M * J is the additive span of the rows of the h's action
matrices, X * J that of the x * h, and x * J = 0 exactly when every
x * h = 0.  The cost no longer grows with |M| |J|.  X * S, for the left
socle S = Soc(_R R) of the ring, comes from S's additive generators the
same way (:func:`times_left_socle`); M * S is the cosingularity radical.

Every closure over joins goes through :func:`join_closure`, which joins
each new element with the seeds only: a finite join is a seed joined onto
a smaller join.  The lattice is the closure of the cyclic spans, since
every submodule is a finite sum of cyclic ones, so each node is found as
B + xR for a smaller node B.  The builder finds each join A + B among
the nodes found so far through a :class:`SumIndex` of element bitmasks
per node size, and builds a sum only for a new node, as a union of
cosets of the larger summand, translating it only by elements of the
smaller one not yet covered.  A built lattice reads any span off one
node bitmask per element code (:meth:`SubmoduleLattice.span_index`), and
every order question, joins, meets, subnodes and covers, off two masks
per node: the nodes over it and the nodes under it.
Smallness is decided by the radical, A << M exactly when A <= Rad(M)
(the radical of a module over a finite ring is small).  One definitional
scan, :func:`is_small_over`, decides smallness relative to any node Z in
any quotient M/N; the plain notion is N = 0 and Z = M, and the t-notions
take the square cosingularity radical for Z.  The oracles check the
radical route against the scan instead of assuming the agreement.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from . import config
from .errors import ParentMismatch, SizeLimitExceeded
from .intlinalg import subgroup_decomposition
from .memo import memo
from .modules import (
    FiniteModule,
    Submodule,
    additive_group,
    regular_module,
)
from .serialize import cache_path, cache_read, cache_write


class SubmoduleLattice:
    """All submodules of a module in canonical order, with the order kept
    as two bitmasks of nodes per node.

    Nodes are sorted by size, so the submodule some codes generate is the
    first node holding them all: the lowest set bit of the AND of their
    node masks, where bit k of a code's mask says that node k holds it
    (:meth:`span_index`).  That AND is the mask of the nodes over the
    span (:meth:`holders`), and :meth:`upper_masks` keeps it for every
    node; :meth:`lower_masks` is its transpose, the nodes under each
    node.  Every order question reads these masks: A + B is the first
    node over both, A & B the last node under both, and node j lies in
    node i when bit j of i's lower mask is set.  The masks are built on
    first use and never stored on disk."""

    def __init__(self, parent: FiniteModule, nodes: list[Submodule]):
        self.parent = parent
        self.nodes = tuple(sorted(nodes, key=lambda s: (s.size, sorted(s.elements))))
        self.index = {s.elements: i for i, s in enumerate(self.nodes)}
        self.zero_index = self.index[frozenset((0,))]
        self.top_index = self.index[frozenset(parent.elements())]
        self._covers: list[list[int]] | None = None
        self._subnodes: dict[int, tuple[int, ...]] = {}
        self._masks: list[int] | None = None
        self._uppers: list[int] | None = None
        self._lowers: list[int] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node_index(self, sub: Submodule) -> int:
        try:
            return self.index[sub.elements]
        except KeyError:
            raise ParentMismatch("submodule is not a node of this lattice") from None

    def join(self, i: int, j: int) -> int:
        """A + B: the first node over both."""
        uppers = self._uppers or self.upper_masks()
        hit = uppers[i] & uppers[j]
        return (hit & -hit).bit_length() - 1

    def meet(self, i: int, j: int) -> int:
        """A & B: the last node under both."""
        lowers = self._lowers or self.lower_masks()
        return (lowers[i] & lowers[j]).bit_length() - 1

    def span_index(self, codes: Iterable[int]) -> int:
        """The index of the submodule the codes generate: the first node
        holding every code (node 0, the zero submodule, for no codes)."""
        hit = self.holders(codes)
        return (hit & -hit).bit_length() - 1

    def holders(self, codes: Iterable[int]) -> int:
        """The mask of the nodes holding every code: the nodes over the
        submodule the codes generate."""
        masks = self._masks or self._code_masks()
        hit = masks[0]
        for code in codes:
            hit &= masks[code]
        return hit

    def upper_masks(self) -> list[int]:
        """Per node, the mask of the nodes over it, built on first use."""
        if self._uppers is None:
            self._uppers = [self.holders(node.generators()) for node in self.nodes]
        return self._uppers

    def lower_masks(self) -> list[int]:
        """Per node, the mask of the nodes under it: the upper masks
        transposed, built on first use."""
        if self._lowers is None:
            lowers = [0] * len(self.nodes)
            for j, up in enumerate(self.upper_masks()):
                bit = 1 << j
                for i in bits(up):
                    lowers[i] |= bit
            self._lowers = lowers
        return self._lowers

    def _code_masks(self) -> list[int]:
        masks = [0] * self.parent.size
        for k, node in enumerate(self.nodes):
            bit = 1 << k
            for code in node.elements:
                masks[code] |= bit
        self._masks = masks
        return masks

    def covers(self) -> list[list[int]]:
        """Hasse diagram: for each node, the indices it covers."""
        if self._covers is None:
            self._covers = [self.covered_indices(i) for i in range(len(self.nodes))]
        return self._covers

    def maximal_indices(self) -> list[int]:
        """The maximal submodules: the nodes the top node covers."""
        return self.covered_indices(self.top_index)

    def covered_indices(self, i: int) -> list[int]:
        """Indices of the nodes node i covers, ascending: the proper
        subnodes j whose interval [j, i], the nodes under i and over j,
        holds only j and i."""
        under, uppers = self.lower_masks()[i], self.upper_masks()
        top = 1 << i
        return [j for j in self.subnode_indices(i)[:-1]
                if under & uppers[j] == top | 1 << j]

    def subnode_indices(self, i: int) -> tuple[int, ...]:
        """Indices of all nodes contained in node i (including i), read
        off its lower mask and memoized."""
        got = self._subnodes.get(i)
        if got is None:
            got = self._subnodes[i] = bits(self.lower_masks()[i])
        return got


def bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a mask, ascending."""
    return tuple(m.start() for m in re.finditer("1", bin(mask)[:1:-1]))


def join_closure(seeds, join) -> list:
    """The seeds and every join of two or more of them, in the order found.
    Each new element is joined with the seeds only: every finite join is a
    seed joined onto a smaller join, so this is the pairwise closure with
    fewer joins."""
    closure = dict.fromkeys(seeds)
    seeds = list(closure)
    worklist = list(closure)
    while worklist:
        a = worklist.pop()
        for s in seeds:
            j = join(a, s)
            if j not in closure:
                closure[j] = None
                worklist.append(j)
    return list(closure)


class SumIndex:
    """Values of submodules, looked up as A + B.  Per size it keeps the
    values in order added and, per element code, an int whose bit k says
    that the k-th node of that size holds the code.  A + B is the one node
    of size |A| |B| / |A & B| holding the generators of A and of B, so its
    bit is the one left in the AND of their masks and code 0's."""

    def __init__(self, pairs=()):
        self._sizes: dict[int, tuple[list, dict[int, int]]] = {}
        for node, value in pairs:
            self.add(node, value)

    def add(self, node: Submodule, value) -> None:
        values, masks = self._sizes.setdefault(node.size, ([], {}))
        bit = 1 << len(values)
        values.append(value)
        for code in node.elements:
            masks[code] = masks.get(code, 0) | bit

    def find(self, a: Submodule, b: Submodule):
        """The value added for A + B, or None when A + B is not indexed."""
        size = a.size * b.size // len(a.elements & b.elements)
        values, masks = self._sizes.get(size, ((), {}))
        hit = masks.get(0, 0)
        for code in a.generators() + b.generators():
            hit &= masks.get(code, 0)
        return values[hit.bit_length() - 1] if hit else None


def _sum_key(parent: FiniteModule, a: Submodule, b: Submodule) -> frozenset[int]:
    # A + B is a union of cosets of the larger summand; an element of the
    # smaller one already in the union adds no new coset.
    small, large = (a, b) if a.size <= b.size else (b, a)
    translate = parent.workspace().translate
    out = set(large.elements)
    for x in small.elements:
        if x not in out:
            out.update(translate(x, large.elements))
    return frozenset(out)


def sum_submodules(a: Submodule, b: Submodule) -> Submodule:
    """Lattice join A + B."""
    if a.parent != b.parent:
        raise ParentMismatch("sum needs a common parent")
    gens = tuple(a.generators()) + tuple(b.generators())
    return Submodule(a.parent, _sum_key(a.parent, a, b), gens=gens)


def intersect_submodules(a: Submodule, b: Submodule) -> Submodule:
    """Lattice meet A & B."""
    if a.parent != b.parent:
        raise ParentMismatch("intersection needs a common parent")
    return Submodule(a.parent, a.elements & b.elements)


@memo
def submodules(module: FiniteModule) -> SubmoduleLattice:
    """Complete submodule lattice (memoized per module presentation, and on
    disk when a cache directory is configured).  A module over
    ``max_module`` is refused before the disk cache is read."""
    if module.size > config.LIMITS.max_module:
        raise SizeLimitExceeded(f"module of size {module.size} over lattice limit")
    loaded = _disk_load(module)
    if loaded is not None:
        return loaded
    ws = module.workspace()
    cyclics: dict[frozenset[int], Submodule] = {}
    for code in range(1, module.size):
        cyc = ws.cyclic_span(code)
        if cyc not in cyclics:
            cyclics[cyc] = Submodule(module, cyc, gens=(code,))
    sums = SumIndex((node, node) for node in cyclics.values())

    def extend(a: Submodule, c: Submodule) -> Submodule:
        if c.elements <= a.elements:
            return a
        known = sums.find(a, c)
        if known is None:
            key = _sum_key(module, a, c)
            known = Submodule(module, key, gens=_prune_generators(
                module, a.generators() + c.generators(), len(key)))
            sums.add(known, known)
        return known

    nodes = join_closure(cyclics.values(), extend)
    nodes.append(module.zero_submodule())
    lattice = SubmoduleLattice(module, nodes)
    _disk_store(module, lattice)
    return lattice


def _disk_load(module: FiniteModule) -> SubmoduleLattice | None:
    path = cache_path(module)
    if path is None:
        return None

    def parse(data: dict) -> SubmoduleLattice:
        nodes = [
            Submodule(module, frozenset(entry["elements"]), gens=tuple(entry["gens"]))
            for entry in data["nodes"]
        ]
        return SubmoduleLattice(module, nodes)

    return cache_read(path, parse)


def _disk_store(module: FiniteModule, lattice: SubmoduleLattice) -> None:
    path = cache_path(module)
    if path is None:
        return
    payload = {
        "nodes": [
            {"elements": sorted(node.elements), "gens": list(node.generators())}
            for node in lattice.nodes
        ]
    }
    cache_write(path, json.dumps(payload))


def _prune_generators(module: FiniteModule, gens: tuple[int, ...], target_size: int) -> tuple[int, ...]:
    if len(gens) <= 4:
        return gens
    return tuple(module.workspace().spanning_subset(gens, target_size))


def jacobson_radical(ring) -> frozenset[int]:
    """Element codes of J(R): intersection of the maximal right ideals of
    the regular module."""
    reg = regular_module(ring)
    lat = submodules(reg)
    elems = frozenset(reg.elements())
    for i in lat.maximal_indices():
        elems = elems & lat.nodes[i].elements
    return elems


@memo
def jacobson_generators(ring) -> tuple[tuple[int, ...], ...]:
    """Additive generators of J(R) in ring coordinates: one representative
    per cyclic factor of J inside the ring's additive group."""
    codes = sorted(jacobson_radical(ring))
    _, reps, _ = subgroup_decomposition(ring.component_orders,
                                        [list(ring.decode(j)) for j in codes])
    return tuple(map(tuple, reps))


@memo
def left_socle_generators(ring) -> tuple[tuple[int, ...], ...]:
    """Additive generators of S = Soc(_R R) = {s : J * s = 0}, the socle of
    R as a left module, in ring coordinates: the ring elements that every
    additive generator of J kills from the left.  S is a two-sided ideal."""
    zero = ring.zero_coords()
    jgens = jacobson_generators(ring)
    members = [list(s) for s in ring.element_coords()
               if all(ring.mul_coords(h, s) == zero for h in jgens)]
    _, reps, _ = subgroup_decomposition(ring.component_orders, members)
    return tuple(map(tuple, reps))


@memo
def radical(module: FiniteModule) -> Submodule:
    """Rad(M) = M * J(R), also the sum of all small submodules: the
    additive span of the e_s * h over M's basis vectors e_s and J's
    additive generators h, which are the rows of h's action matrix."""
    seeds = [module.encode(row) for h in jacobson_generators(module.ring)
             for row in module.ring_action_matrix(h)]
    group = additive_group(module.component_orders)
    return Submodule(module, frozenset(group.additive_closure(seeds)))


@memo
def radical_of_subset(module: FiniteModule, codes: frozenset[int]) -> frozenset[int]:
    """Element codes of Rad(X) = X * J(R) for an action-closed subset X
    (memoized :func:`times_jacobson`)."""
    return times_jacobson(module, codes)


def times_jacobson(module: FiniteModule, codes) -> frozenset[int]:
    """Element codes of X * J(R), for an action-closed subset X, computed
    in the ambient coordinates: the additive span of the x * h over x in
    X and J's additive generators h.  It is Rad(X)."""
    return _times(module, codes, jacobson_generators(module.ring))


def times_left_socle(module: FiniteModule, codes) -> frozenset[int]:
    """Element codes of X * S, S = Soc(_R R), for an action-closed subset
    X: the additive span of the x * s over x in X and S's additive
    generators s.  M * S is the cosingularity radical of M (see
    :mod:`modlab.cosingular`)."""
    return _times(module, codes, left_socle_generators(module.ring))


def _times(module: FiniteModule, codes, gens) -> frozenset[int]:
    ws = module.workspace()
    products = set()
    for h in gens:
        products.update(map(ws.action_table(h).__getitem__, codes))
    return frozenset(ws.additive_closure(products))


@memo
def socle(module: FiniteModule) -> Submodule:
    """Soc(M) = ann_M(J(R)): the elements that every additive generator
    of J kills."""
    ws = module.workspace()
    members = module.elements()
    for h in jacobson_generators(module.ring):
        tab = ws.action_table(h)
        members = [x for x in members if not tab[x]]
    return Submodule(module, frozenset(members))


def is_small(sub: Submodule, module: FiniteModule | None = None) -> bool:
    """A << M: no proper submodule B has A + B = M, decided as
    A <= Rad(M)."""
    parent = sub.parent
    if module is not None and module != parent:
        raise ParentMismatch("submodule does not live in the given module")
    return sub.elements <= radical(parent).elements


def is_small_over(module: FiniteModule, a: Submodule, n: Submodule,
                  z: frozenset[int]) -> bool:
    """A/N is small relative to Z/N in M/N, for nodes N <= A and N <= Z:
    every node B >= N with Z <= A + B already has Z <= B (the
    definitional scan over the lattice)."""
    lat = submodules(module)
    ai = lat.node_index(a)
    for j, b in enumerate(lat.nodes):
        if (n.elements <= b.elements and not z <= b.elements
                and z <= lat.nodes[lat.join(ai, j)].elements):
            return False
    return True


def is_small_within(module: FiniteModule, inner: frozenset[int], outer: frozenset[int]) -> bool:
    """Smallness of one code set inside another, both action-closed in the
    same ambient module: inner <= Rad(outer)."""
    return inner <= radical_of_subset(module, outer)


def is_essential(sub: Submodule, module: FiniteModule | None = None) -> bool:
    """A is essential iff it meets every nonzero submodule, iff it
    contains Soc(M)."""
    parent = sub.parent
    if module is not None and module != parent:
        raise ParentMismatch("submodule does not live in the given module")
    return socle(parent).elements <= sub.elements
