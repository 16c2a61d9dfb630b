"""Structural module theory: intervals of the submodule lattice, direct
summands, supplements, coclosed submodules, lifting, character duality,
projective covers, injective hulls, injectivity, and the small-module
predicate.

Summands, coclosure and lifting are decided on an :class:`Interval`
[L, H] of a module's lattice, the lattice of H/L, so a submodule or a
quotient is asked about without being built as a module.

Duality is the character pairing into Z/exp(M): it is involutive on the
nose in this presentation, swaps projective covers with injective hulls,
and turns small kernels into essential images.  Injective hulls are
computed as the dual of the projective cover of the dual, then
post-verified (essential embedding, injectivity by the right-ideal
extension test).  The small-module predicate builds no hull: a module is
small exactly when S = Soc(_R R) kills it (:mod:`modlab.cosingular`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence

from . import config
from .cosingular import zbar, zbar2_of_node
from .errors import IdempotentSearchExceeded, NotSubmodule, ParentMismatch, SizeLimitExceeded
from .intlinalg import identity_matrix, subgroup_basis
from .lattice import (
    SubmoduleLattice,
    bits,
    is_small_within,
    is_essential,
    radical,
    submodules,
    times_jacobson,
)
from .memo import memo
from .modules import (
    FiniteModule,
    ModuleHom,
    Submodule,
    SubmoduleModule,
    direct_sum_with_maps,
    end_ring,
    hom_group,
    identity_hom,
    is_isomorphic,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
    zero_module,
)
from .rings import FiniteRing, opposite_ring


@dataclass
class Decomposition:
    """Internal direct sum: parts meet pairwise in zero and sum to the
    whole module, with optional orthogonal idempotent witnesses whose
    images are the parts."""

    parts: list[Submodule]
    witness: list[ModuleHom] | None = None

    def verify(self) -> bool:
        if not self.parts:
            return False
        module = self.parts[0].parent
        ws = module.workspace()
        total = {0}
        for i, a in enumerate(self.parts):
            for b in self.parts[i + 1:]:
                if len(a.elements & b.elements) != 1:
                    return False
            total = ws.additive_closure(total | a.elements)
        if len(total) != module.size:
            return False
        if self.witness is not None:
            acc = None
            for e, part in zip(self.witness, self.parts):
                if e.then(e).matrix != e.matrix:
                    return False
                if e.image().elements != part.elements:
                    return False
                acc = e if acc is None else acc.add(e)
            if acc is None or acc.matrix != identity_hom(module).matrix:
                return False
            for i, e in enumerate(self.witness):
                for f in self.witness[i + 1:]:
                    zero = all(x == 0 for row in e.then(f).matrix for x in row)
                    zero2 = all(x == 0 for row in f.then(e).matrix for x in row)
                    if not (zero and zero2):
                        return False
        return True


def summand_decomposition(sub: Submodule) -> Decomposition | None:
    """Two-part decomposition along a direct summand, witnessed by the
    complementary projection pair."""
    comp = complement_of(sub)
    if comp is None:
        return None
    witness = [projection_along(sub, comp), projection_along(comp, sub)]
    return Decomposition(parts=[sub, comp], witness=witness)


def projection_along(sub: Submodule, comp: Submodule) -> ModuleHom:
    """The idempotent projecting onto the first part of an internal direct
    sum along the second."""
    module = sub.parent
    ws = module.workspace()
    # every x splits uniquely as a + b; the projection sends x to a
    split = {}
    for a in sub.elements:
        for b in comp.elements:
            split[ws.add(a, b)] = a
    units = identity_matrix(len(module.component_orders))
    return ModuleHom(module, module, [ws.coords[split[module.encode(e)]] for e in units])


# -- intervals -----------------------------------------------------------------


class Interval:
    """The interval [L, H] of a module's submodule lattice: the nodes N
    with L <= N <= H, as node indices.  It is the lattice of H/L, as the
    submodules of H are the nodes below H and those of M/L the N/L for the
    nodes N above L.  So a question about a submodule H or a quotient M/L
    is decided inside M's lattice; the whole module is [0, M].

    ``rad`` and ``z2`` are the nodes L + H*J and L + H*S^2, with J = J(R)
    and S = Soc(_R R): the preimages of Rad(H/L) and Zbar2(H/L).  Over a
    finite ring, which is right perfect, Rad(X) = X*J (Bass, 1960) and
    Zbar2(X) = X*S^2 (:mod:`modlab.cosingular`), and (H/L)*I = (H*I + L)/L
    for an ideal I."""

    def __init__(self, lattice: SubmoduleLattice, low: int, high: int):
        self.lattice, self.low, self.high = lattice, low, high

    @cached_property
    def rad(self) -> int:
        top = self.lattice.nodes[self.high]
        m = self.lattice.parent
        return self._over_low(radical(m).elements if top.is_full()
                              else times_jacobson(m, top.elements))

    @cached_property
    def z2(self) -> int:
        return self._over_low(zbar2_of_node(self.lattice.parent, self.lattice.nodes[self.high]))

    def _over_low(self, codes) -> int:
        """The node L + X, for the node X with these codes."""
        return self.lattice.join(self.low, self.lattice.index[codes])

    def below(self, i: int) -> Sequence[int]:
        """The nodes of [L, i], ascending, for a node i of the interval:
        those under i and over L."""
        lat = self.lattice
        if self.low == lat.zero_index:
            return lat.subnode_indices(i)
        return bits(lat.lower_masks()[i] & lat.upper_masks()[self.low])

    @cached_property
    def members(self) -> Sequence[int]:
        """The nodes of the interval, ascending."""
        return self.below(self.high)

    @cached_property
    def _by_size(self) -> dict[int, list[int]]:
        blocks: dict[int, list[int]] = {}
        for j in self.members:
            blocks.setdefault(self.lattice.nodes[j].size, []).append(j)
        return blocks

    def complement(self, b: int) -> int | None:
        """The first node B' of the interval, in lattice order, with
        B & B' = L and B + B' = H, if node b has one; B/L is a direct
        summand of H/L exactly when it does.  Such a B' has
        |B'| = |H| |L| / |B|, as |B + B'| |B & B'| = |B| |B'|, so only the
        nodes of that size are scanned, and among them B + B' = H is the
        same test as B & B' = L.  Proof: B & B' holds L and B + B' lies
        in H, as both nodes lie in [L, H].  If B & B' = L, then
        |B + B'| = |B| |B'| / |L| = |H|, so B + B' = H; if B + B' = H,
        then |B & B'| = |B| |B'| / |H| = |L|, so B & B' = L.  So the
        scan tests B + B' = H: H is over both, and no node before it
        is."""
        lat = self.lattice
        nodes, uppers = lat.nodes, lat.upper_masks()
        need, rest = divmod(nodes[self.high].size * nodes[self.low].size, nodes[b].size)
        before_h = uppers[b] & (1 << self.high) - 1
        return None if rest else next(
            (j for j in self._by_size.get(need, ()) if not uppers[j] & before_h), None)

    @cached_property
    def summands(self) -> frozenset[int]:
        """The nodes B of the interval with B/L a direct summand of H/L."""
        return frozenset(j for j in self.members if self.complement(j) is not None)

    @cached_property
    def coclosed(self) -> frozenset[int]:
        """The nodes C of the interval with C/L coclosed in H/L."""
        return frozenset(c for c in self.members if is_coclosed_under(Interval.small, self, c))

    @cached_property
    def t_coclosed(self) -> frozenset[int]:
        """The nodes C of the interval with C/L relatively coclosed in
        H/L."""
        return frozenset(c for c in self.members if is_coclosed_under(Interval.t_small, self, c))

    @cached_property
    def t_small_nodes(self) -> frozenset[int]:
        """The nodes A of the interval with A/L relatively small in H/L."""
        return frozenset(a for a in self.members if self.t_small(a, self.low))

    def keys(self, nodes) -> frozenset[frozenset[int]]:
        """The element sets of these nodes: a node set's name at the API
        boundary."""
        return frozenset(self.lattice.nodes[i].key for i in nodes)

    def small(self, a: int, n: int) -> bool:
        """A/N << H/N, for nodes N <= A of the interval, decided as
        A <= N + ``rad``: the radical of a finite module is small and
        holds every small submodule, and Rad(H/N) pulls back to N + H*J,
        which is N + ``rad`` as L <= N."""
        lat = self.lattice
        return bool(lat.upper_masks()[a] >> lat.join(n, self.rad) & 1)

    def t_small(self, a: int, n: int) -> bool:
        """A/N is relatively small in H/N, for nodes N <= A of the
        interval, decided as A & ``z2`` <= N + ``rad``.

        Proof.  H/N is finite, hence amply supplemented, so by P2.2 (the
        ``trace_small_in_module`` variant) A/N is relatively small in H/N
        exactly when A/N & Zbar2(H/N) <= Rad(H/N).  Pulled back to M, with
        Zbar2(H/N) = (N + H*S^2)/N and Rad(H/N) = (N + H*J)/N, that is
        A & (N + H*S^2) <= N + H*J.  As N <= A, the modular law makes the
        left side N + (A & H*S^2), and N lies in the right side, so this
        is A & H*S^2 <= N + H*J.  Adding L <= N to H*S^2 and to H*J changes
        neither side.  The definitional scan is the test oracle."""
        lat = self.lattice
        return bool(lat.upper_masks()[lat.meet(a, self.z2)] >> lat.join(n, self.rad) & 1)


@memo
def whole_interval(module: FiniteModule) -> Interval:
    """The interval [0, M] of the module's lattice, memoized with its
    node sets: the direct summands, the coclosed, t-coclosed and t-small
    nodes."""
    lat = submodules(module)
    return Interval(lat, lat.zero_index, lat.top_index)


# -- direct summands ---------------------------------------------------------


def complement_of(sub: Submodule) -> Submodule | None:
    """A lattice node B with A + B = M and A & B = 0, if one exists: the
    first in lattice order (:meth:`Interval.complement` on [0, M])."""
    iv = whole_interval(sub.parent)
    j = iv.complement(iv.lattice.node_index(sub))
    return None if j is None else iv.lattice.nodes[j]


def is_direct_summand(sub: Submodule, module: FiniteModule | None = None) -> bool:
    if module is not None and module != sub.parent:
        raise ParentMismatch("submodule does not live in the given module")
    return complement_of(sub) is not None


def summand_keys(module: FiniteModule) -> frozenset[frozenset[int]]:
    """The keys (element sets) of all direct summand nodes."""
    iv = whole_interval(module)
    return iv.keys(iv.summands)


def summand_witness_idempotent(sub: Submodule) -> ModuleHom | None:
    """Idempotent endomorphism with image equal to the submodule, if any:
    the first in canonical order.  Independent cross-check for the
    complement scan."""
    return end_ring(sub.parent).idempotents_by_image().get(sub.elements)


# -- supplements -------------------------------------------------------------


def is_supplement(x: Submodule, y: Submodule, module: FiniteModule) -> bool:
    """X supplements Y: X + Y = M and X & Y is small inside X."""
    if x.parent != module or y.parent != module:
        raise ParentMismatch("supplement operands must live in the module")
    lat = submodules(module)
    i, j = lat.node_index(x), lat.node_index(y)
    if lat.join(i, j) != lat.top_index:
        return False
    inter = x.elements & y.elements
    return is_small_within(module, inter, x.elements)


def supplements_of(y: Submodule, module: FiniteModule) -> list[Submodule]:
    lat = submodules(module)
    return [x for x in lat.nodes if is_supplement(x, y, module)]


@memo
def is_amply_supplemented(module: FiniteModule) -> bool:
    """Whenever A + B = M, some supplement of B lies inside A.  True for
    every module over a finite ring, but computed from the definition.
    The supplements of B are the minimal X with X + B = M (Wisbauer,
    Foundations of Module and Ring Theory, 41.1), so only the minimal X
    of the up-set U = {X : X + B = M}, those covering no node of U, are
    tested: every A in U holds one, and one that is no supplement fails
    for A = X."""
    lat = submodules(module)
    top = lat.top_index
    covers = lat.covers()
    for j, b in enumerate(lat.nodes):
        up = {i for i in range(len(lat)) if lat.join(i, j) == top}
        for i in up:
            x = lat.nodes[i]
            if up.isdisjoint(covers[i]) and not is_small_within(
                    module, x.elements & b.elements, x.elements):
                return False
    return True


# -- small quotients and coclosed submodules -----------------------------------


def small_in_quotient(a: Submodule, n: Submodule, module: FiniteModule) -> bool:
    """A/N << M/N for N <= A, evaluated inside the ambient lattice as
    A <= N + Rad(M) (:meth:`Interval.small` on [0, M])."""
    if not n.elements <= a.elements:
        raise NotSubmodule("need N <= A for a quotient comparison")
    iv = whole_interval(module)
    return iv.small(iv.lattice.node_index(a), iv.lattice.node_index(n))


def is_coclosed_under(small, iv: Interval, c: int) -> bool:
    """Node C of the interval [L, H] is coclosed in H/L under a smallness
    notion small(iv, A, N) of A/N in H/N: no node N of [L, C) has
    small(iv, C, N).  These N are the proper submodules of C/L."""
    return not any(small(iv, c, n) for n in iv.below(c)[:-1])


def is_coclosed(sub: Submodule, module: FiniteModule) -> bool:
    """No proper part of the submodule leaves a small remainder: C' < C
    with C/C' << M/C' forces C = C'."""
    iv = whole_interval(module)
    return iv.lattice.node_index(sub) in iv.coclosed


def coclosed_keys(module: FiniteModule) -> frozenset[frozenset[int]]:
    iv = whole_interval(module)
    return iv.keys(iv.coclosed)


# -- lifting -------------------------------------------------------------------


def is_lifting_under(small, iv: Interval) -> bool:
    """H/L is lifting under a smallness notion small(iv, A, N) of A/N in
    H/N: every node A of the interval [L, H] holds a node N with N/L a
    direct summand of H/L and small(iv, A, N)."""
    summands = iv.summands
    return all(any(j in summands and small(iv, i, j) for j in iv.below(i))
               for i in iv.members)


def is_lifting(module: FiniteModule) -> bool:
    """Every submodule contains a direct summand with small remainder."""
    return is_lifting_under(Interval.small, whole_interval(module))


# -- character duality ---------------------------------------------------------


def _dual_matrix(matrix, src_orders, tgt_orders):
    """Weighted transpose: entry [l][j] = matrix[j][l] * m_j / n_l, the
    coordinate form of precomposition of characters."""
    t_src = len(src_orders)
    t_tgt = len(tgt_orders)
    out = []
    for l in range(t_tgt):
        row = []
        for j in range(t_src):
            row.append((matrix[j][l] * src_orders[j]) // tgt_orders[l] % src_orders[j])
        out.append(row)
    return out


@memo
def character_dual(module: FiniteModule) -> FiniteModule:
    """Character group Hom(M, Z/exp(M)) as a right module over the
    opposite ring; same component orders, weighted-transpose action."""
    ring = module.ring
    op = opposite_ring(ring)
    orders = module.component_orders
    action = tuple(
        tuple(tuple(r) for r in _dual_matrix(mat, orders, orders))
        for mat in module.action
    )
    return FiniteModule(op, orders, action)


def dual_hom(f: ModuleHom) -> ModuleHom:
    """D(f): D(target) -> D(source), precomposition with f."""
    dsrc = character_dual(f.target)
    dtgt = character_dual(f.source)
    mat = _dual_matrix(f.matrix, f.source.component_orders, f.target.component_orders)
    # rows of the dual act from D(target) coordinates; transpose shape fits
    return ModuleHom(dsrc, dtgt, mat)


# -- projective covers ----------------------------------------------------------

@dataclass
class _PrimitiveBlock:
    idempotent: tuple[int, ...]
    block: SubmoduleModule          # eR as a standalone module
    top: FiniteModule               # eR / Rad(eR)
    end_size: int                   # |End(top)|, a prime power


@memo
def primitive_blocks(ring: FiniteRing) -> list[_PrimitiveBlock]:
    """One block per member of a complete orthogonal set of primitive
    idempotents of the ring, found by exhaustive search."""
    if ring.size > config.LIMITS.max_ring:
        raise SizeLimitExceeded(f"ring too large for idempotent search: {ring.size}")
    idems = ring.idempotent_coords()
    reg = regular_module(ring)

    def split(e):
        # orthogonal decomposition e = f + (e - f) with f*(e-f) = (e-f)*f = 0
        for f in idems:
            if not any(f) or f == e:
                continue
            g = tuple((x - y) % d for x, y, d in zip(e, f, ring.component_orders))
            if not any(g):
                continue
            if (
                ring.mul_coords(f, g) == ring.zero_coords()
                and ring.mul_coords(g, f) == ring.zero_coords()
                and ring.mul_coords(f, f) == f
                and ring.mul_coords(g, g) == g
            ):
                return f, g
        return None

    stack = [ring.one]
    prims: list[tuple[int, ...]] = []
    while stack:
        e = stack.pop()
        if not any(e):
            continue
        parts = split(e)
        if parts is None:
            prims.append(e)
        else:
            stack.extend(parts)
    prims.sort(key=ring.encode)
    blocks = []
    for e in prims:
        e_code = ring.encode(e)
        sub = span(reg, [e_code])
        block = submodule_as_module(sub)
        top, _ = quotient_module(block.module, radical(block.module))
        end_size = prod(hom_group(top, top)[0])
        blocks.append(_PrimitiveBlock(e, block, top, end_size))
    return blocks


def projective_cover(module: FiniteModule):
    """(P, p) with P projective, p surjective, and ker(p) small in P.

    P is assembled from primitive-idempotent blocks matching the
    semisimple top of the module; generator images are chosen greedily so
    the induced map on tops is bijective, which forces the kernel into
    Rad(P).
    """
    ring = module.ring
    blocks = primitive_blocks(ring)
    # one representative per isomorphism class of tops, so multiplicities
    # are not double counted when distinct idempotents share a top
    classes: list[_PrimitiveBlock] = []
    for blk in blocks:
        if not any(is_isomorphic(blk.top, other.top) for other in classes):
            classes.append(blk)
    top, _ = quotient_module(module, radical(module))
    chosen: list[_PrimitiveBlock] = []
    for blk in classes:
        count = prod(hom_group(top, blk.top)[0])
        mult = 0
        while blk.end_size ** (mult + 1) <= count:
            mult += 1
        chosen.extend([blk] * mult)
    if not chosen:
        p = zero_module(ring)
        return p, ModuleHom(p, module, [], validate=False)
    total, injections, _ = direct_sum_with_maps(*[blk.block.module for blk in chosen])
    ws = module.workspace()
    rad = radical(module).elements
    images: list[int] = []
    spanned = set(rad)
    for blk in chosen:
        e = blk.idempotent
        pick = None
        for x in module.elements():
            m = ws.act(x, e)
            if m not in spanned:
                pick = m
                break
        if pick is None:
            raise IdempotentSearchExceeded("cover multiplicity bookkeeping failed")
        images.append(pick)
        spanned = ws.span(list(set(images) | rad))
    # map each block generator u = e to its chosen image; the block is eR,
    # so the hom on it is r |-> pick * r
    rows = []
    for blk, pick in zip(chosen, images):
        incl = blk.block.include.matrix
        for brow in incl:
            rcoords = tuple(x % d for x, d in zip(brow, ring.component_orders))
            img = ws.act(pick, rcoords)
            rows.append(list(ws.coords[img]))
    p_hom = ModuleHom(total, module, rows)
    if not p_hom.is_surjective():
        raise IdempotentSearchExceeded("projective cover candidate is not surjective")
    if not p_hom.kernel().elements <= radical(total).elements:
        raise IdempotentSearchExceeded("projective cover kernel is not small")
    return total, p_hom


# -- injectivity ----------------------------------------------------------------


@memo
def _right_ideal_modules(ring: FiniteRing) -> list[SubmoduleModule]:
    return [submodule_as_module(node) for node in submodules(regular_module(ring)).nodes]


@memo
def is_injective(module: FiniteModule) -> bool:
    """Baer's test: every hom f from a right ideal I into the module is
    left multiplication by some element m, f(v) = m * v.  The map
    m |-> (m * v_j)_j on I's basis images v_j is additive, so the
    extendable homs form the subgroup spanned by the (e_s * v_j)_j over
    the module's basis vectors e_s, and it suffices that each generator of
    Hom(I, M) lies in it.  Each is tested by a coordinate solve in that
    subgroup (row s of v_j's action matrix is e_s * v_j), with no pass
    over the module's elements."""
    orders = module.component_orders
    for ideal in _right_ideal_modules(module.ring):
        mats = [module.ring_action_matrix(row) for row in ideal.include.matrix]
        extendable = subgroup_basis(orders * len(mats),
                                    [[x for mat in mats for x in mat[s]]
                                     for s in range(len(orders))])
        for rep in hom_group(ideal.module, module)[1]:
            # row j of the matrix is the image of the j-th basis vector
            try:
                extendable.solve([x for row in rep for x in row])
            except ValueError:
                return False
    return True


@memo
def injective_hull(module: FiniteModule):
    """(E, i) with E injective and i an essential embedding, built as the
    dual of the projective cover of the dual.  The embedding, its
    essentiality and the injectivity of E are checked."""
    dual = character_dual(module)
    cover, p = projective_cover(dual)
    embed = dual_hom(p)
    hull = embed.target
    if embed.source.key != module.key:
        raise NotSubmodule("double dual did not return the original presentation")
    if not embed.is_injective():
        raise NotSubmodule("hull embedding is not injective")
    if not is_essential(embed.image(), hull):
        raise NotSubmodule("hull embedding is not essential")
    if not is_injective(hull):
        raise NotSubmodule("computed hull fails the injectivity test")
    return hull, embed


def is_small_module(module: FiniteModule) -> bool:
    """Small in its injective hull, decided as Zbar(M) = M * S = 0 with
    S = Soc(_R R) (the proof is in :mod:`modlab.cosingular`)."""
    return zbar(module).is_zero()
