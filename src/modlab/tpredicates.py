"""Predicates relative to the square cosingularity radical: relative
smallness, relative coclosure, relative lifting, the dual-Baer family,
and the conditions built from two endomorphism sets per submodule (the
maps with image inside it, and the maps carrying the square radical into
it).

Each t-notion is the plain notion with the square radical Z = Zbar2(M) in
place of M: A is relatively small when Z <= A + B forces Z <= B, and
relative coclosure and lifting are coclosure and lifting with relatively
small remainders.  So relative smallness is the one smallness scan,
:func:`lattice.is_small_over`, at Z = Zbar2(M) (the plain notion is its
case Z = M); in a quotient it takes plain smallness's radical route
(:meth:`structure.Interval.t_small`).  Relative coclosure and lifting are
the plain notions' loops, :func:`structure.is_coclosed_under` and
:func:`structure.is_lifting_under`, run with relative smallness on an
interval of M's lattice: [0, M] for M, [0, C] for a submodule C and
[A, M] for a quotient M/A, so no submodule or quotient is built as a
module for them.
The equivalent characterizations that hold for amply supplemented modules
are exposed as *variants*, kept as separate code, so the verification
suites can compare them independently instead of trusting the
equivalences.

The endomorphism-set predicates read only the distinct images f(M) and
f(Z) of the endomorphisms f, where Z is the square radical, kept in
:class:`_EndData` as the distinct (f(M), f(Z)) pairs.  With D(N) the maps
with image inside N and T(N) the maps carrying Z into N:

- D(N) = {0} exactly when no nonzero image f(M) lies in N, since only the
  zero map has image {0};
- T(N) = T(0) exactly when no nonzero radical image f(Z) lies in N, since
  T(0) lies in T(N);
- the radical image sum over T(C) (:func:`t_trace`) is the additive span
  of the radical images that lie in C;
- the (image sum, radical image sum) pairs of the right ideals are the
  join closure of the distinct pairs (:meth:`_EndData.image_pair_closure`).

Index sets of endomorphisms are built only at the public boundary
(:func:`d_set`, :func:`t_set`, :func:`dual_baer_witness`), from the
End ring's tables: f(M) lies in a submodule N exactly when f carries
M's generators into N, and f(Z) when f carries Z's.

Over ``max_end`` every endomorphism-set predicate raises
:class:`~modlab.errors.SizeLimitExceeded` instead of answering.  The
caller decides what a refusal means: a profile records null
(:func:`reports.profile_module`), a suite counts a skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .cosingular import zbar2, zbar2_of_node
from .errors import NotSubmodule
from .lattice import (
    SubmoduleLattice,
    is_small_over,
    is_small_within,
    join_closure,
    radical,
    socle,
    submodules,
)
from .memo import memo
from .modules import (
    EndRing,
    FiniteModule,
    Submodule,
    end_ring,
    submodule_as_module,
)
from .structure import (
    Interval,
    is_coclosed,
    is_coclosed_under,
    is_lifting,
    is_lifting_under,
    small_in_quotient,
    summand_keys,
    whole_interval,
)

# -- relative smallness --------------------------------------------------------


def is_t_small(sub: Submodule, module: FiniteModule) -> bool:
    """Whenever the square radical lies under A + B it already lies under
    B."""
    return is_small_over(module, sub, module.zero_submodule(), zbar2(module).elements)


@memo
def t_small_keys(module: FiniteModule) -> frozenset:
    """The relatively small nodes, each decided by the radical route
    :func:`t_small_in_quotient` over N = 0; :func:`is_t_small` is its
    oracle."""
    zero = module.zero_submodule()
    return frozenset(s.key for s in submodules(module).nodes
                     if t_small_in_quotient(s, zero, module))


def t_small_variants(sub: Submodule, module: FiniteModule) -> dict[str, bool]:
    """Four characterizations that agree on amply supplemented modules:
    the definitional scan, smallness of the trace inside the square
    radical, smallness of the trace in the module, and vanishing of the
    square radical of the submodule itself."""
    z2 = zbar2(module)
    trace = sub.elements & z2.elements
    return {
        "definitional": is_t_small(sub, module),
        "trace_small_in_radical": is_small_within(module, trace, z2.elements),
        "trace_small_in_module": trace <= radical(module).elements,
        "square_radical_vanishes": zbar2_of_node(module, sub) == frozenset((0,)),
    }


# -- pullbacks of quotient data --------------------------------------------------


@memo
def zbar2_pullback(module: FiniteModule, n: Submodule) -> frozenset[int]:
    """Preimage in M of the square radical of M/N: N + M * S^2, since
    (M/N) * S^2 = (M * S^2 + N)/N (:mod:`modlab.cosingular`)."""
    lat = submodules(module)
    return lat.nodes[lat.join(lat.node_index(n), lat.node_index(zbar2(module)))].elements


def square_radical_has(module: FiniteModule, predicate) -> bool:
    """``predicate`` of Zbar2(M) as a module; true when Zbar2(M) = 0."""
    z2 = zbar2(module)
    return z2.is_zero() or predicate(submodule_as_module(z2).module)


def t_small_in_quotient(a: Submodule, n: Submodule, module: FiniteModule) -> bool:
    """A/N is relatively small in M/N, for N <= A, decided as
    A & Zbar2(M) <= N + Rad(M): :meth:`structure.Interval.t_small` on
    [0, M], whose docstring has the proof.  The definitional scan is the
    test oracle."""
    if not n.elements <= a.elements:
        raise NotSubmodule("need N <= A for a quotient comparison")
    iv = whole_interval(module)
    return iv.t_small(iv.lattice.node_index(a), iv.lattice.node_index(n))


# -- relative coclosure -----------------------------------------------------------


def is_t_coclosed_in(iv: Interval, c: int) -> bool:
    """Node C of the interval [L, H] is relatively coclosed in H/L: no
    node N of [L, C) leaves C/N relatively small in H/N.

    On [A, M], for nodes A <= C, this decides C/A in M/A: no N in [A, C)
    has C & Zbar2(M) <= N + Rad(M), by the modular law as A <= N (see
    :meth:`structure.Interval.t_small`).  On [0, C] it decides a node A
    of C in C itself: no N < A has A & C*S^2 <= N + C*J.  The routes that
    build M/A and C as modules are the test oracles."""
    return is_coclosed_under(Interval.t_small, iv, c)


@memo
def is_t_coclosed(sub: Submodule, module: FiniteModule) -> bool:
    """No proper part leaves a relatively small remainder."""
    iv = whole_interval(module)
    return is_t_coclosed_in(iv, iv.lattice.node_index(sub))


@memo
def t_coclosed_keys(module: FiniteModule) -> frozenset:
    lat = submodules(module)
    return frozenset(s.key for s in lat.nodes if is_t_coclosed(s, module))


def is_minimal_with_joint_complement(sub: Submodule, module: FiniteModule) -> bool:
    """There is an S with the square radical under C + S, and no proper
    part of C has that property for the same S.  Joins are monotone and
    every proper part of C lies in a node C covers, so only the covered
    nodes need the test.

    The nodes over X + S are those over both X and S, and X + S holds the
    square radical exactly when all of them do, so each test is one AND
    of node masks: the nodes over X, over S and not over the radical."""
    lat = submodules(module)
    uppers = lat.upper_masks()
    outside = ~lat.holders(zbar2(module).generators())
    ci = lat.node_index(sub)
    mine = uppers[ci] & outside
    joint = [up for up in uppers if not up & mine]
    for x in lat.covers()[ci]:
        part = uppers[x] & outside
        joint = [up for up in joint if up & part]
    return bool(joint)


# -- relative lifting ---------------------------------------------------------------


@memo
def is_t_lifting(module: FiniteModule) -> bool:
    """Every submodule contains a direct summand with relatively small
    remainder."""
    return is_lifting_under(Interval.t_small, whole_interval(module))


def t_lifting_variants(module: FiniteModule) -> dict[str, bool]:
    """Seven equivalent forms for amply supplemented modules, evaluated
    independently."""
    lat = submodules(module)
    summands = summand_keys(module)
    z2 = zbar2(module)
    tsmall = t_small_keys(module)

    # (2) every submodule splits as (summand of M) + (relatively small part)
    def split_form() -> bool:
        for i, a in enumerate(lat.nodes):
            sub_idx = lat.subnode_indices(i)
            found = False
            for ni in sub_idx:
                n = lat.nodes[ni]
                if n.key not in summands:
                    continue
                for pi in sub_idx:
                    p = lat.nodes[pi]
                    if p.key not in tsmall:
                        continue
                    if lat.meet(ni, pi) == lat.zero_index and lat.join(ni, pi) == i:
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
        return True

    # (4)/(5) the square radical of each (coclosed) submodule is a summand
    def node_radicals_split(only_coclosed: bool) -> bool:
        for a in lat.nodes:
            if only_coclosed and not is_coclosed(a, module):
                continue
            codes = zbar2_of_node(module, a)
            if codes not in summands:
                return False
        return True

    # (7) submodules inside the square radical lift with small remainder
    def inside_radical_form() -> bool:
        for i, a in enumerate(lat.nodes):
            if not a.elements <= z2.elements:
                continue
            found = False
            for j in lat.subnode_indices(i):
                n = lat.nodes[j]
                if n.key in summands and small_in_quotient(a, n, module):
                    found = True
                    break
            if not found:
                return False
        return True

    return {
        "definitional": is_t_lifting(module),
        "split_into_summand_and_t_small": split_form(),
        "t_coclosed_are_summands": all(
            k in summands for k in t_coclosed_keys(module)
        ),
        "node_radicals_are_summands": node_radicals_split(False),
        "coclosed_node_radicals_are_summands": node_radicals_split(True),
        "radical_summand_and_lifting":
            z2.key in summands and square_radical_has(module, is_lifting),
        "small_lift_inside_radical": inside_radical_form(),
    }


# -- endomorphism machinery -----------------------------------------------------


@dataclass
class EndoSubset:
    """Subset of an endomorphism ring by hom indexes."""

    end: EndRing
    members: frozenset[int]
    kind: str  # d_set | t_set

    def __len__(self) -> int:
        return len(self.members)


def _members(module: FiniteModule, gens: tuple[int, ...],
             codes: frozenset[int]) -> frozenset[int]:
    """Indexes of the endomorphisms that carry the generators into the
    code set of a submodule: those whose image of the submodule the
    generators span lies in it."""
    return frozenset(i for i, tab in enumerate(end_ring(module).tables)
                     if all(tab[g] in codes for g in gens))


def _image_nodes(lat: SubmoduleLattice, tables, gens: tuple[int, ...]) -> list[int]:
    """Per endomorphism table, the node index of f(X), for X the submodule
    the generators span: f(X) is the submodule their images span, looked
    up once per distinct tuple of images."""
    if not gens:
        return [lat.zero_index] * len(tables)
    images = list(zip(*[map(itemgetter(g), tables) for g in gens]))
    nodes = dict.fromkeys(images)
    for img in nodes:
        nodes[img] = lat.span_index(img)
    return list(map(nodes.__getitem__, images))


class _EndData:
    """The image data every endomorphism-set predicate reads: the distinct
    (f(M), f(Z)) pairs of the endomorphisms f, with Z the square radical,
    in the order of their first endomorphism.  Both images are read off
    the lattice's node masks from the images of M's and Z's generators,
    so no image is built as a set of codes."""

    def __init__(self, module: FiniteModule):
        self.module = module
        tables = end_ring(module).tables  # refuses before the lattice is built
        lat = submodules(module)
        fulls = _image_nodes(lat, tables, module.workspace().generators)
        zs = _image_nodes(lat, tables, zbar2(module).generators())
        nodes = lat.nodes
        self.pairs = [(nodes[f].elements, nodes[z].elements)
                      for f, z in dict.fromkeys(zip(fulls, zs))]
        self._pair_closure = None

    def image_pair_closure(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """All pairs (sum of images, sum of radical images) realized by
        right ideals, in the order :func:`join_closure` finds them.

        Ideals are sums of their principal subideals, and a principal
        ideal's image sum equals the single generator's image (radical
        images use that the square radical is carried into itself by each
        endomorphism), so the realized pairs are the join closure of the
        distinct single-endomorphism pairs under the componentwise join.
        Both components are nodes of the module's lattice, so the closure
        runs on pairs of node indices and joins through
        :meth:`SubmoduleLattice.join`.
        """
        if self._pair_closure is not None:
            return self._pair_closure
        lat = submodules(self.module)
        seeds = [(lat.index[full], lat.index[z]) for full, z in self.pairs]
        closure = join_closure(seeds, lambda u, v: (lat.join(u[0], v[0]),
                                                   lat.join(u[1], v[1])))
        nodes = lat.nodes
        self._pair_closure = [(nodes[f].elements, nodes[z].elements) for f, z in closure]
        return self._pair_closure


@memo
def end_data(module: FiniteModule) -> _EndData:
    """The End-ring data of a module, memoized per module.  Building the
    data raises :class:`SizeLimitExceeded` when the End ring is over
    ``max_end``."""
    return _EndData(module)


def d_set(n: Submodule, module: FiniteModule) -> EndoSubset:
    """Endomorphisms whose image lies in the submodule."""
    members = _members(module, module.workspace().generators, n.elements)
    return EndoSubset(end_ring(module), members, "d_set")


def t_set(n: Submodule, module: FiniteModule) -> EndoSubset:
    """Endomorphisms carrying the square radical into the submodule."""
    members = _members(module, zbar2(module).generators(), n.elements)
    return EndoSubset(end_ring(module), members, "t_set")


def d_set_is_zero(n: Submodule, module: FiniteModule) -> bool:
    """D(N) = {0}: no nonzero image of the module lies in the submodule."""
    return not any(len(full) > 1 and full <= n.elements
                   for full, _ in end_data(module).pairs)


def t_set_is_trivial(n: Submodule, module: FiniteModule) -> bool:
    """T(N) = T(0): no nonzero image of the square radical lies in the
    submodule."""
    return not any(len(z) > 1 and z <= n.elements for _, z in end_data(module).pairs)


# -- the dual-Baer family ----------------------------------------------------------


def dual_baer_witness(module: FiniteModule):
    """None when every right ideal has a summand image-sum; otherwise a
    witness (member indexes of a failing right ideal, its image sum F).

    The image sums of right ideals are the first components of
    :meth:`_EndData.image_pair_closure`.  For a failing F the members are
    D(F) = {phi : phi(M) <= F}: it is a right ideal (closed under sums
    and under phi o g), and its image sum is F, since any right ideal
    with image sum F lies inside it."""
    summands = summand_keys(module)
    for full, _ in end_data(module).image_pair_closure():
        if full not in summands:
            return _members(module, module.workspace().generators, full), full
    return None


def is_dual_baer(module: FiniteModule) -> bool:
    """Sum of the images of every right ideal splits off."""
    summands = summand_keys(module)
    return all(full in summands for full, _ in end_data(module).image_pair_closure())


def is_t_dual_baer(module: FiniteModule) -> bool:
    """For every right ideal, the ideal's image of the square radical
    splits off."""
    data = end_data(module)
    summands = summand_keys(module)
    return all(zsum in summands for _, zsum in data.image_pair_closure())


def dual_baer_quotient_condition(module: FiniteModule) -> bool:
    """For every right ideal: the ideal's module-image F, taken modulo the
    ideal's radical-image W, splits off the corresponding quotient: F is
    a direct summand node of the interval [W, M]."""
    data = end_data(module)
    lat = submodules(module)
    for full, zsum in data.image_pair_closure():
        if Interval(lat, lat.index[zsum], lat.top_index).complement(lat.index[full]) is None:
            return False
    return True


def has_sssp_in_zbar2(module: FiniteModule) -> bool:
    """Sums of direct summands contained in the square radical are
    summands (the join closure of those summands)."""
    lat = submodules(module)
    summands = summand_keys(module)
    z2 = zbar2(module).elements
    inside = [lat.index[k] for k in summands if k <= z2]
    return all(lat.nodes[i].key in summands for i in join_closure(inside, lat.join))


def is_regular(module: FiniteModule) -> bool:
    """Every cyclic submodule splits off."""
    ws = module.workspace()
    summands = summand_keys(module)
    for code in range(1, module.size):
        if ws.cyclic_span(code) not in summands:
            return False
    return True


def is_semisimple(module: FiniteModule) -> bool:
    return socle(module).is_full()


def t_dual_baer_variants(module: FiniteModule) -> dict[str, bool]:
    """Four equivalent forms, evaluated independently."""
    summands = summand_keys(module)

    # each h(Zbar2(M)) is the image of a submodule, so already a node key
    radical_images = {z for _, z in end_data(module).pairs}

    def sssp_and_single_images() -> bool:
        return has_sssp_in_zbar2(module) and radical_images <= summands

    def subset_sums() -> bool:
        # sums over arbitrary endomorphism subsets = join closure of the
        # single images
        lat = submodules(module)
        base = {lat.index[key] for key in radical_images}
        return all(lat.nodes[i].key in summands for i in join_closure(base, lat.join))

    return {
        "definitional": is_t_dual_baer(module),
        "radical_summand_dual_baer":
            zbar2(module).key in summands and square_radical_has(module, is_dual_baer),
        "sssp_and_single_images": sssp_and_single_images(),
        "subset_sums_split": subset_sums(),
    }


# -- K-style conditions ---------------------------------------------------------------


@memo
def k_module_class(module: FiniteModule) -> dict[str, bool]:
    """Flags for the three annihilator-style conditions on submodules:
    only-zero image set forces smallness; radical image set equal to the
    zero one forces relative smallness, respectively plain smallness.
    Memoized, so every caller shares one dict and only reads it."""
    end_data(module)  # a refusal comes before the lattice work
    lat = submodules(module)
    k = True
    t_k = True
    strongly = True
    rad = radical(module).elements
    tsmall = t_small_keys(module)
    for node in lat.nodes:
        if d_set_is_zero(node, module) and not node.elements <= rad:
            k = False
        if t_set_is_trivial(node, module):
            if node.key not in tsmall:
                t_k = False
            if not node.elements <= rad:
                strongly = False
    return {"k": k, "t_k": t_k, "strongly_t_k": strongly}


def t_trace(module: FiniteModule, c: Submodule) -> frozenset[int]:
    """Sum of the radical images over every endomorphism carrying the
    square radical into the given submodule: the span of the radical
    images that lie in it."""
    ws = module.workspace()
    return frozenset(ws.additive_closure(chain.from_iterable(
        z for _, z in end_data(module).pairs if z <= c.elements)))


def fully_invariant_keys(module: FiniteModule) -> frozenset:
    """Nodes stable under every endomorphism.  Stability under the
    additive basis of the end ring suffices."""
    end_data(module)  # over max_end, refuses as every End-ring predicate does
    lat = submodules(module)
    basis = end_ring(module).basis_homs()
    out = []
    for node in lat.nodes:
        if all(h.restrict_codes(node.elements) <= node.elements for h in basis):
            out.append(node.key)
    return frozenset(out)
