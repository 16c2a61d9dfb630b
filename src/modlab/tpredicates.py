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
:class:`_EndData` as the distinct (f(M), f(Z)) pairs of node indices,
with the nodes over some nonzero f(M), and over some nonzero f(Z), as
one mask each.  With D(N) the maps with image inside N and T(N) the maps
carrying Z into N:

- D(N) = {0} exactly when no nonzero image f(M) lies in N, since only the
  zero map has image {0}: N is outside the first mask;
- T(N) = T(0) exactly when no nonzero radical image f(Z) lies in N, since
  T(0) lies in T(N): N is outside the second mask;
- the radical image sum over T(C) (:func:`t_trace`) is the span of the
  radical images that lie in C;
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
    bits,
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
    is_coclosed_under,
    is_lifting,
    is_lifting_under,
    whole_interval,
)

# -- relative smallness --------------------------------------------------------


def is_t_small(sub: Submodule, module: FiniteModule) -> bool:
    """Whenever the square radical lies under A + B it already lies under
    B."""
    return is_small_over(module, sub, module.zero_submodule(), zbar2(module).elements)


def t_small_keys(module: FiniteModule) -> frozenset:
    """The relatively small nodes, each decided by the radical route
    :meth:`structure.Interval.t_small` over N = 0; :func:`is_t_small` is
    its oracle."""
    iv = whole_interval(module)
    return iv.keys(iv.t_small_nodes)


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


def is_t_coclosed(sub: Submodule, module: FiniteModule) -> bool:
    """No proper part leaves a relatively small remainder."""
    iv = whole_interval(module)
    return iv.lattice.node_index(sub) in iv.t_coclosed


def t_coclosed_keys(module: FiniteModule) -> frozenset:
    iv = whole_interval(module)
    return iv.keys(iv.t_coclosed)


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


def splits_into_summand_and_t_small(iv: Interval):
    """The test of a node i of the whole interval [0, M]: whether i = S + T
    with S & T = 0 for some summand S of M and some relatively small T,
    both under i.  It reads masks, not a meet and a join per pair.  For S
    and T under i, S & T = 0 with |S| |T| = |i| is the same as S + T = i
    with S & T = 0, as |S + T| |S & T| = |S| |T|.  And S & T = 0 exactly
    when T is over no atom (minimal nonzero node) under S, as a nonzero
    S & T is over one.  So per summand S under i, the candidates T are
    the relatively small nodes under i of size |i| / |S| outside the
    upper masks of S's atoms."""
    lat = iv.lattice
    lowers, uppers, nodes = lat.lower_masks(), lat.upper_masks(), lat.nodes
    # an atom's lower mask holds itself and the zero node only
    atoms = sum(1 << a for a, low in enumerate(lowers) if low.bit_count() == 2)
    summands = sum(1 << j for j in iv.summands)
    t_small = sum(1 << j for j in iv.t_small_nodes)
    by_size: dict[int, int] = {}
    for j, node in enumerate(nodes):
        by_size[node.size] = by_size.get(node.size, 0) | 1 << j
    disjoint: dict[int, int] = {}    # summand S -> mask of the T with S & T = 0

    def splits(i: int) -> bool:
        low, size = lowers[i], nodes[i].size
        candidates = t_small & low
        for s in bits(summands & low):
            if s not in disjoint:
                over = 0
                for a in bits(lowers[s] & atoms):
                    over |= uppers[a]
                disjoint[s] = ~over
            if candidates & disjoint[s] & by_size.get(size // nodes[s].size, 0):
                return True
        return False

    return splits


def t_lifting_variants(module: FiniteModule) -> dict[str, bool]:
    """Seven equivalent forms for amply supplemented modules, evaluated
    independently."""
    iv = whole_interval(module)
    lat, summands = iv.lattice, iv.summands
    z2 = lat.node_index(zbar2(module))

    # (4)/(5) the square radical of each (coclosed) submodule is a summand
    def node_radicals_split(only_coclosed: bool) -> bool:
        return all(lat.index[zbar2_of_node(module, a)] in summands
                   for i, a in enumerate(lat.nodes)
                   if not only_coclosed or i in iv.coclosed)

    # (7) submodules inside the square radical lift with small remainder
    def inside_radical_form() -> bool:
        return all(any(j in summands and iv.small(i, j) for j in lat.subnode_indices(i))
                   for i in bits(lat.lower_masks()[z2]))

    return {
        "definitional": is_t_lifting(module),
        # (2) every submodule splits as (summand of M) + (relatively small part)
        "split_into_summand_and_t_small":
            all(map(splits_into_summand_and_t_small(iv), range(len(lat)))),
        "t_coclosed_are_summands": iv.t_coclosed <= summands,
        "node_radicals_are_summands": node_radicals_split(False),
        "coclosed_node_radicals_are_summands": node_radicals_split(True),
        "radical_summand_and_lifting":
            z2 in summands and square_radical_has(module, is_lifting),
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
    as node indices in the order of their first endomorphism, and the
    masks of the nodes over some nonzero f(M) (``full_over``) and over
    some nonzero f(Z) (``z_over``).  Both images are read off the
    lattice's node masks from the images of M's and Z's generators, so no
    image is built as a set of codes."""

    def __init__(self, module: FiniteModule):
        tables = end_ring(module).tables  # refuses before the lattice is built
        self.lattice = lat = submodules(module)
        fulls = _image_nodes(lat, tables, module.workspace().generators)
        zs = _image_nodes(lat, tables, zbar2(module).generators())
        self.pairs = list(dict.fromkeys(zip(fulls, zs)))
        uppers = lat.upper_masks()
        self.full_over = self.z_over = 0
        for f, z in self.pairs:
            if f != lat.zero_index:
                self.full_over |= uppers[f]
            if z != lat.zero_index:
                self.z_over |= uppers[z]
        self._pair_closure = None

    def image_pair_closure(self) -> list[tuple[int, int]]:
        """All pairs (sum of images, sum of radical images) realized by
        right ideals, as node indices, in the order :func:`join_closure`
        finds them.

        Ideals are sums of their principal subideals, and a principal
        ideal's image sum equals the single generator's image (radical
        images use that the square radical is carried into itself by each
        endomorphism), so the realized pairs are the join closure of the
        distinct single-endomorphism pairs under the componentwise join
        :meth:`SubmoduleLattice.join`.
        """
        if self._pair_closure is None:
            join = self.lattice.join
            self._pair_closure = join_closure(
                self.pairs, lambda u, v: (join(u[0], v[0]), join(u[1], v[1])))
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


def t_set_is_trivial(n: Submodule, module: FiniteModule) -> bool:
    """T(N) = T(0): no nonzero image of the square radical lies in the
    submodule."""
    data = end_data(module)
    return not data.z_over >> data.lattice.node_index(n) & 1


# -- the dual-Baer family ----------------------------------------------------------


def dual_baer_witness(module: FiniteModule):
    """None when every right ideal has a summand image-sum; otherwise a
    witness (member indexes of a failing right ideal, its image sum F).

    The image sums of right ideals are the first components of
    :meth:`_EndData.image_pair_closure`.  For a failing F the members are
    D(F) = {phi : phi(M) <= F}: it is a right ideal (closed under sums
    and under phi o g), and its image sum is F, since any right ideal
    with image sum F lies inside it."""
    summands = whole_interval(module).summands
    data = end_data(module)
    for full, _ in data.image_pair_closure():
        if full not in summands:
            codes = data.lattice.nodes[full].elements
            return _members(module, module.workspace().generators, codes), codes
    return None


def is_dual_baer(module: FiniteModule) -> bool:
    """Sum of the images of every right ideal splits off."""
    summands = whole_interval(module).summands
    return all(full in summands for full, _ in end_data(module).image_pair_closure())


def is_t_dual_baer(module: FiniteModule) -> bool:
    """For every right ideal, the ideal's image of the square radical
    splits off."""
    data = end_data(module)
    summands = whole_interval(module).summands
    return all(zsum in summands for _, zsum in data.image_pair_closure())


def dual_baer_quotient_condition(module: FiniteModule) -> bool:
    """For every right ideal: the ideal's module-image F, taken modulo the
    ideal's radical-image W, splits off the corresponding quotient: F is
    a direct summand node of the interval [W, M]."""
    data = end_data(module)
    lat = data.lattice
    return all(Interval(lat, zsum, lat.top_index).complement(full) is not None
               for full, zsum in data.image_pair_closure())


def has_sssp_in_zbar2(module: FiniteModule) -> bool:
    """Sums of direct summands contained in the square radical are
    summands (the join closure of those summands)."""
    iv = whole_interval(module)
    lat = iv.lattice
    under_z2 = lat.lower_masks()[lat.node_index(zbar2(module))]
    inside = [j for j in iv.summands if under_z2 >> j & 1]
    return all(i in iv.summands for i in join_closure(inside, lat.join))


def is_regular(module: FiniteModule) -> bool:
    """Every cyclic submodule splits off."""
    iv = whole_interval(module)
    return all(iv.lattice.span_index((code,)) in iv.summands
               for code in range(1, module.size))


def is_semisimple(module: FiniteModule) -> bool:
    return socle(module).is_full()


def t_dual_baer_variants(module: FiniteModule) -> dict[str, bool]:
    """Four equivalent forms, evaluated independently."""
    summands = whole_interval(module).summands
    data = end_data(module)
    # each h(Zbar2(M)) is the image of a submodule, so a node
    radical_images = list(dict.fromkeys(z for _, z in data.pairs))

    def sssp_and_single_images() -> bool:
        return has_sssp_in_zbar2(module) and summands.issuperset(radical_images)

    def subset_sums() -> bool:
        # sums over arbitrary endomorphism subsets = join closure of the
        # single images
        return all(i in summands for i in join_closure(radical_images, data.lattice.join))

    return {
        "definitional": is_t_dual_baer(module),
        "radical_summand_dual_baer":
            data.lattice.node_index(zbar2(module)) in summands
            and square_radical_has(module, is_dual_baer),
        "sssp_and_single_images": sssp_and_single_images(),
        "subset_sums_split": subset_sums(),
    }


# -- K-style conditions ---------------------------------------------------------------


@memo
def k_module_class(module: FiniteModule) -> dict[str, bool]:
    """Flags for the three annihilator-style conditions on submodules:
    only-zero image set forces smallness; radical image set equal to the
    zero one forces relative smallness, respectively plain smallness.
    Memoized, so every caller shares one dict and only reads it.  The
    nodes N with D(N) = {0} are those outside ``full_over``, and those
    with T(N) = T(0) those outside ``z_over``."""
    data = end_data(module)  # a refusal comes before the lattice work
    iv = whole_interval(module)
    lat = iv.lattice
    not_small = ~lat.lower_masks()[iv.rad]
    every = (1 << len(lat)) - 1
    zero_d = every & ~data.full_over
    trivial_t = every & ~data.z_over
    return {"k": not zero_d & not_small,
            "t_k": all(iv.t_small(i, lat.zero_index) for i in bits(trivial_t)),
            "strongly_t_k": not trivial_t & not_small}


def t_trace(module: FiniteModule, c: Submodule) -> frozenset[int]:
    """Sum of the radical images over every endomorphism carrying the
    square radical into the given submodule: the span of the radical
    images that lie in it, one span of their generators."""
    data = end_data(module)
    lat = data.lattice
    ci, uppers, nodes = lat.node_index(c), lat.upper_masks(), lat.nodes
    return nodes[lat.span_index(chain.from_iterable(
        nodes[z].generators() for _, z in data.pairs if uppers[z] >> ci & 1))].elements


def fully_invariant_keys(module: FiniteModule) -> frozenset:
    """Nodes stable under every endomorphism.  Stability under the
    additive basis of the end ring suffices, and f(N) <= N exactly when
    N holds f's images of N's generators."""
    end_data(module)  # over max_end, refuses as every End-ring predicate does
    lat = submodules(module)
    tables = [h.table() for h in end_ring(module).basis_homs()]
    return frozenset(
        node.key for n, node in enumerate(lat.nodes)
        if all(lat.holders(map(tab.__getitem__, node.generators())) >> n & 1
               for tab in tables))
