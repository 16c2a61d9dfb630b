"""Finite right modules, submodules, homomorphisms and endomorphism rings.

Conventions.  A module over a :class:`~modlab.rings.FiniteRing` lives on
Z/m_1 x ... x Z/m_t; elements are mixed-radix codes (little-endian in
basis order).  The action of the ring basis element e_b is a t x t row
matrix A_b: the image of x is x @ A_b with column l reduced mod m_l.
Homomorphism matrices follow the same row convention, so composition
"f then g" is the product F @ G.

Coordinate arithmetic has one implementation of each operation.  The
mixed-radix ``encode``/``decode``, equality and hashing of rings and
modules live in their shared base :class:`~modlab.rings.MixedRadix`.
Every matrix product, from a hom check to a quotient's action matrices
and a ring product through the structure constants, is
:func:`~modlab.intlinalg.mat_mul`, which reduces column l mod its order
as it writes the row when given the column orders; identity and unit
vectors come from :func:`~modlab.intlinalg.identity_matrix`.

Element arithmetic is table-driven.  Modules with the same component
orders share one additive group: its addition table (dense, or
two-level above ``ADD_TABLE_MAX`` elements) is built by composing
translations.  Each module's workspace adds one action table per ring
basis element.  The
whole-module table of any linear map comes from :func:`image_table`,
which uses additivity: the images of a block of codes, translated by
the image of one generator multiple, give the next block.  ``encode``,
``decode`` and ``ModuleHom.apply`` work on single elements, never read a
code table, and serve as the reference the tables are tested against.

Spans are seeded from generator images: G spans the additive span of the
g * e_b (g * r = sum_b r_b (g * e_b), g = g * 1), which seeds the
closure, a quotient's Smith rows and a submodule's own presentation.
Validation is a pure function of a module's key, so it runs once per key.

A submodule has one name at the API boundary, the frozen set of its
element codes: its ``key`` is its ``elements``, which the memos and the
lattice's ``index`` hold, so a code set built by any route (a span, an
image, an intersection) looks its node up as it is.  Inside one lattice
a node is its index and a set of nodes an index set (the summands and
the coclosed, t-coclosed and t-small nodes of
:class:`~modlab.structure.Interval`); the public ``*_keys`` functions
give such a set as element sets.  Codes are sorted only where bytes are
written: witnesses, instance labels, the JSON forms and the lattice disk
cache.

Hom groups are solved, not searched.  :func:`hom_group` writes each
matrix entry F_jl as (n_l / g) * y with y in Z/g, g = gcd(m_j, n_l), so
every candidate is well defined, and solves the remaining congruences
A_b F = F B_b (mod n_l): by elimination mod p when every modulus is one
prime p (every system of an F_2-algebra such as T2F2), by Smith
reduction otherwise.  It returns the cyclic decomposition of Hom(M, N)
inside the matrix group: factor orders and one representative matrix
per factor.  The two routes pick different representatives of one
group; :func:`hom_tables` sorts what it enumerates, so End(M)'s tables
are the same either way.  Counts need only the orders,
subgroup tests only the representatives, and :func:`hom_tables`
enumerates the group (:func:`end_ring` refuses before it starts when
End(M) is over ``max_end``).

Homs are enumerated as code tables.  :func:`hom_tables` lists Hom(M, N)
by columns: column x holds f(x) for every f, and each cyclic factor
(o, rep) of the hom group extends it by copies shifted by multiples of
rep(x), the block translation of :func:`image_table` transposed.  A
shift of a ``bytes`` column is one ``bytes.translate``, so only the
representatives' tables come from matrices and no step works per hom.
The tables are the columns' rows, sorted by the lex ranks of the images
of the additive basis, which is the order of the matrix read off each
(row j holds the coordinates of f(e_j)).  :class:`EndRing` keeps End(M)
as that list alone and builds a ``ModuleHom`` only when asked, as
:func:`hom_set` does for every table.  End(M)'s additive basis is the
:func:`hom_group` representatives as they are.

Code tables are stored packed, in the one type :func:`table_type` gives
for their target's size: ``bytes`` up to 256 elements, an unsigned
16-bit ``array`` above.  Each table is packed as it is produced, by
:func:`image_table` and as :func:`hom_tables` reads a row off its
columns, so no list of codes outlives the step that builds it.  The
8,192 tables of End(Z2 + Z4 + Z4) take 0.53 MB packed (0.60 MB with the
list that holds them), 2.56 MB as lists; their columns add 0.26 MB
while they are built.  Tables index and iterate as lists do, and equal
tables of one target compare equal.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
import operator
from itertools import compress, product
from math import gcd, prod
from typing import Iterable, Sequence

from . import config
from .config import ADD_TABLE_MAX
from .errors import (
    NotSubmodule,
    RingMismatch,
    SizeLimitExceeded,
)
from .intlinalg import (
    combine,
    identity_matrix,
    kernel_mod_p,
    mat_mul,
    prime_modulus,
    relation_matrix,
    smith_normal_form,
    subgroup_decomposition,
)
from .memo import memo
from .rings import FiniteRing, MixedRadix, additive_order


def _reduce_matrix(matrix, col_orders) -> tuple[tuple[int, ...], ...]:
    return tuple([tuple(map(operator.mod, map(int, row), col_orders)) for row in matrix])


class FiniteModule(MixedRadix):
    """Finite right module: additive orders plus one action matrix per
    ring basis element.  Validation checks well-definedness, action
    compatibility with the ring multiplication, and that 1 acts as the
    identity."""

    __slots__ = ("ring", "action", "_ws")

    def __init__(self, ring: FiniteRing, component_orders, action, validate: bool = True):
        orders = tuple(int(m) for m in component_orders)
        if any(m <= 0 for m in orders):
            raise NotSubmodule(f"component orders must be positive, got {orders}")
        t = len(orders)
        max_module = config.LIMITS.max_module
        if prod(orders) > max_module:
            raise SizeLimitExceeded(f"module size {prod(orders)} exceeds limit {max_module}")
        k = len(ring.component_orders)
        if len(action) != k or any(len(a) != t or any(len(r) != t for r in a) for a in action):
            raise NotSubmodule("action must give one t x t matrix per ring basis element")
        self.ring = ring
        self.action = tuple(_reduce_matrix(a, orders) for a in action)
        super().__init__(orders, ("module", ring.key, orders, self.action))
        self._ws = None
        if validate:
            _validate_once(self)

    def _validate(self):
        orders = self.component_orders
        t = len(orders)
        ring = self.ring
        k = len(ring.component_orders)
        for b in range(k):
            mat = self.action[b]
            d = ring.component_orders[b]
            for j in range(t):
                for l in range(t):
                    if (orders[j] * mat[j][l]) % orders[l]:
                        raise NotSubmodule(
                            f"action of e_{b+1} not well defined at entry ({j+1},{l+1})"
                        )
                    if (d * mat[j][l]) % orders[l]:
                        raise NotSubmodule(
                            f"additive order {d} of e_{b+1} does not annihilate "
                            f"its action at entry ({j+1},{l+1})"
                        )
        for i in range(k):
            for j in range(k):
                left = mat_mul(self.action[i], self.action[j], orders)
                if left != self.ring_action_matrix(ring.constants[i][j]):
                    raise NotSubmodule(
                        f"action incompatible with ring product e_{i+1}*e_{j+1}"
                    )
        if self.ring_action_matrix(ring.one) != _reduce_matrix(identity_matrix(t), orders):
            raise NotSubmodule("ring identity does not act as the identity map")

    # -- codes and coordinates -------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    def ring_action_matrix(self, rcoords) -> tuple[tuple[int, ...], ...]:
        """Matrix of x -> x * r for a ring element in coordinates."""
        return combine(rcoords, self.action, self.component_orders)

    def workspace(self) -> "_Workspace":
        if self._ws is None:
            self._ws = _Workspace(self)
        return self._ws

    def zero_submodule(self) -> "Submodule":
        return Submodule(self, frozenset((0,)), gens=())

    def full_submodule(self) -> "Submodule":
        return Submodule(self, frozenset(self.elements()), gens=self.workspace().generators)

    def submodule(self, codes: Iterable[int], gens: Sequence[int] | None = None) -> "Submodule":
        return Submodule(self, frozenset(codes), gens=tuple(gens) if gens is not None else None)

    def __repr__(self):
        return f"<FiniteModule size={self.size} orders={self.component_orders}>"


def _add_table(orders) -> list[list[int]]:
    """Dense addition table of Z/m_1 x ... x Z/m_t on mixed-radix codes,
    built by translation: row c is row c - r_i moved by the "+e_i"
    permutation, where i is the highest nonzero digit of c."""
    n = prod(orders)
    rows = [list(range(n))]
    radix = 1
    for m in orders:
        block = radix * m
        turn = list(range(radix, block)) + list(range(radix))
        step = [x + off for off in range(0, n, block) for x in turn].__getitem__
        for c in range(radix, block):
            rows.append(list(map(step, rows[c - radix])))
        radix = block
    return rows


def _image_table(source_orders, group: "_AdditiveGroup", row_codes) -> list[int]:
    """Target codes of every source code under an additive map, given the
    target codes u_i of the source basis vectors.  By additivity, the
    codes below radix r_i form a block, and the block for digit d of
    component i is that block translated by d * u_i."""
    tab = [0]
    for m, u in zip(source_orders, row_codes):
        block = tab[:]
        y = u
        for _ in range(1, m):
            tab.extend(group.translate(y, block))
            y = group.add(y, u)
    return tab


def table_type(size: int):
    """The packed type of a code table into a target of ``size`` elements,
    built from an iterable of codes: ``bytes`` up to 256 elements, else
    an unsigned ``array`` of 2-byte items (4-byte past 65536)."""
    if size <= 256:
        return bytes
    return partial(array, "H" if size <= 1 << 16 else "L")


def image_table(source: FiniteModule, target: FiniteModule, matrix) -> bytes | array:
    """The image code of every source code under the map with this matrix
    (row convention), indexed by source code, packed by
    :func:`table_type`."""
    group = additive_group(target.component_orders)
    return group.pack(_image_table(source.component_orders, group,
                                   [target.encode(row) for row in matrix]))


class _AdditiveGroup:
    """Z/m_1 x ... x Z/m_t on mixed-radix codes: decode list and addition.
    Depends on the orders only, so modules share it.

    Groups up to ``ADD_TABLE_MAX`` elements get a dense addition table.
    Larger ones split their components at a radix boundary R near the
    square root of the size, so a + b is lo[a % R][b % R] + hi[a // R][b // R]
    with two small tables (hi holding multiples of R)."""

    def __init__(self, orders: tuple[int, ...]):
        self.coords = [c[::-1] for c in product(*map(range, reversed(orders)))]
        if len(self.coords) <= ADD_TABLE_MAX:
            self.add_table = _add_table(orders)
        else:
            self.add_table = None
            cut = min(range(len(orders) + 1),
                      key=lambda s: max(prod(orders[:s]), prod(orders[s:])))
            self._split = split = prod(orders[:cut])
            self._lo = _add_table(orders[:cut])
            self._hi = [list(map(split.__mul__, row)) for row in _add_table(orders[cut:])]
        self.pack = table_type(len(self.coords))
        self._byte_shifts: dict[int, bytes] = {}
        self._lex_rank = None

    def add(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return self.add_table[a][b]
        split = self._split
        return self._lo[a % split][b % split] + self._hi[a // split][b // split]

    def translate(self, a: int, codes: Iterable[int]) -> Iterable[int]:
        """a + b for every b in codes, in order."""
        if self.add_table is not None:
            return map(self.add_table[a].__getitem__, codes)
        split = self._split
        lo, hi = self._lo[a % split], self._hi[a // split]
        return [lo[b % split] + hi[b // split] for b in codes]

    def shifted(self, tab: bytes | array, s: int) -> bytes | array:
        """tab[x] + s at every position x, packed: for bytes, one
        ``bytes.translate`` by the codes c + s, padded to 256."""
        if self.pack is not bytes:
            return self.pack(self.translate(s, tab))
        row = self._byte_shifts.get(s)
        if row is None:
            row = bytes(self.translate(s, range(len(self.coords)))).ljust(256, b"\0")
            self._byte_shifts[s] = row
        return tab.translate(row)

    def lex_ranks(self, tab: bytes | array) -> bytes | array:
        """The rank of every code of tab in the lex order of the codes'
        coordinate tuples, packed: comparing ranks compares coordinates."""
        if self._lex_rank is None:
            rank = [0] * len(self.coords)
            for r, code in enumerate(sorted(range(len(rank)), key=self.coords.__getitem__)):
                rank[code] = r
            self._lex_rank = (bytes(rank).ljust(256, b"\0") if self.pack is bytes
                              else rank)
        if self.pack is bytes:
            return tab.translate(self._lex_rank)
        return self.pack(map(self._lex_rank.__getitem__, tab))

    def additive_closure(self, seeds: Iterable[int]) -> set[int]:
        """Subgroup generated by the seed codes."""
        add = self.add
        group = {0}
        for h in seeds:
            if h in group:
                continue
            base = list(group)
            x = h
            while x not in group:
                group.update(self.translate(x, base))
                x = add(x, h)
        return group


@memo
def additive_group(orders: tuple[int, ...]) -> _AdditiveGroup:
    """The shared additive group of these component orders."""
    return _AdditiveGroup(orders)


@memo
def _validate_once(module: FiniteModule) -> None:
    """FiniteModule._validate, a pure function of the module's key; an
    invalid presentation raises and so is checked again next time."""
    module._validate()


class _Workspace:
    """Per-module element tables: the additive group's tables, per-ring-
    element action maps, generators and generator words.  Built by
    :meth:`FiniteModule.workspace` and shared by everything that touches
    the module."""

    def __init__(self, module: FiniteModule):
        self.module = module
        group = additive_group(module.component_orders)
        self.coords = group.coords
        self.add_table = group.add_table
        # bound methods of the group, so a workspace add is one call;
        # additive_closure(seeds) is a submodule when the seeds include
        # every seed's images under the ring basis, as generator_images does
        self.add = group.add
        self.translate = group.translate
        self.additive_closure = group.additive_closure
        self._basis_action = [image_table(module, module, mat) for mat in module.action]
        self._ring_action: dict[tuple[int, ...], bytes | array] = {}
        self._cyclic: dict[int, frozenset[int]] = {}
        self._generators: tuple[int, ...] | None = None
        self._gen_words: list[tuple[tuple[int, ...], ...]] | None = None
        self._ann_gens: dict[int, tuple[tuple[int, ...], ...]] = {}

    def basis_action(self) -> list[bytes | array]:
        """Per ring basis element e_b, the code table of x -> x * e_b."""
        return self._basis_action

    def action_table(self, rcoords: tuple[int, ...]) -> bytes | array:
        """The code table of x -> x * r for a ring element given in
        coordinates."""
        tab = self._ring_action.get(rcoords)
        if tab is None:
            m = self.module
            tab = image_table(m, m, m.ring_action_matrix(rcoords))
            self._ring_action[rcoords] = tab
        return tab

    def act(self, code: int, rcoords: tuple[int, ...]) -> int:
        """code * r for a ring element given in coordinates."""
        return self.action_table(rcoords)[code]

    # -- spans ---------------------------------------------------------------

    def generator_images(self, gens: Iterable[int]) -> list[int]:
        """The distinct codes g * e_b over the generators and the ring
        basis, ascending.  Their additive span is the submodule the
        generators span: g * r = sum_b r_b (g * e_b), and g = g * 1."""
        return sorted({tab[g] for g in gens for tab in self.basis_action()})

    def span(self, gens: Iterable[int]) -> set[int]:
        """Smallest action-closed subgroup containing the generators."""
        return self.additive_closure(self.generator_images(gens))

    def spanning_subset(self, codes: Iterable[int], size: int) -> list[int]:
        """Greedy generators among the codes, in their order: keep each code
        not yet spanned, and stop once the span has ``size`` elements."""
        gens: list[int] = []
        spanned = {0}
        for code in codes:
            if code in spanned:
                continue
            gens.append(code)
            spanned = self.span(gens)
            if len(spanned) == size:
                break
        return gens

    def cyclic_span(self, code: int) -> frozenset[int]:
        got = self._cyclic.get(code)
        if got is None:
            got = frozenset(self.span((code,)))
            self._cyclic[code] = got
        return got

    # -- generators and words --------------------------------------------

    @property
    def generators(self) -> tuple[int, ...]:
        if self._generators is None:
            self._select_generators()
        return self._generators  # type: ignore[return-value]

    def _select_generators(self):
        # Greedy in ascending code order, which keeps this deterministic.
        m = self.module
        kept = self.spanning_subset(m.elements(), m.size)
        # drop generators made redundant by later picks
        for g in list(kept):
            rest = [x for x in kept if x != g]
            if len(self.span(rest)) == m.size:
                kept = rest
        self._generators = tuple(kept)

    def generator_words(self) -> list[tuple[tuple[int, ...], ...]]:
        """For every element code, ring coordinates (r_1..r_k) with
        x = sum_i g_i * r_i over the selected generators."""
        if self._gen_words is not None:
            return self._gen_words
        m = self.module
        ring = m.ring
        gens = self.generators
        k = len(gens)
        nb = len(ring.component_orders)
        basis = self.basis_action()
        zero_word = tuple(ring.zero_coords() for _ in range(k))
        words: list = [None] * m.size
        words[0] = zero_word
        # moves: x -> x + g_i * e_b, adding e_b into slot i of the word
        moves = []
        for i, g in enumerate(gens):
            for b in range(nb):
                moves.append((i, b, basis[b][g]))
        frontier = [0]
        while frontier:
            new_frontier = []
            for x in frontier:
                wx = words[x]
                for i, b, h in moves:
                    y = self.add(x, h)
                    if words[y] is None:
                        wy = list(wx)
                        coords = list(wy[i])
                        coords[b] = (coords[b] + 1) % ring.component_orders[b]
                        wy[i] = tuple(coords)
                        words[y] = tuple(wy)
                        new_frontier.append(y)
            frontier = new_frontier
        if any(w is None for w in words):
            raise NotSubmodule("generator words incomplete; generators do not span")
        self._gen_words = words
        return words

    def annihilator_generators(self, code: int) -> tuple[tuple[int, ...], ...]:
        """Generators of {r in R : code * r == 0} as a right ideal."""
        got = self._ann_gens.get(code)
        if got is not None:
            return got
        m = self.module
        ring = m.ring
        members = [r for r in ring.element_coords() if self.act(code, r) == 0]
        # greedy generating subset inside the regular module of the ring
        member_codes = sorted(ring.encode(r) for r in members)
        gens = regular_module(ring).workspace().spanning_subset(member_codes, len(member_codes))
        out = tuple(ring.decode(c) for c in gens)
        self._ann_gens[code] = out
        return out


class Submodule:
    """Action-closed subgroup of a parent module, named by the frozen set
    of its element codes: ``key`` is ``elements`` itself."""

    __slots__ = ("parent", "elements", "key", "gens", "_hash")

    def __init__(self, parent: FiniteModule, elements: frozenset[int],
                 gens: tuple[int, ...] | None = None, check: bool = False):
        self.parent = parent
        self.elements = self.key = elements
        self.gens = gens
        self._hash = hash((parent._hash, self.key))
        if check:
            self._check()

    def _check(self):
        ws = self.parent.workspace()
        if 0 not in self.elements:
            raise NotSubmodule("submodule must contain zero")
        if self.elements != frozenset(ws.span(self.generators())):
            raise NotSubmodule("set is not action-closed")

    def generators(self) -> tuple[int, ...]:
        if self.gens is None:
            ws = self.parent.workspace()
            self.gens = tuple(ws.spanning_subset(sorted(self.elements), len(self.elements)))
        return self.gens

    @property
    def size(self) -> int:
        return len(self.elements)

    def is_zero(self) -> bool:
        return len(self.elements) == 1

    def is_full(self) -> bool:
        return len(self.elements) == self.parent.size

    def __contains__(self, code: int) -> bool:
        return code in self.elements

    def __le__(self, other: "Submodule") -> bool:
        return self.elements <= other.elements

    def __lt__(self, other: "Submodule") -> bool:
        return self.elements < other.elements

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.parent._hash == other.parent._hash
            and self.key == other.key
            and self.parent == other.parent
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Submodule size={self.size} of {self.parent!r}>"


def span(module: FiniteModule, gens: Iterable) -> Submodule:
    """Submodule generated by the given elements (codes or coordinate
    tuples)."""
    codes = []
    for g in gens:
        codes.append(module.encode(g) if isinstance(g, (tuple, list)) else int(g))
    ws = module.workspace()
    return Submodule(module, frozenset(ws.span(codes)), gens=tuple(codes))


# -- constructions ----------------------------------------------------------

@memo
def regular_module(ring: FiniteRing) -> FiniteModule:
    """The ring as a right module over itself (right multiplication)."""
    k = len(ring.component_orders)
    action = tuple(
        tuple(ring.constants[j][b] for j in range(k)) for b in range(k)
    )
    return FiniteModule(ring, ring.component_orders, action)


def direct_sum_with_maps(*summands: FiniteModule):
    """Direct sum with canonical injections and projections."""
    if not summands:
        raise ValueError("need at least one summand")
    ring = summands[0].ring
    for m in summands[1:]:
        if m.ring != ring:
            raise RingMismatch("direct sum needs a common base ring")
    orders = tuple(o for m in summands for o in m.component_orders)
    t = len(orders)
    k = len(ring.component_orders)
    action = []
    for b in range(k):
        mat = [[0] * t for _ in range(t)]
        off = 0
        for m in summands:
            tm = len(m.component_orders)
            sub = m.action[b]
            for j in range(tm):
                for l in range(tm):
                    mat[off + j][off + l] = sub[j][l]
            off += tm
        action.append(tuple(tuple(r) for r in mat))
    total = FiniteModule(ring, orders, tuple(action), validate=False)
    injections = []
    projections = []
    unit = identity_matrix(t)
    off = 0
    for m in summands:
        part = slice(off, off + len(m.component_orders))
        injections.append(ModuleHom(m, total, unit[part], validate=False))
        projections.append(ModuleHom(total, m, [row[part] for row in unit], validate=False))
        off = part.stop
    return total, injections, projections


def direct_sum(m: FiniteModule, n: FiniteModule, *rest: FiniteModule) -> FiniteModule:
    return direct_sum_with_maps(m, n, *rest)[0]


def zero_module(ring: FiniteRing) -> FiniteModule:
    k = len(ring.component_orders)
    return FiniteModule(ring, (), tuple(() for _ in range(k)))


def quotient_module(module: FiniteModule, sub: Submodule):
    """Quotient module with the canonical projection.

    The coset group is renormalized to a cyclic decomposition via Smith
    reduction of the relation lattice, so equal inputs give identical
    output presentations.
    """
    if sub.parent != module:
        raise NotSubmodule("quotient needs a submodule of the given module")
    return _quotient(module, sub)


@memo
def _quotient(module: FiniteModule, sub: Submodule):
    orders = module.component_orders
    t = len(orders)
    ws = module.workspace()
    if t == 0 or sub.is_full():
        q = zero_module(module.ring)
        return q, ModuleHom(module, q, [[] for _ in range(t)], validate=False)
    rel = [ws.coords[g] for g in ws.generator_images(sub.generators())]
    diag, v, vinv = smith_normal_form(rel + relation_matrix(orders))
    keep = [i for i, s in enumerate(diag[:t]) if s != 1]
    new_orders = tuple(diag[i] for i in keep)
    proj_matrix = [[v[j][i] for i in keep] for j in range(t)]
    # images of the new basis under the old action, written in new coords
    preimage = [vinv[i] for i in keep]
    action = [mat_mul(mat_mul(preimage, amat), proj_matrix) for amat in module.action]
    q = FiniteModule(module.ring, new_orders, action)
    proj = ModuleHom(module, q, proj_matrix)
    if proj.kernel().elements != sub.elements:
        raise NotSubmodule("projection kernel mismatch; input was not action-closed")
    return q, proj


@dataclass
class SubmoduleModule:
    """A submodule repackaged as a standalone module."""

    module: FiniteModule
    include: "ModuleHom"              # module -> parent


def submodule_as_module(sub: Submodule) -> SubmoduleModule:
    """Standalone presentation of a submodule, with its inclusion."""
    return _standalone(sub.parent, sub)


@memo
def _standalone(parent: FiniteModule, sub: Submodule) -> SubmoduleModule:
    ws = parent.workspace()
    gen_vectors = [ws.coords[c] for c in ws.generator_images(sub.generators())]
    orders, reps, coords = subgroup_decomposition(parent.component_orders, gen_vectors)
    # action matrices: image of each basis representative under e_b
    rep_codes = [parent.encode(rep) for rep in reps]
    action = [[coords.coords(ws.coords[tab[c]]) for c in rep_codes]
              for tab in ws.basis_action()]
    mod = FiniteModule(parent.ring, orders, action)
    return SubmoduleModule(mod, ModuleHom(mod, parent, reps))


class ModuleHom:
    """Right-linear map between modules over the same ring, as a matrix in
    the row convention (row j is the image of the j-th basis vector)."""

    __slots__ = ("source", "target", "matrix", "key", "_hash", "_table", "_image",
                 "_kernel")

    def __init__(self, source: FiniteModule, target: FiniteModule, matrix,
                 validate: bool = True):
        if source.ring != target.ring:
            raise RingMismatch("hom endpoints must share the base ring")
        self.source = source
        self.target = target
        if len(target.component_orders):
            self.matrix = _reduce_matrix(matrix, target.component_orders)
        else:
            self.matrix = tuple(() for _ in range(len(source.component_orders)))
        self._table = None
        self._image = None
        self._kernel = None
        if validate:
            self._validate()
        self.key = (source._hash, target._hash, self.matrix)
        self._hash = hash(self.key)

    @classmethod
    def _reduced(cls, source: FiniteModule, target: FiniteModule, matrix,
                 table: bytes | array | None = None) -> "ModuleHom":
        """A hom from a matrix of tuples already reduced into the target's
        column orders and known to be a hom, with its code table if known:
        no reduction and no check."""
        h = cls.__new__(cls)
        h.source = source
        h.target = target
        h.matrix = matrix
        h._table = table
        h._image = None
        h._kernel = None
        h.key = (source._hash, target._hash, matrix)
        h._hash = hash(h.key)
        return h

    def _validate(self):
        src_orders = self.source.component_orders
        tgt_orders = self.target.component_orders
        f = self.matrix
        for j, mj in enumerate(src_orders):
            for l, nl in enumerate(tgt_orders):
                if (mj * f[j][l]) % nl:
                    raise NotSubmodule(f"hom not well defined at entry ({j+1},{l+1})")
        for b, (a_src, a_tgt) in enumerate(zip(self.source.action, self.target.action)):
            if mat_mul(a_src, f, tgt_orders) != mat_mul(f, a_tgt, tgt_orders):
                raise NotSubmodule(f"map does not commute with the action of e_{b+1}")

    def apply(self, code: int) -> int:
        """The image of one code, by coordinates: the reference the code
        tables are tested against."""
        tgt = self.target
        return tgt.encode(mat_mul((self.source.decode(code),), self.matrix,
                                  tgt.component_orders)[0])

    def then(self, other: "ModuleHom") -> "ModuleHom":
        """Composite: apply self first, then other."""
        if other.source != self.target:
            raise RingMismatch("composition endpoints do not match")
        return ModuleHom._reduced(self.source, other.target,
                                  mat_mul(self.matrix, other.matrix,
                                          other.target.component_orders))

    def add(self, other: "ModuleHom") -> "ModuleHom":
        assert self.source == other.source and self.target == other.target
        mat = [
            [x + y for x, y in zip(r1, r2)]
            for r1, r2 in zip(self.matrix, other.matrix)
        ]
        return ModuleHom(self.source, self.target, mat, validate=False)

    def table(self) -> bytes | array:
        """The image code of every source code, as :func:`image_table`."""
        if self._table is None:
            self._table = image_table(self.source, self.target, self.matrix)
        return self._table

    def image(self) -> Submodule:
        if self._image is None:
            self._image = Submodule(self.target, frozenset(self.table()))
        return self._image

    def kernel(self) -> Submodule:
        if self._kernel is None:
            codes = compress(self.source.elements(), map(operator.not_, self.table()))
            self._kernel = Submodule(self.source, frozenset(codes))
        return self._kernel

    def is_injective(self) -> bool:
        return self.kernel().is_zero()

    def is_surjective(self) -> bool:
        return self.image().size == self.target.size

    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and self.is_injective()

    def restrict_codes(self, codes: Iterable[int]) -> frozenset[int]:
        return frozenset(map(self.table().__getitem__, codes))

    def __eq__(self, other):
        return isinstance(other, ModuleHom) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<ModuleHom {self.source!r} -> {self.target!r}>"


def identity_hom(module: FiniteModule) -> ModuleHom:
    return ModuleHom(module, module, identity_matrix(len(module.component_orders)),
                     validate=False)


def kernel_image(f: ModuleHom) -> tuple[Submodule, Submodule]:
    return f.kernel(), f.image()


# -- hom groups --------------------------------------------------------------

@memo
def iso_signature(module: FiniteModule) -> tuple:
    """Cheap isomorphism invariant: the multiset over elements of
    (additive order, annihilator size, cyclic span size).  R/ann(x) is
    isomorphic to xR, so |ann(x)| = |R| / |xR|.  The multiset of additive
    orders fixes the additive group, so the presentation's component
    orders, which differ between Z2 + Z3 and Z6, are no part of it."""
    ws = module.workspace()
    ring_size = module.ring.size
    profile = []
    for code in module.elements():
        o = additive_order(module.component_orders, ws.coords[code])
        span_size = len(ws.cyclic_span(code))
        profile.append((o, ring_size // span_size, span_size))
    return tuple(sorted(profile))


@memo
def hom_group(source: FiniteModule, target: FiniteModule
              ) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], ...]]]:
    """Cyclic decomposition ``(orders, reps)`` of Hom(source, target)
    inside the group of matrices whose column l lives in Z/n_l: factor
    orders (a divisor chain) and one representative matrix per factor.

    Entry (j, l) is written (n_l / g) * y with y in Z/g, g = gcd(m_j, n_l),
    which is exactly the well-defined entries.  What remains is the
    congruence system (A_b F - F B_b)_jl = 0 mod n_l.  When every g and
    every n_l of a kept equation is one prime p, the solutions are the
    kernel of the system over F_p: :func:`~modlab.intlinalg.kernel_mod_p`
    gives a basis, which is the representatives, each of order p.
    Otherwise the integer kernel, read off the column transform of a
    Smith reduction, spans the solutions and
    :func:`~modlab.intlinalg.subgroup_decomposition` decomposes them.
    The routes differ only in the representatives, and no output reads
    them as they are: :func:`hom_tables` sorts the group it enumerates,
    and the other callers count or test membership."""
    if source.ring != target.ring:
        raise RingMismatch("hom endpoints must share the base ring")
    src, tgt = source.component_orders, target.component_orders
    cells, mods = [], []
    for j, m in enumerate(src):
        for l, n in enumerate(tgt):
            if (g := gcd(m, n)) > 1:
                cells.append((j, l))
                mods.append(g)
    if not cells:  # every entry is 0 mod its gcd: only the zero hom
        return (), []
    var = {cell: i for i, cell in enumerate(cells)}
    # n_l / g per variable: the scale from y back to the matrix entry
    scale = [tgt[l] // g for (j, l), g in zip(cells, mods)]
    equations, moduli = [], []
    for a, b in zip(source.action, target.action):
        for j in range(len(src)):
            for l, n in enumerate(tgt):
                row = [0] * len(cells)
                for k, x in enumerate(a[j]):     # (A_b F)_jl
                    i = var.get((k, l))
                    if x and i is not None:
                        row[i] += x * scale[i]
                for k, brow in enumerate(b):     # (F B_b)_jl
                    i = var.get((j, k))
                    if brow[l] and i is not None:
                        row[i] -= scale[i] * brow[l]
                row = [x % n for x in row]
                if any(row):
                    equations.append(row)
                    moduli.append(n)
    v_count, r_count = len(cells), len(equations)
    if (p := prime_modulus(mods + moduli)) is not None:
        y_reps = kernel_mod_p(equations, v_count, p)
        orders = (p,) * len(y_reps)
    else:
        if equations:
            # The y with C y = 0 mod the moduli are the first v_count
            # entries of the integer kernel of [C | diag(moduli)].  That
            # matrix has full row rank, so its kernel is spanned by the
            # columns of the Smith column transform past the diagonal.
            system = [row + rel for row, rel in zip(equations, relation_matrix(moduli))]
            _, v, _ = smith_normal_form(system)
            gens = [[v[r][i] for r in range(v_count)]
                    for i in range(r_count, r_count + v_count)]
        else:
            gens = identity_matrix(v_count)
        orders, y_reps, _ = subgroup_decomposition(tuple(mods), gens)
    reps = []
    for y in y_reps:
        mat = [[0] * len(tgt) for _ in src]
        for (j, l), yi, sc in zip(cells, y, scale):
            mat[j][l] = yi * sc
        reps.append(tuple(map(tuple, mat)))
    return orders, reps


class _HomMatrix:
    """The matrix of a hom source -> target read off its code table: row j
    is the coordinate vector of f(e_j), the target code tab[e_j].  The
    rows are the additive group's shared coordinate tuples."""

    __slots__ = ("units", "coords")

    def __init__(self, source: FiniteModule, target: FiniteModule):
        # encode reduces, so e_j of a component of order 1 is code 0
        self.units = [source.encode(e) for e in identity_matrix(len(source.component_orders))]
        self.coords = additive_group(target.component_orders).coords

    def __call__(self, tab: bytes | array) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.coords.__getitem__, map(tab.__getitem__, self.units)))


def hom_tables(source: FiniteModule, target: FiniteModule) -> list[bytes | array]:
    """The code table of every hom source -> target, in the canonical
    (matrix-sorted) order, enumerated from :func:`hom_group` by columns.

    Column x holds f(x) for every f of the enumeration.  Each cyclic
    factor (o, rep) turns it into col, col + s, ..., col + (o - 1) s with
    s = rep(x), each block the previous one shifted by s, so the column
    of every element is built with no per-hom work; the tables are the
    rows of the columns.  They are sorted by the lex ranks of the images
    of the additive basis, which determine the hom and order it as its
    matrix does (row j holds the coordinates of f(e_j))."""
    orders, reps = hom_group(source, target)
    group = additive_group(target.component_orders)
    steps = [image_table(source, target, rep) for rep in reps]
    cols = []
    for x in source.elements():
        col = group.pack((0,))
        for o, step in zip(orders, steps):
            block = col
            for _ in range(1, o):
                block = group.shifted(block, step[x])
                col = col + block
        cols.append(col)
    tables = list(map(group.pack, zip(*cols)))
    if len(tables) > 1:  # else a zero source may have no basis to rank
        units = _HomMatrix(source, target).units
        keys = list(map(group.pack, zip(*[group.lex_ranks(cols[u]) for u in units])))
        tables = list(map(tables.__getitem__, sorted(range(len(tables)), key=keys.__getitem__)))
    return tables


def hom_set(source: FiniteModule, target: FiniteModule) -> list[ModuleHom]:
    """Every hom source -> target, with its code table set, in the order
    of :func:`hom_tables`."""
    matrix = _HomMatrix(source, target)
    return [ModuleHom._reduced(source, target, matrix(tab), tab)
            for tab in hom_tables(source, target)]


def find_isomorphism(m: FiniteModule, n: FiniteModule) -> ModuleHom | None:
    """A bijective hom m -> n, or None.  Equal presentations (same ring,
    orders and action matrices) give the identity matrix.  Otherwise
    cheap invariants first, then a search over generator images filtered
    by additive order, annihilator and span size."""
    if m.ring != n.ring:
        raise RingMismatch("isomorphism needs a common base ring")
    if m == n:
        return ModuleHom(m, n, identity_matrix(len(m.component_orders)), validate=False)
    if m.size != n.size:
        return None
    if iso_signature(m) != iso_signature(n):
        return None
    mws = m.workspace()
    nws = n.workspace()
    gens = mws.generators
    k = len(gens)
    if k == 0:
        return ModuleHom(m, n, [], validate=False)
    words = mws.generator_words()
    coord_rows = [words[m.encode(unit)] for unit in identity_matrix(len(m.component_orders))]
    cand_sets = []
    for g in gens:
        ann = mws.annihilator_generators(g)
        o = additive_order(m.component_orders, mws.coords[g])
        cand = [
            y for y in n.elements()
            if additive_order(n.component_orders, nws.coords[y]) == o
            and all(nws.act(y, r) == 0 for r in ann)
        ]
        cand_sets.append(cand)

    spans_m = [len(mws.span(gens[: i + 1])) for i in range(k)]

    def extend(partial: tuple[int, ...]) -> ModuleHom | None:
        depth = len(partial)
        if depth == k:
            # the words give the only matrix that can send each g_i to
            # partial[i]; the images extend to a hom exactly when that
            # matrix is a hom and does so
            rows = []
            for word in coord_rows:
                acc = 0
                for yi, ri in zip(partial, word):
                    if any(ri):
                        acc = nws.add(acc, nws.act(yi, ri))
                rows.append(nws.coords[acc])
            try:
                h = ModuleHom(m, n, rows)
            except NotSubmodule:
                return None
            table = h.table()
            if all(table[g] == y for g, y in zip(gens, partial)) and h.is_bijective():
                return h
            return None
        for y in cand_sets[depth]:
            if len(nws.span(partial + (y,))) != spans_m[depth]:
                continue
            got = extend(partial + (y,))
            if got is not None:
                return got
        return None

    return extend(())


def is_isomorphic(m: FiniteModule, n: FiniteModule) -> bool:
    return find_isomorphism(m, n) is not None


# -- endomorphism rings ------------------------------------------------------

class EndRing:
    """All endomorphisms of a module as code tables, with an additive basis
    of the group they form.

    ``tables`` is the canonical list of :func:`hom_tables`, built by
    columns and sorted by matrix with no repeats, each table packed by
    :func:`table_type`.  ``hom(i)`` builds the i-th endomorphism as a
    ``ModuleHom`` on each call.
    """

    def __init__(self, module: FiniteModule, tables: list[bytes | array]):
        self.module = module
        self.tables = tables
        self._matrix = _HomMatrix(module, module)
        self._idempotents = None

    @property
    def size(self) -> int:
        return len(self.tables)

    def hom(self, i: int) -> ModuleHom:
        """The i-th endomorphism, built from its table."""
        m, tab = self.module, self.tables[i]
        return ModuleHom._reduced(m, m, self._matrix(tab), tab)

    def basis_homs(self) -> list[ModuleHom]:
        """The :func:`hom_group` representatives, which generate the
        endomorphisms additively."""
        m = self.module
        return [ModuleHom._reduced(m, m, rep) for rep in hom_group(m, m)[1]]

    def idempotents_by_image(self) -> dict[frozenset[int], ModuleHom]:
        """For each image of an idempotent endomorphism, the first such
        idempotent in canonical order.  h is idempotent exactly when
        h(h(e_j)) = h(e_j) on the additive basis e_j, so only an
        idempotent's image is read off its table."""
        if self._idempotents is None:
            units = self._matrix.units
            out: dict[frozenset[int], ModuleHom] = {}
            for i, tab in enumerate(self.tables):
                if all(tab[tab[u]] == tab[u] for u in units):
                    img = frozenset(tab)
                    if img not in out:
                        out[img] = self.hom(i)
            self._idempotents = out
        return self._idempotents


def end_ring_size(module: FiniteModule) -> int:
    """The number of endomorphisms, the product of :func:`hom_group`'s
    orders.  Raises :class:`SizeLimitExceeded` above ``max_end``."""
    size = prod(hom_group(module, module)[0])
    max_end = config.LIMITS.max_end
    if size > max_end:
        raise SizeLimitExceeded(f"endomorphism ring of size {size} over limit {max_end}")
    return size


@memo
def end_ring(module: FiniteModule) -> EndRing:
    """The endomorphism ring, checked against ``max_end`` by
    :func:`end_ring_size` before anything is enumerated."""
    end_ring_size(module)
    return EndRing(module, hom_tables(module, module))
