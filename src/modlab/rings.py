"""Finite unital rings given by an additive cyclic decomposition plus
structure constants.

A ring lives on the group Z/d_1 x ... x Z/d_k with basis e_1..e_k; the
product is the bilinear extension of e_i * e_j = sum_l c[i][j][l] e_l.
Construction validates well-definedness, associativity on basis triples
and the two-sided identity, so every :class:`FiniteRing` in circulation
is an actual ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import Iterator

from . import config
from .errors import IllFormedConstants, NoIdentity, NonAssociative, SizeLimitExceeded
from .intlinalg import combine, identity_matrix, mat_mul
from .memo import memo


class HashedKey(tuple):
    """A key tuple that keeps its hash.  Every memo lookup hashes the keys
    of its ring and module arguments, and a module's key nests its ring's
    key and action matrices, so hashing it anew costs about a microsecond
    where this costs one attribute read.  String hashes differ between
    processes, so an unpickled key hashes again: ``__reduce__`` rebuilds
    it from a plain tuple."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (tuple(self),)


class MixedRadix:
    """The group Z/d_1 x ... x Z/d_k with its elements as mixed-radix
    codes, little-endian in basis order, equal and hashed by ``key``.
    The one codec of rings and modules: their keys are tagged "ring" and
    "module", so key equality alone separates the two."""

    __slots__ = ("component_orders", "size", "key", "_hash", "_radix")

    def __init__(self, orders: tuple[int, ...], key: tuple):
        self.component_orders = orders
        self.size = prod(orders)
        self._radix = tuple(prod(orders[:i]) for i in range(len(orders)))
        self.key = HashedKey(key)
        self._hash = self.key._hash

    def encode(self, coords) -> int:
        """The code of a coordinate vector, each coordinate reduced first."""
        return sum((int(x) % d) * r for x, d, r in zip(coords, self.component_orders, self._radix))

    def decode(self, code: int) -> tuple[int, ...]:
        return tuple((code // r) % d for r, d in zip(self._radix, self.component_orders))

    def __eq__(self, other):
        return isinstance(other, MixedRadix) and self.key == other.key

    def __hash__(self):
        return self._hash


class FiniteRing(MixedRadix):
    """Finite associative ring with identity, in structure-constant form.

    ``component_orders``: additive orders (d_1..d_k) of the basis.
    ``constants``: c[i][j] is the coordinate vector of e_i * e_j.
    ``one``: coordinate vector of the multiplicative identity.
    Instances are immutable and hashable by content.  A ring is its key:
    it carries no name, so ring ids live only where they are used (the
    built-in table, the CLI and module catalogs).
    """

    __slots__ = ("constants", "one", "_opposite")

    def __init__(self, component_orders, constants, one):
        orders = tuple(int(d) for d in component_orders)
        if any(d <= 0 for d in orders):
            raise IllFormedConstants(f"component orders must be positive, got {orders}")
        k = len(orders)
        max_ring = config.LIMITS.max_ring
        if prod(orders) > max_ring:
            raise SizeLimitExceeded(f"ring size {prod(orders)} exceeds limit {max_ring}")
        if len(constants) != k or any(
            len(ci) != k or any(len(cij) != k for cij in ci) for ci in constants
        ):
            raise IllFormedConstants("structure constants must be a k x k table of k-vectors")
        if len(one) != k:
            raise IllFormedConstants("identity vector has wrong length")
        tbl = tuple(
            tuple(tuple(int(x) % orders[l] for l, x in enumerate(cij)) for cij in ci)
            for ci in constants
        )
        self.constants = tbl
        self.one = tuple(int(x) % orders[l] for l, x in enumerate(one))
        super().__init__(orders, ("ring", orders, tbl, self.one))
        self._opposite = None
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self):
        orders = self.component_orders
        k = len(orders)
        c = self.constants
        units = [tuple(e) for e in identity_matrix(k)]
        # changing a factor by its order must not change the product
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    x = c[i][j][l]
                    if (orders[i] * x) % orders[l] or (orders[j] * x) % orders[l]:
                        raise IllFormedConstants(
                            f"product e_{i+1}*e_{j+1} not well defined in coordinate {l+1}"
                        )
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    left = self.mul_coords(c[i][j], units[m])
                    right = self.mul_coords(units[i], c[j][m])
                    if left != right:
                        raise NonAssociative(
                            f"(e_{i+1}e_{j+1})e_{m+1} != e_{i+1}(e_{j+1}e_{m+1})"
                        )
        for j, ej in enumerate(units):
            if self.mul_coords(self.one, ej) != ej or self.mul_coords(ej, self.one) != ej:
                raise NoIdentity(f"declared identity is not a unit on e_{j+1}")

    # -- coordinate arithmetic -------------------------------------------

    def zero_coords(self) -> tuple[int, ...]:
        return (0,) * len(self.component_orders)

    def add_coords(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.component_orders))

    def neg_coords(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.component_orders))

    def mul_coords(self, a, b) -> tuple[int, ...]:
        # constants[i] is the matrix of e_i * -, so a times them is the
        # matrix of a * -, whose row j is a * e_j
        orders = self.component_orders
        return mat_mul((b,), combine(a, self.constants, orders), orders)[0]

    def element_coords(self) -> Iterator[tuple[int, ...]]:
        for code in range(self.size):
            yield self.decode(code)

    # -- element wrappers --------------------------------------------------

    def element(self, coords) -> "RingElement":
        return RingElement(self, tuple(int(x) % d for x, d in zip(coords, self.component_orders)))

    def zero(self) -> "RingElement":
        return RingElement(self, self.zero_coords())

    def elements(self) -> Iterator["RingElement"]:
        for coords in self.element_coords():
            yield RingElement(self, coords)

    def idempotent_coords(self) -> list[tuple[int, ...]]:
        """All coordinates e with e*e == e, in code order."""
        return [a for a in self.element_coords() if self.mul_coords(a, a) == a]

    def __repr__(self):
        return f"<FiniteRing orders={self.component_orders} size={self.size}>"


@dataclass(frozen=True)
class RingElement:
    """Element of a :class:`FiniteRing`, as a reduced coordinate vector."""

    ring: FiniteRing
    coords: tuple[int, ...]

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.ring, self.ring.add_coords(self.coords, other.coords))

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, self.ring.neg_coords(self.coords))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.ring, self.ring.mul_coords(self.coords, other.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        return f"RingElement{self.coords}"


# -- constructors ----------------------------------------------------------


def cyclic_ring(n: int) -> FiniteRing:
    """Z/n with its usual multiplication."""
    if n <= 0:
        raise IllFormedConstants("cyclic ring order must be positive")
    return FiniteRing((n,), (((1,),),), (1,))


def product_ring(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Componentwise product ring R1 x R2."""
    k1 = len(r1.component_orders)
    k2 = len(r2.component_orders)
    k = k1 + k2
    orders = r1.component_orders + r2.component_orders

    def pad1(v):
        return tuple(v) + (0,) * k2

    def pad2(v):
        return (0,) * k1 + tuple(v)

    zero = (0,) * k
    constants = []
    for i in range(k):
        row = []
        for j in range(k):
            if i < k1 and j < k1:
                row.append(pad1(r1.constants[i][j]))
            elif i >= k1 and j >= k1:
                row.append(pad2(r2.constants[i - k1][j - k1]))
            else:
                row.append(zero)
        constants.append(tuple(row))
    one = tuple(r1.one) + tuple(r2.one)
    return FiniteRing(orders, tuple(constants), one)


def ring_from_constants(component_orders, constants, one) -> FiniteRing:
    """Validated ring from raw structure-constant data."""
    return FiniteRing(component_orders, constants, one)


def upper_triangular_ring(p: int) -> FiniteRing:
    """Upper triangular 2x2 matrices over Z/p, basis (E11, E12, E22)."""
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise IllFormedConstants(f"modulus {p} must be prime for the triangular matrix ring")
    z = (0, 0, 0)
    e11, e12, e22 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    constants = (
        (e11, e12, z),
        (z, z, e12),
        (z, z, e22),
    )
    return FiniteRing((p, p, p), constants, (1, 0, 1))


def polynomial_quotient_ring(p: int, n: int) -> FiniteRing:
    """(Z/p)[x] / (x^n), basis 1, x, ..., x^(n-1)."""
    if n <= 0:
        raise IllFormedConstants("polynomial quotient degree must be positive")
    x_power = identity_matrix(n)
    constants = [[x_power[i + j] if i + j < n else [0] * n for j in range(n)] for i in range(n)]
    return FiniteRing((p,) * n, constants, x_power[0])


def opposite_ring(r: FiniteRing) -> FiniteRing:
    """Same additive group, reversed multiplication.  Involutive on the nose."""
    if r._opposite is not None:
        return r._opposite
    k = len(r.component_orders)
    constants = tuple(tuple(r.constants[j][i] for j in range(k)) for i in range(k))
    if constants == r.constants:
        r._opposite = r
        return r
    op = FiniteRing(r.component_orders, constants, r.one)
    op._opposite = r
    r._opposite = op
    return op


def build_ring(spec) -> FiniteRing:
    """Build a ring from a tagged tuple.

    Accepted forms:
      ("cyclic", n); ("product", spec1, spec2);
      ("structure_constants", {"orders":..., "constants":..., "one":...});
      ("upper_triangular_2x2", p); ("polynomial_quotient", p, n).
    """
    tag, *args = spec
    if tag == "cyclic":
        return cyclic_ring(*args)
    if tag == "product":
        return product_ring(build_ring(args[0]), build_ring(args[1]))
    if tag == "structure_constants":
        raw = args[0]
        return ring_from_constants(raw["orders"], raw["constants"], raw["one"])
    if tag == "upper_triangular_2x2":
        return upper_triangular_ring(*args)
    if tag == "polynomial_quotient":
        return polynomial_quotient_ring(*args)
    raise IllFormedConstants(f"unknown ring spec tag {tag!r}")


# The default verification rings: two chain rings with zero second radical
# of the cosingularity filtration, two semisimple rings, one ring with a
# proper nonzero noncosingular block, and one noncommutative ring.
_BUILTIN_SPECS = {
    "Z4": ("cyclic", 4),
    "Z8": ("cyclic", 8),
    "F3": ("cyclic", 3),
    "Z6": ("cyclic", 6),
    "F2xZ4": ("product", ("cyclic", 2), ("cyclic", 4)),
    "T2F2": ("upper_triangular_2x2", 2),
}

def builtin_ring_ids() -> list[str]:
    return list(_BUILTIN_SPECS)


@memo
def builtin_ring(ring_id: str) -> FiniteRing:
    """Look up a built-in ring id (also accepts Z<n> / F<p> shorthand, with
    n and the prime p in plain decimal without leading zeros, so each ring
    has one id)."""
    if ring_id in _BUILTIN_SPECS:
        return build_ring(_BUILTIN_SPECS[ring_id])
    head, digits = ring_id[:1], ring_id[1:]
    if (head in ("Z", "F") and digits.isascii() and digits.isdigit()
            and (digits == "0" or digits[0] != "0")):
        ring = cyclic_ring(int(digits))
        if head == "Z" or all(ring.size % d for d in range(2, isqrt(ring.size) + 1)):
            return ring
    raise KeyError(f"unknown ring id {ring_id!r}")


def additive_order(orders, coords) -> int:
    """Additive order of a coordinate vector in the group with these
    component orders."""
    out = 1
    for x, d in zip(coords, orders):
        if x:
            o = d // gcd(x, d)
            out = out * o // gcd(out, o)
    return out

