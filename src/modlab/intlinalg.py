"""Exact integer matrix utilities: the one matrix product (optionally
reduced by column orders) and identity builder of the package, Smith
normal form with column transforms, triangular lattice bases, and exact
solves.

Matrices are sequences of row sequences of Python ints; working results
are lists of row lists, and reduced products tuples of row tuples.
Everything here is exact;
the sizes involved (coordinate counts of desk-scale modules) stay tiny, so
no effort is made to control entry growth beyond what the algorithms give
for free.
"""

from __future__ import annotations

from operator import mod


def identity_matrix(n: int) -> list[list[int]]:
    """The n x n identity, fresh lists; row i is the unit vector e_i."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b, col_orders: tuple[int, ...] | None = None):
    """Integer matrix product ``a @ b`` (len(a[0]) must equal len(b)), as
    a list of row lists.  With ``col_orders``, column l of the product is
    reduced mod col_orders[l] as it is written, and the result is a tuple
    of row tuples, the hashable form of a reduced matrix."""
    cols = len(col_orders) if col_orders is not None else (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j in range(cols):
                    acc[j] += x * brow[j]
        out.append(acc if col_orders is None else tuple(map(mod, acc, col_orders)))
    return out if col_orders is None else tuple(out)


def combine(coefs, matrices, col_orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """sum_b coefs[b] * matrices[b] for square matrices of len(col_orders)
    rows, reduced as :func:`mat_mul` reduces: the coefficient row times
    the matrices stacked as flat rows."""
    t = len(col_orders)
    stacked = [[x for row in m for x in row] for m in matrices]
    flat = mat_mul((coefs,), stacked, col_orders * t)[0]
    return tuple(flat[j * t:(j + 1) * t] for j in range(t))


def smith_normal_form(
    a: list[list[int]],
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize ``a`` by unimodular row/column operations.

    Returns ``(diag, v, vinv)`` such that ``u @ a @ v`` is diagonal with
    ``diag[0] | diag[1] | ...`` for some unimodular ``u`` (not returned),
    and ``v @ vinv == I``.  ``diag`` has ``min(rows, cols)`` entries, all
    nonnegative.  Only the column transform is tracked because quotient
    and subgroup constructions consume coordinates, not relations.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [list(r) for r in a]
    v = identity_matrix(cols)
    vinv = identity_matrix(cols)

    def col_swap(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for r in s:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]
        for k in range(cols):
            vinv[j][k] -= q * vinv[i][k]

    def col_negate(i):
        for r in s:
            r[i] = -r[i]
        for r in v:
            r[i] = -r[i]
        for k in range(cols):
            vinv[i][k] = -vinv[i][k]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]

    def row_addmul(i, j, q):
        si, sj = s[i], s[j]
        for k in range(cols):
            si[k] += q * sj[k]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # Pick the smallest nonzero entry in the remaining block as pivot.
            pr = pc = -1
            best = None
            for i in range(t, rows):
                row = s[i]
                for j in range(t, cols):
                    x = row[j]
                    if x and (best is None or abs(x) < best):
                        best = abs(x)
                        pr, pc = i, j
            if best is None:
                break
            if pr != t:
                row_swap(pr, t)
            if pc != t:
                col_swap(pc, t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // p
                    if q:
                        row_addmul(i, t, -q)
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // p
                    if q:
                        col_addmul(j, t, -q)
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry for the divisor chain.
            offender = None
            for i in range(t + 1, rows):
                row = s[i]
                for j in range(t + 1, cols):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        if t < n and s[t][t] < 0:
            col_negate(t)

    diag = [s[i][i] if i < cols else 0 for i in range(n)]
    return diag, v, vinv


class RowBasis:
    """Incrementally built triangular basis of an integer row lattice.

    Rows are absorbed one at a time; ``pivots[c]`` holds the basis row
    whose leading entry sits in column ``c``.  Dimension must be full
    before :meth:`solve` is usable.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[list[int] | None] = [None] * ncols

    def add(self, vector: list[int]) -> None:
        v = list(vector)
        for c in range(self.ncols):
            if not v[c]:
                continue
            piv = self.pivots[c]
            if piv is None:
                if v[c] < 0:
                    v = [-x for x in v]
                self.pivots[c] = v
                return
            # gcd-combine so the stored pivot divides future entries
            while v[c]:
                q = piv[c] // v[c]
                piv2 = [piv[k] - q * v[k] for k in range(self.ncols)]
                self.pivots[c] = v
                piv, v = v, piv2
            stored = self.pivots[c]
            if stored[c] < 0:
                self.pivots[c] = [-x for x in stored]

    def is_full_rank(self) -> bool:
        return all(r is not None for r in self.pivots)

    def matrix(self) -> list[list[int]]:
        """Square triangular basis matrix (requires full rank)."""
        assert self.is_full_rank()
        return [list(r) for r in self.pivots]  # type: ignore[union-attr]

    def solve(self, vector: list[int]) -> list[int]:
        """Exact coordinates ``t`` with ``t @ B == vector``; vector must
        lie in the lattice."""
        assert self.is_full_rank()
        v = list(vector)
        t = [0] * self.ncols
        for c in range(self.ncols):
            piv = self.pivots[c]
            assert piv is not None
            if v[c] % piv[c]:
                raise ValueError("vector not in lattice")
            q = v[c] // piv[c]
            t[c] = q
            if q:
                for k in range(c, self.ncols):
                    v[k] -= q * piv[k]
        if any(v):
            raise ValueError("vector not in lattice")
        return t


def subgroup_basis(ambient_orders: tuple[int, ...], generators: list[list[int]]) -> RowBasis:
    """Full-rank basis of the integer lattice over the subgroup generated
    by ``generators`` inside the group with the given component orders:
    the generators together with the relations o_i * e_i.  An integer
    vector lies in the lattice, that is its class lies in the subgroup,
    exactly when :meth:`RowBasis.solve` accepts it."""
    basis = RowBasis(len(ambient_orders))
    for g in generators:
        basis.add([x % o for x, o in zip(g, ambient_orders)])
    for relation in relation_matrix(ambient_orders):
        basis.add(relation)
    return basis


def relation_matrix(orders: tuple[int, ...]) -> list[list[int]]:
    """The relations o_i * e_i of Z/o_1 x ... x Z/o_d, one row each."""
    return [[o * x for x in unit] for o, unit in zip(orders, identity_matrix(len(orders)))]


def subgroup_decomposition(
    ambient_orders: tuple[int, ...], generators: list[list[int]]
) -> tuple[tuple[int, ...], list[tuple[int, ...]], "SubgroupCoords"]:
    """Cyclic decomposition of the subgroup generated by ``generators``
    inside the group with the given component orders.

    Returns ``(orders, basis, coords)``: cyclic factor orders (each > 1,
    divisor chain), one reduced ambient representative vector per factor,
    and a coordinate solver mapping subgroup elements to factor
    coordinates.
    """
    basis = subgroup_basis(ambient_orders, generators)
    # Express the ambient relation lattice in the coordinates of B, then
    # diagonalize: the quotient by those relations is the subgroup.
    c = [basis.solve(relation) for relation in relation_matrix(ambient_orders)]
    diag, v, vinv = smith_normal_form(c)
    keep = [i for i, s in enumerate(diag) if s != 1]
    orders = tuple(diag[i] for i in keep)
    reps = list(mat_mul([vinv[i] for i in keep], basis.matrix(), ambient_orders))
    coords = SubgroupCoords(orders, basis, [[row[i] for i in keep] for row in v])
    return orders, reps, coords


class SubgroupCoords:
    """Maps ambient vectors of a subgroup to its cyclic-factor coordinates:
    the lattice coordinates over the basis, times the kept columns of the
    Smith column transform, reduced mod the factor orders."""

    def __init__(self, orders: tuple[int, ...], basis: RowBasis, v_keep: list[list[int]]):
        self.orders = orders
        self._basis = basis
        self._v_keep = v_keep

    def coords(self, vector: list[int]) -> tuple[int, ...]:
        return mat_mul((self._basis.solve(vector),), self._v_keep, self.orders)[0]
