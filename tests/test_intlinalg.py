import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab.intlinalg import (
    RowBasis,
    echelon_mod_p,
    identity_matrix,
    kernel_mod_p,
    mat_mul,
    prime_modulus,
    smith_normal_form,
    subgroup_decomposition,
)


def _rowspan_residues(rows, modulus=50):
    """Brute-force set of residue vectors in the row span mod a modulus,
    used to compare lattices without caring about basis choice."""
    out = {tuple(0 for _ in rows[0])}
    frontier = [tuple(0 for _ in rows[0])]
    while frontier:
        base = frontier.pop()
        for r in rows:
            nxt = tuple((a + b) % modulus for a, b in zip(base, r))
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_smith_diagonal_divisor_chain(rows):
    diag, v, vinv = smith_normal_form(rows)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_smith_transform_is_unimodular(rows):
    diag, v, vinv = smith_normal_form(rows)
    n = len(v)
    assert mat_mul(v, vinv) == identity_matrix(n)
    assert mat_mul(vinv, v) == identity_matrix(n)


def _rank(rows):
    """Rank over the rationals, by exact elimination."""
    from fractions import Fraction

    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_smith_kernel_columns(rows):
    # the columns of v past the nonzero diagonal solve a @ x = 0, and
    # there are as many as the kernel's dimension
    diag, v, _ = smith_normal_form(rows)
    cols = len(rows[0])
    free = [i for i in range(cols) if i >= len(diag) or diag[i] == 0]
    for i in free:
        assert mat_mul(rows, [[r[i]] for r in v]) == [[0]] * len(rows)
    assert len(free) == cols - _rank(rows)


def test_smith_recovers_known_form():
    # |det| = 8, entry gcd 2, so the invariant factors are 2 and 4
    diag, _, _ = smith_normal_form([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_row_basis_solve_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 5)
        basis = RowBasis(n)
        rows = [[rng.randrange(-8, 9) for _ in range(n)] for _ in range(n + 2)]
        for r in rows:
            basis.add(r)
        for i in range(n):
            basis.add([12 if j == i else 0 for j in range(n)])
        assert basis.is_full_rank()
        # any integer combination of generating rows must solve exactly
        combo = [0] * n
        for r in rows:
            c = rng.randrange(-3, 4)
            combo = [a + c * b for a, b in zip(combo, r)]
        t = basis.solve(combo)
        recon = [0] * n
        for c, brow in zip(t, basis.matrix()):
            recon = [a + c * b for a, b in zip(recon, brow)]
        assert recon == combo


def test_subgroup_decomposition_of_diagonal_subgroup():
    # the diagonal of (Z/4)^2 is cyclic of order 4
    orders, reps, coords = subgroup_decomposition((4, 4), [[1, 1]])
    assert orders == (4,)
    assert coords.coords([2, 2]) == (2,)


def test_subgroup_decomposition_full_group():
    orders, reps, coords = subgroup_decomposition((2, 4), [[1, 0], [0, 1]])
    assert sorted(orders) == [2, 4]
    seen = set()
    for a in range(2):
        for b in range(4):
            seen.add(coords.coords([a, b]))
    assert len(seen) == 8


def test_subgroup_decomposition_trivial():
    orders, reps, coords = subgroup_decomposition((2, 4), [[0, 0]])
    assert orders == ()
    assert reps == []


# all-prime ambient orders take the elimination route, the others Smith's
ambient_orders = st.one_of(
    st.lists(st.sampled_from([2, 3, 4, 8]), min_size=1, max_size=3),
    st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3)).map(lambda pk: [pk[0]] * pk[1]),
)


@settings(max_examples=40, deadline=None)
@given(ambient_orders, st.data())
def test_subgroup_decomposition_counts_match_bruteforce(orders, data):
    orders = tuple(orders)
    k = data.draw(st.integers(0, 2))
    gens = [
        [data.draw(st.integers(0, o - 1)) for o in orders]
        for _ in range(k)
    ]
    factor_orders, reps, coords = subgroup_decomposition(orders, gens)
    # brute-force subgroup size via closure under addition
    seen = {tuple(0 for _ in orders)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    expected = len(seen)
    prod = 1
    for o in factor_orders:
        prod *= o
    assert prod == expected
    # every member solves to a unique coordinate tuple
    assert len({coords.coords(list(x)) for x in seen}) == expected


def test_prime_modulus_needs_one_prime():
    assert prime_modulus([5, 5, 5]) == 5
    assert prime_modulus((2,)) == 2
    assert prime_modulus([4, 4]) is None
    assert prime_modulus([2, 3]) is None
    assert prime_modulus([1]) is None
    assert prime_modulus([]) is None


def random_system(rng, p):
    rows = rng.randrange(0, 6)
    cols = rng.randrange(1, 7)
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], cols


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_mod_p_solves_and_has_smiths_size(p):
    """Every basis vector solves the system, the basis is independent,
    and p^(basis length) is the number of solutions mod p that Smith's
    diagonal gives: p^(columns - diagonal entries prime to p)."""
    rng = random.Random(p)
    for _ in range(200):
        rows, cols = random_system(rng, p)
        basis = kernel_mod_p(rows, cols, p)
        for y in basis:
            assert all(sum(a * b for a, b in zip(row, y)) % p == 0 for row in rows)
        assert len(echelon_mod_p(basis, p)[0]) == len(basis)
        rank = sum(1 for d in smith_normal_form(rows)[0] if d % p) if rows else 0
        assert len(basis) == cols - rank


@pytest.mark.parametrize("p", [2, 3, 5])
def test_echelon_rows_are_reduced(p):
    rng = random.Random(10 + p)
    for _ in range(200):
        rows, _ = random_system(rng, p)
        echelon, pivots = echelon_mod_p(rows, p)
        assert pivots == sorted(pivots) and len(echelon) == len(pivots)
        for i, row in enumerate(echelon):
            assert [row[c] for c in pivots] == [int(i == k) for k in range(len(pivots))]
            assert not any(row[:pivots[i]])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_route_coordinates_round_trip(p):
    """Over (Z/p)^d: a combination of the representatives has its
    coefficients as coordinates, and each generator is the combination
    of the representatives its coordinates give."""
    rng = random.Random(20 + p)
    for _ in range(100):
        d = rng.randrange(1, 5)
        gens = [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randrange(0, 4))]
        orders, reps, coords = subgroup_decomposition((p,) * d, gens)
        assert orders == (p,) * len(reps)
        combo = tuple(rng.randrange(p) for _ in reps)
        x = [sum(c * r[j] for c, r in zip(combo, reps)) % p for j in range(d)]
        assert coords.coords(x) == combo
        for g in gens:
            back = [sum(c * r[j] for c, r in zip(coords.coords(g), reps)) % p
                    for j in range(d)]
            assert back == g
