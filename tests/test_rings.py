import os
import pickle
import subprocess
import sys

import pytest

from modlab.errors import IllFormedConstants, NoIdentity, NonAssociative, SizeLimitExceeded
from modlab.config import Limits
from modlab.rings import (
    build_ring,
    builtin_ring,
    builtin_ring_ids,
    cyclic_ring,
    opposite_ring,
    polynomial_quotient_ring,
    product_ring,
    ring_from_constants,
    upper_triangular_ring,
)


def test_cyclic_ring_forced_structure():
    r = cyclic_ring(4)
    assert r.component_orders == (4,)
    assert r.constants == (((1,),),)
    assert r.size == 4


def test_product_ring_componentwise():
    r = product_ring(cyclic_ring(2), cyclic_ring(4))
    assert r.size == 8
    a = r.element((1, 0))
    b = r.element((0, 1))
    assert (a * b).is_zero()
    assert (a * a).coords == (1, 0)
    assert r.one == (1, 1)


def test_missing_identity_rejected():
    # multiplication is identically zero: no unit exists
    with pytest.raises(NoIdentity):
        ring_from_constants((2,), (((0,),),), (1,))


def test_nonassociative_rejected():
    # e1*e1 = e2, e1*e2 = e1, e2*anything = 0 is not associative
    constants = (
        ((0, 1), (1, 0)),
        ((0, 0), (0, 0)),
    )
    with pytest.raises((NonAssociative, NoIdentity)):
        ring_from_constants((2, 2), constants, (1, 0))


def test_ill_formed_constants_rejected():
    with pytest.raises(IllFormedConstants):
        ring_from_constants((2, 4), (((1,),),), (1, 0))
    # product of order-2 by order-4 coordinates must respect orders
    constants = (
        ((1, 0), (0, 1)),
        ((0, 1), (0, 1)),
    )
    with pytest.raises(IllFormedConstants):
        ring_from_constants((2, 4), constants, (1, 0))


def test_size_limit(limits):
    with pytest.raises(SizeLimitExceeded):
        cyclic_ring(5000)
    limits(Limits(max_ring=8))
    with pytest.raises(SizeLimitExceeded):
        cyclic_ring(9)


def test_all_builtins_valid():
    for rid in builtin_ring_ids():
        ring = builtin_ring(rid)
        assert ring.size <= 8
        # validation already ran in the constructor; sanity: unit works
        one = ring.element(ring.one)
        for x in ring.elements():
            assert (one * x).coords == x.coords
            assert (x * one).coords == x.coords


def is_commutative(ring):
    c = ring.constants
    k = len(ring.component_orders)
    return all(c[i][j] == c[j][i] for i in range(k) for j in range(i + 1, k))


def test_upper_triangular_is_noncommutative():
    t = upper_triangular_ring(2)
    assert not is_commutative(t)
    e11 = t.element((1, 0, 0))
    e12 = t.element((0, 1, 0))
    assert (e11 * e12).coords == (0, 1, 0)
    assert (e12 * e11).is_zero()


def test_opposite_is_commutative_fixed_point():
    z4 = cyclic_ring(4)
    assert opposite_ring(z4) is z4


def test_opposite_is_involutive():
    t = upper_triangular_ring(2)
    assert opposite_ring(opposite_ring(t)) is t


def test_opposite_of_triangular_differs():
    t = upper_triangular_ring(2)
    op = opposite_ring(t)
    assert op.constants != t.constants


def test_polynomial_quotient_ring():
    r = polynomial_quotient_ring(2, 3)
    x = r.element((0, 1, 0))
    assert (x * x).coords == (0, 0, 1)
    assert (x * x * x).is_zero()
    assert r.size == 8


def test_build_ring_dispatcher():
    assert build_ring(("cyclic", 6)).size == 6
    assert build_ring(("product", ("cyclic", 2), ("cyclic", 3))).size == 6
    assert build_ring(("upper_triangular_2x2", 3)).size == 27
    assert build_ring(("polynomial_quotient", 3, 2)).size == 9
    with pytest.raises(IllFormedConstants):
        build_ring(("nonsense", 1))


def test_shorthand_ids_name_one_ring_each():
    """Z<n> is Z/n and F<p> is Z/p for a prime p only, both in plain
    decimal, so no ring answers to two ids."""
    assert builtin_ring("Z12") == cyclic_ring(12)
    assert builtin_ring("F5") == cyclic_ring(5)
    for rid in ("F4", "F9", "Z04", "F07", "Z+4", "Z 4", "Z\u0664", "Z", "F"):
        with pytest.raises(KeyError):
            builtin_ring(rid)


def test_ring_equality_by_content():
    assert cyclic_ring(4) == ring_from_constants((4,), (((1,),),), (1,))
    assert cyclic_ring(4) != cyclic_ring(8)
    assert repr(builtin_ring("F2xZ4")) == "<FiniteRing orders=(2, 4) size=8>"


def test_memo_serves_one_object_to_equal_rings():
    """A ring is its key, so a memo that keeps the first caller's ring
    object returns nothing a later caller with an equal ring could tell
    apart: the character dual over either Z/4 object is one object."""
    from modlab.modules import regular_module
    from modlab.structure import character_dual

    a, b = cyclic_ring(4), cyclic_ring(4)
    assert a is not b
    dual = character_dual(regular_module(a))
    assert character_dual(regular_module(b)) is dual
    assert dual.ring == b and not hasattr(b, "name")


def test_element_arithmetic():
    r = cyclic_ring(6)
    a = r.element((4,))
    b = r.element((5,))
    assert (a + b).coords == (3,)
    assert (a - b).coords == (5,)
    assert (a * b).coords == (2,)
    assert (-a).coords == (2,)


UNPICKLE_AND_HASH = """\
import pickle, sys
key = pickle.loads(sys.stdin.buffer.read())
print(hash(key) == hash(tuple(key)))
"""


def test_keys_hash_as_their_tuples_also_after_a_pickle_round_trip(z2_plus_z4):
    """A ring's or module's key keeps its hash, which equals its plain
    tuple's.  String hashes differ between processes, so a key unpickled
    under another hash seed must hash again, not keep the sender's."""
    keys = (z2_plus_z4.key, z2_plus_z4.ring.key)
    for key in keys:
        back = pickle.loads(pickle.dumps(key))
        assert back == key
        assert hash(key) == hash(tuple(key)) == hash(back) == hash(tuple(back))
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", UNPICKLE_AND_HASH],
                              input=pickle.dumps(keys[0]), capture_output=True,
                              env={**os.environ, "PYTHONHASHSEED": seed}, timeout=120)
        assert proc.stdout.strip() == b"True", proc.stderr[-2000:]
