import pytest

from modlab import config, memo
from modlab.modules import direct_sum, regular_module, span, submodule_as_module
from modlab.rings import builtin_ring, ring_from_constants


@pytest.fixture
def limits():
    """``limits(Limits(...))`` puts other limits in force for the rest of
    the test: it sets ``config.LIMITS`` and empties the memos, so no
    result computed under the limits before is returned.  After the test
    the earlier limits come back, again with empty memos."""
    before = config.LIMITS

    def use(new: config.Limits) -> None:
        config.LIMITS = new
        memo.clear()

    yield use
    config.LIMITS = before
    memo.clear()


@pytest.fixture(scope="session")
def Z4():
    return builtin_ring("Z4")


@pytest.fixture(scope="session")
def Z8():
    return builtin_ring("Z8")


@pytest.fixture(scope="session")
def F3():
    return builtin_ring("F3")


@pytest.fixture(scope="session")
def Z6():
    return builtin_ring("Z6")


@pytest.fixture(scope="session")
def F2xZ4():
    return builtin_ring("F2xZ4")


@pytest.fixture(scope="session")
def T2F2():
    return builtin_ring("T2F2")


@pytest.fixture(scope="session")
def z4_reg(Z4):
    return regular_module(Z4)


@pytest.fixture(scope="session")
def z2_over_z4(z4_reg):
    """Z/2 as a module over Z/4 (the unique size-2 submodule, repackaged)."""
    return submodule_as_module(span(z4_reg, [2])).module


@pytest.fixture(scope="session")
def z2_plus_z4(z2_over_z4, z4_reg):
    return direct_sum(z2_over_z4, z4_reg)


@pytest.fixture(scope="session")
def z8_reg(Z8):
    return regular_module(Z8)


@pytest.fixture(scope="session")
def z2_over_z8(z8_reg):
    return submodule_as_module(span(z8_reg, [4])).module


@pytest.fixture(scope="session")
def z2_plus_z8(z2_over_z8, z8_reg):
    return direct_sum(z2_over_z8, z8_reg)


@pytest.fixture(scope="session")
def s_block(F2xZ4):
    """The simple block component of the product ring, as a module."""
    reg = regular_module(F2xZ4)
    return submodule_as_module(span(reg, [(1, 0)])).module


@pytest.fixture(scope="session")
def c_block(F2xZ4):
    """The chain block component (Z/4 part) of the product ring."""
    reg = regular_module(F2xZ4)
    return submodule_as_module(span(reg, [(0, 1)])).module


@pytest.fixture(scope="session")
def s_plus_c(s_block, c_block):
    return direct_sum(s_block, c_block)


def _path_algebra_constants():
    """Structure constants of the path algebra over F2 of the quiver
    1 -> 3 <- 2, on the basis e1, e2, e3, a, b: the only nonzero products
    are e_i * e_i = e_i, e1 * a = a * e3 = a and e2 * b = b * e3 = b."""
    unit = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    e1, e2, e3, a, b = unit
    products = {(0, 0): e1, (1, 1): e2, (2, 2): e3,
                (0, 3): a, (3, 2): a, (1, 4): b, (4, 2): b}
    return [[products.get((i, j), (0,) * 5) for j in range(5)] for i in range(5)]


@pytest.fixture(scope="session")
def Q():
    """The path algebra Q of 1 -> 3 <- 2 over F2, of order 32.  Its left
    socle S is not inside J(Q), which no built-in ring has."""
    return ring_from_constants((2,) * 5, _path_algebra_constants(), (1, 1, 1, 0, 0))


@pytest.fixture(scope="session")
def Qop():
    """The opposite ring of Q, from the transposed constants."""
    c = _path_algebra_constants()
    return ring_from_constants((2,) * 5, [[c[j][i] for j in range(5)] for i in range(5)],
                               (1, 1, 1, 0, 0))
