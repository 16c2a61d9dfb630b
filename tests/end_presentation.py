"""An End ring as a structure-constant ring, for the tests only: the
definitional listing of its right ideals (the submodule lattice of its
regular module) is an oracle for the image-pair closure of
``tpredicates``.  Also the row-wise enumeration of a hom set, the oracle
for the column-wise :func:`modlab.modules.hom_tables`."""

from functools import lru_cache

from modlab.intlinalg import combine, mat_mul, subgroup_decomposition
from modlab.modules import (
    ModuleHom,
    _HomMatrix,
    additive_group,
    hom_group,
    identity_hom,
    image_table,
)
from modlab.rings import FiniteRing


@lru_cache(maxsize=4)
def _decomposition(end):
    """Cyclic decomposition of the endomorphisms inside the group of flat
    t x t matrices: (orders, basis matrices, coordinate solver)."""
    orders = end.module.component_orders
    t = len(orders)
    ambient = orders * t
    vectors = [[x for row in rep for x in row] for rep in hom_group(end.module, end.module)[1]]
    factor_orders, reps, coords = subgroup_decomposition(ambient, vectors)
    basis = [[rep[j * t:(j + 1) * t] for j in range(t)] for rep in reps]
    return factor_orders, basis, coords


def hom_coords(end, hom: ModuleHom) -> tuple[int, ...]:
    """Coordinates of an endomorphism over the basis of ``as_ring(end)``."""
    return _decomposition(end)[2].coords([x for row in hom.matrix for x in row])


def as_ring(end) -> FiniteRing:
    """The endomorphisms as a structure-constant ring (composition as
    multiplication), so the submodule machinery applies to its right
    ideals."""
    orders = end.module.component_orders
    factor_orders, basis, coords = _decomposition(end)

    def flat(matrix):
        return coords.coords([x for row in matrix for x in row])

    constants = tuple(
        tuple(flat(mat_mul(fj, fi, orders)) for fj in basis)
        for fi in basis)
    return FiniteRing(factor_orders, constants, flat(identity_hom(end.module).matrix))


@lru_cache(maxsize=4)
def _table_positions(end) -> dict[tuple[int, ...], int]:
    return {tuple(tab): i for i, tab in enumerate(end.tables)}


def end_index(end, table) -> int:
    """The index in ``end.tables`` of the endomorphism with this code
    table."""
    return _table_positions(end)[tuple(table)]


def hom_index_from_ring_coords(end, coords: tuple[int, ...]) -> int:
    """Endomorphism index for an element of ``as_ring(end)``."""
    m = end.module
    matrix = combine(coords, _decomposition(end)[1], m.component_orders)
    return end_index(end, ModuleHom(m, m, matrix, validate=False).table())


def hom_tables_by_rows(source, target) -> list:
    """Hom(source, target) as packed code tables, enumerated row by row:
    the table of f + rep is the pointwise sum of the two tables, and the
    tables are sorted by the matrix read off each."""
    orders, reps = hom_group(source, target)
    group = additive_group(target.component_orders)
    tables = [group.pack([0] * source.size)]
    for o, rep in zip(orders, reps):
        step = image_table(source, target, rep)
        block = tables
        tables = list(block)
        for _ in range(1, o):
            block = [group.pack(map(group.add, tab, step)) for tab in block]
            tables.extend(block)
    tables.sort(key=_HomMatrix(source, target))
    return tables
