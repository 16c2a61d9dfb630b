"""An End ring as a structure-constant ring, for the tests only: the
definitional listing of its right ideals (the submodule lattice of its
regular module) is an oracle for the image-pair closure of
``tpredicates``."""

from modlab.intlinalg import subgroup_decomposition
from modlab.modules import ModuleHom, _mat_mul_mod, _reduce_matrix, hom_group
from modlab.rings import FiniteRing


def _coords(end):
    """The coordinate solver of the additive basis ``end.basis_homs()``."""
    orders = end.module.component_orders
    ambient = tuple(o for _ in orders for o in orders)
    vectors = [[x for row in rep for x in row] for rep in hom_group(end.module, end.module)[1]]
    return subgroup_decomposition(ambient, vectors)[2]


def hom_coords(end, hom: ModuleHom) -> tuple[int, ...]:
    """Coordinates of an endomorphism over ``end.basis_homs()``."""
    return _coords(end).coords([x for row in hom.matrix for x in row])


def as_ring(end) -> FiniteRing:
    """The endomorphisms as a structure-constant ring (composition as
    multiplication), so the submodule machinery applies to its right
    ideals."""
    basis = end.basis_homs()
    orders = end.module.component_orders
    coords = _coords(end)

    def flat(matrix):
        return coords.coords([x for row in matrix for x in row])

    constants = tuple(
        tuple(flat(_mat_mul_mod(fj.matrix, fi.matrix, orders)) for fj in basis)
        for fi in basis)
    return FiniteRing(tuple(coords.orders), constants,
                      flat(end.homs[end.identity_index].matrix))


def hom_index_from_ring_coords(end, coords: tuple[int, ...]) -> int:
    """Endomorphism index for an element of ``as_ring(end)``."""
    t = len(end.module.component_orders)
    acc = [[0] * t for _ in range(t)]
    for c, h in zip(coords, end.basis_homs()):
        if c:
            for j in range(t):
                for l in range(t):
                    acc[j][l] += c * h.matrix[j][l]
    return end.index[_reduce_matrix(acc, end.module.component_orders)]
