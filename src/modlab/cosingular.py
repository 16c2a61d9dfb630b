"""The cosingularity radical and its square: the intersection of all
submodules with small quotient, iterated once.

The reject-style definition over the class of all small modules reduces
to the finite intersection of {N <= M : M/N is a small module}, because
any map into a small module factors through such a quotient; the
containment of the radical in every kernel of such a map is regression
tested rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import submodules
from .memo import memo
from .modules import (
    FiniteModule,
    IsoClasses,
    Submodule,
    quotient_module,
    submodule_as_module,
)
from .structure import is_small_module


@dataclass
class CosingularProfile:
    zbar: Submodule
    zbar2: Submodule
    classification: str  # cosingular | noncosingular | mixed


def _zbar_fast(module: FiniteModule) -> Submodule:
    lat = submodules(module)
    current = frozenset(module.elements())
    # ascending size: once N contains the running intersection it cannot
    # shrink it, so skip the quotient computation entirely
    for node in lat.nodes:
        if current <= node.elements:
            continue
        q, _ = quotient_module(module, node)
        if is_small_module(q):
            current = current & node.elements
    return Submodule(module, current)


@memo
def _zbar_classes() -> IsoClasses:
    """The index of the computed radicals, one per isomorphism class."""
    return IsoClasses()


@memo
def zbar(module: FiniteModule) -> Submodule:
    """Intersection of all submodules with small quotient.  Equals the
    whole module exactly when no proper quotient is small.  Memoized per
    presentation and per isomorphism class."""
    classes = _zbar_classes()
    found = classes.find(module)
    if found is not None:
        rep_zbar, iso = found
        return Submodule(module, iso.restrict_codes(rep_zbar.elements))
    sub = _zbar_fast(module)
    classes.add(module, sub)
    return sub


def zbar_witnesses(module: FiniteModule) -> list[Submodule]:
    """All submodules with small quotient: the definitional scan, with no
    pruning and no isomorphism-class transport, that :func:`zbar` is
    tested against."""
    return [node for node in submodules(module).nodes
            if is_small_module(quotient_module(module, node)[0])]


@memo
def zbar2(module: FiniteModule) -> Submodule:
    """The radical applied to its own value, pulled back along the
    inclusion."""
    z = zbar(module)
    if z.is_full():
        return z
    inner = submodule_as_module(z)
    w = zbar(inner.module)
    return Submodule(module, inner.push_out(w.elements))


def is_cosingular(module: FiniteModule) -> bool:
    return zbar(module).is_zero()


def classify(module: FiniteModule) -> CosingularProfile:
    z = zbar(module)
    z2 = zbar2(module)
    if z.is_full() and module.size > 1:
        cls = "noncosingular"
    elif z.is_zero():
        cls = "cosingular"
    else:
        cls = "mixed"
    if module.size == 1:
        cls = "cosingular"
    return CosingularProfile(z, z2, cls)
