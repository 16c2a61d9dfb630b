"""The cosingularity radical and its square: the intersection of all
submodules with small quotient, iterated once (Talebi and Vanaja, "The
torsion theory cogenerated by M-small modules", Comm. Algebra 30, 2002).

The reject-style definition over the class of all small modules reduces
to the finite intersection of {N <= M : M/N is a small module}, because
any map into a small module factors through such a quotient.

Closed form.  Write J = J(R) and S = Soc(_R R) = {s : J * s = 0}, the
socle of R as a left module; S is a two-sided ideal.  A finite module N
is small (in its injective hull) exactly when N * S = 0:

- :func:`structure.injective_hull` builds E(N) as D(P), where D is the
  character duality and p: P -> D(N) the projective cover, and N sits in
  D(P) as the image of D(p), which is the annihilator of ker(p).
- N is small in E(N) exactly when N <= Rad E(N).  D turns Rad D(P) into
  the annihilator of Soc(P), so this holds exactly when Soc(P) <= ker(p),
  that is, when p kills Soc(P).
- P is a sum of cyclic projectives R * e_i with p(e_i) = x_i, and
  Soc(R * e_i) = S * e_i, so p(Soc P) is the span of the S * x_i.  The
  x_i generate D(N) and S is a two-sided ideal, so that span is
  S * D(N).
- A ring element acts on D(N) by the transpose of its action on N, so it
  kills D(N) exactly when it kills N.  Hence N is small exactly when
  N * S = 0.

So M/K is small exactly when M * S <= K, and M * S is itself a
submodule: Zbar(M) = M * S, and Zbar2(M) = Zbar(M * S) = M * S^2.  Both
are spans, computed like Rad(M) = M * J from the few additive generators
of S (:func:`lattice.times_left_socle`); no quotient, submodule module or
hull is built.  Two corollaries serve the t-notions: the preimage of
Zbar2(M/N) in M is N + M * S^2, and Zbar2 of a submodule C is C * S^2.
The hull route, smallness read as N <= Rad E(N), is the oracle the tests
check the closed form against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import times_left_socle
from .memo import memo
from .modules import FiniteModule, Submodule


@dataclass
class CosingularProfile:
    zbar: Submodule
    zbar2: Submodule
    classification: str  # cosingular | noncosingular | mixed


@memo
def zbar(module: FiniteModule) -> Submodule:
    """Intersection of all submodules with small quotient: M * S.  Equals
    the whole module exactly when no proper quotient is small."""
    return Submodule(module, times_left_socle(module, module.elements()))


@memo
def zbar2(module: FiniteModule) -> Submodule:
    """The radical applied to its own value: (M * S) * S."""
    return Submodule(module, times_left_socle(module, zbar(module).elements))


@memo
def zbar2_of_node(module: FiniteModule, sub: Submodule) -> frozenset[int]:
    """The square radical of a submodule viewed as a module, as a code set
    of the parent: C * S^2."""
    return times_left_socle(module, times_left_socle(module, sub.elements))


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
