"""Module catalog generation: all modules with a bounded number of
generators over a ring, up to isomorphism.

Every n-generated module is a quotient of the free module R^n, so the
catalog is exactly the quotients of R^n by its lattice nodes, for n up to
the policy bound, deduplicated by isomorphism and sorted.  It is closed
under direct summands by construction: a summand N of an n-generated
module M is a quotient of M (along the complement), hence a quotient of
R^n, and |N| <= |M|, so N passes the same size bound.  Only a limit that
skips R^n or one of its quotients can leave a summand out, and the
catalog's ``skipped`` list records each such skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import config
from .errors import SizeLimitExceeded
from .lattice import submodules
from .memo import memo
from .modules import (
    FiniteModule,
    direct_sum_with_maps,
    is_isomorphic,
    iso_signature,
    quotient_module,
    regular_module,
    zero_module,
)
from .rings import FiniteRing


@dataclass(frozen=True)
class GenerationPolicy:
    max_generators: int = 2
    max_size: int = 256


@dataclass
class ModuleCatalog:
    ring: FiniteRing
    ring_id: str
    policy: GenerationPolicy
    modules: list[FiniteModule] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def label(self, index: int) -> str:
        m = self.modules[index]
        orders = "x".join(str(o) for o in m.component_orders) or "0"
        return f"{self.ring_id}[{index}]{{{orders}}}"


@memo
def enumerate_modules(ring: FiniteRing, policy: GenerationPolicy = GenerationPolicy(),
                      ring_id: str = "R") -> ModuleCatalog:
    """The quotients of R^n for n up to the policy bound, deduplicated up
    to isomorphism and sorted.  A ring carries no name, so ``ring_id``
    is the catalog's label prefix only, and part of the memo key."""
    members = [zero_module(ring)]
    # iso_signature -> one representative of each class that has it
    classes = {iso_signature(members[0]): [members[0]]}
    skipped: list[str] = []
    for n in range(1, policy.max_generators + 1):
        if ring.size ** n > config.LIMITS.max_module:
            skipped.append(f"free module R^{n} over module size limit")
            continue
        if n == 1:
            free = regular_module(ring)
        else:
            free = direct_sum_with_maps(*[regular_module(ring)] * n)[0]
        try:
            lat = submodules(free)
        except SizeLimitExceeded as exc:
            skipped.append(f"lattice of R^{n}: {exc}")
            continue
        for node in lat.nodes:
            if free.size // node.size > policy.max_size:
                continue
            try:
                q, _ = quotient_module(free, node)
            except SizeLimitExceeded as exc:
                skipped.append(f"quotient of R^{n}: {exc}")
                continue
            reps = classes.setdefault(iso_signature(q), [])
            if not any(is_isomorphic(rep, q) for rep in reps):
                reps.append(q)
                members.append(q)

    members.sort(key=lambda m: (m.size, m.component_orders, m.action))
    return ModuleCatalog(ring, ring_id, policy, members, skipped)
