"""Module catalog generation: all modules with a bounded number of
generators over a ring, up to isomorphism, closed under direct summands.

Every n-generated module is a quotient of the free module R^n, so the
catalog enumerates quotients of free modules by their lattice nodes and
deduplicates by isomorphism.  Summand closure keeps the catalog usable
for hereditary statements about direct summands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_LIMITS, Limits
from .errors import SizeLimitExceeded
from .lattice import submodules
from .memo import memo
from .modules import (
    FiniteModule,
    IsoClasses,
    direct_sum_with_maps,
    quotient_module,
    regular_module,
    submodule_as_module,
    zero_module,
)
from .rings import FiniteRing
from .structure import summand_keys


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


def enumerate_modules(ring: FiniteRing, policy: GenerationPolicy = GenerationPolicy(),
                      ring_id: str | None = None,
                      limits: Limits = DEFAULT_LIMITS) -> ModuleCatalog:
    """Quotients of R^n for n up to the policy bound, deduplicated up to
    isomorphism and closed under direct summands.  Memoized with the ring
    id resolved, since a ring's key leaves out its name."""
    return _enumerate(ring, policy, ring_id or ring.name or "R", limits)


@memo
def _enumerate(ring: FiniteRing, policy: GenerationPolicy, rid: str,
               limits: Limits) -> ModuleCatalog:
    catalog = ModuleCatalog(ring, rid, policy)
    members: list[FiniteModule] = []
    classes = IsoClasses()
    skipped: list[str] = []

    def try_add(candidate: FiniteModule) -> None:
        if candidate.size > policy.max_size:
            skipped.append(f"size {candidate.size} over policy bound")
            return
        if classes.find(candidate) is None:
            classes.add(candidate)
            members.append(candidate)

    try_add(zero_module(ring))
    for n in range(1, policy.max_generators + 1):
        if ring.size ** n > limits.max_module:
            skipped.append(f"free module R^{n} over module size limit")
            continue
        if n == 1:
            free = regular_module(ring)
        else:
            free = direct_sum_with_maps(*[regular_module(ring)] * n)[0]
        try:
            lat = submodules(free, limits)
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
            try_add(q)

    # close under direct summands
    changed = True
    while changed:
        changed = False
        for m in list(members):
            before = len(members)
            try:
                keys = summand_keys(m)
            except SizeLimitExceeded as exc:
                skipped.append(f"summand closure on {m!r}: {exc}")
                continue
            lat = submodules(m)
            for key in sorted(keys):
                node = lat.nodes[lat.index[key]]
                if node.is_zero() or node.is_full():
                    continue
                try_add(submodule_as_module(node).module)
            if len(members) != before:
                changed = True

    members.sort(key=lambda m: (m.size, m.component_orders, m.action))
    catalog.modules = members
    catalog.skipped = skipped
    return catalog
