"""Per-module property profiles and per-suite verification reports.

Report objects keep wall-clock runtimes for console output, but the
serialized bundles omit them so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cosingular import classify
from .errors import SizeLimitExceeded
from .lattice import is_small, radical, socle, submodules
from .modules import FiniteModule, end_ring_size
from .structure import (
    coclosed_keys,
    is_injective,
    is_lifting,
    is_small_module,
    summand_keys,
)
from .tpredicates import (
    has_sssp_in_zbar2,
    is_dual_baer,
    is_regular,
    is_semisimple,
    is_t_dual_baer,
    is_t_lifting,
    k_module_class,
    t_coclosed_keys,
    t_small_keys,
)

PREDICATE_IDS = (
    "amply_supplemented",
    "lifting",
    "t_lifting",
    "dual_baer",
    "t_dual_baer",
    "k",
    "t_k",
    "strongly_t_k",
    "regular",
    "semisimple",
    "injective",
    "small",
    "noncosingular",
    "cosingular",
    "sssp_in_zbar2",
)


@dataclass
class PropertyReport:
    module_desc: str
    orders: tuple[int, ...]
    size: int
    lattice_size: int
    end_size: int | None
    predicates: dict[str, bool | None]
    cosingular: dict
    radical_size: int
    socle_size: int
    submodule_counts: dict[str, int]
    flags: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "module": self.module_desc,
            "orders": list(self.orders),
            "size": self.size,
            "lattice_size": self.lattice_size,
            "end_size": self.end_size,
            "predicates": {k: self.predicates[k] for k in sorted(self.predicates)},
            "cosingular": self.cosingular,
            "radical_size": self.radical_size,
            "socle_size": self.socle_size,
            "submodule_counts": self.submodule_counts,
            "flags": self.flags,
        }


def disagrees(record: dict) -> bool:
    """Whether a suite's instance record is a disagreement: its values
    differ or a hypothesis failed (``agree``), or its statement fails
    (``holds``)."""
    return not record.get("agree", record.get("holds", True))


@dataclass
class TheoremReport:
    suite: str
    ring_id: str
    scope: str
    instances: list[dict]
    summary: dict
    runtime: float = 0.0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "ring": self.ring_id,
            "scope": self.scope,
            "instances": self.instances,
            "summary": self.summary,
        }


def _unless_refused(evaluate, module: FiniteModule):
    """``evaluate(module)``, or None (null in the report) when a limit
    refuses it: the End-ring entries of a profile over ``max_end``."""
    try:
        return evaluate(module)
    except SizeLimitExceeded:
        return None


def profile_module(module: FiniteModule, desc: str | None = None) -> PropertyReport:
    """Every predicate of the catalog evaluated on one module, with
    internal-consistency flags, under the caller's description (by
    default the module's repr)."""
    lat = submodules(module)
    prof = classify(module)
    end_size = _unless_refused(end_ring_size, module)
    preds: dict[str, bool | None] = {}
    preds["amply_supplemented"] = True  # a theorem: see modlab.suites
    preds["lifting"] = is_lifting(module)
    preds["t_lifting"] = is_t_lifting(module)
    preds["dual_baer"] = _unless_refused(is_dual_baer, module)
    preds["t_dual_baer"] = _unless_refused(is_t_dual_baer, module)
    preds.update(_unless_refused(k_module_class, module)
                 or dict.fromkeys(("k", "t_k", "strongly_t_k")))
    preds["regular"] = is_regular(module)
    preds["semisimple"] = is_semisimple(module)
    preds["injective"] = is_injective(module)
    preds["small"] = is_small_module(module)
    preds["noncosingular"] = prof.zbar.is_full()
    preds["cosingular"] = prof.zbar.is_zero()
    preds["sssp_in_zbar2"] = has_sssp_in_zbar2(module)

    small_keys = frozenset(s.key for s in lat.nodes if is_small(s))
    tsmall = t_small_keys(module)
    counts = {
        "submodules": len(lat.nodes),
        "small": len(small_keys),
        "t_small": len(tsmall),
        "coclosed": len(coclosed_keys(module)),
        "t_coclosed": len(t_coclosed_keys(module)),
        "summands": len(summand_keys(module)),
    }

    flags: list[str] = []
    if preds["lifting"] and not preds["t_lifting"]:
        flags.append("lifting without t_lifting")
    if preds["t_lifting"] and preds["t_dual_baer"] is False:
        flags.append("t_lifting without t_dual_baer")
    if preds["noncosingular"] and small_keys != tsmall:
        flags.append("noncosingular but t_small differs from small")

    return PropertyReport(
        module_desc=desc or repr(module),
        orders=module.component_orders,
        size=module.size,
        lattice_size=len(lat.nodes),
        end_size=end_size,
        predicates=preds,
        cosingular={
            "zbar_size": prof.zbar.size,
            "zbar2_size": prof.zbar2.size,
            "class": prof.classification,
        },
        radical_size=radical(module).size,
        socle_size=socle(module).size,
        submodule_counts=counts,
        flags=flags,
    )
