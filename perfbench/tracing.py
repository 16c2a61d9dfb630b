"""Span tracer that wraps modlab's public layer entry points from outside.

Nothing under ``src/`` knows about it: ``install`` replaces each listed
function in every ``modlab.*`` namespace that holds it (so call sites that
did ``from .modules import hom_set`` are covered too) and returns a
function that puts the originals back.

A span is ``(id, name, start, end, parent id, op id)``.  Spans live in
memory and are written out by ``write_spans`` when the run ends.  A
layer's self time is the duration of its spans minus the part covered by
their child spans; the root span (layer ``workload``) holds whatever no
layer span covers, so the self times of all layers add up to the root
span's duration exactly.

What each layer should move (self-time shares of one traced run each, on
a 2-core x86-64 VM with Python 3.11):

- ``modules.arith`` moves ``wall_s`` on hull-sums-z8 (60%: 88 builds of
  tables up to 4,096 elements) and on bundle (34%: 1,128 small tables),
  so a change tuned for large tables must hold bundle.
- ``modules.hom`` plus ``modules.iso`` move ``wall_s`` on z4-gens3 (52%)
  and hull-sums-z8 (33%), and only 6% of bundle.
- ``tpredicates.end`` (27%) and ``suites`` (12%) move ``wall_s`` on
  bundle; both are 0% of hull-sums-z8.
- ``lattice`` and the two ``repeat_ratio`` counts move ``wall_s`` and
  ``peak_rss_mb`` on bundle (lattice: 11%).
- ``catalog`` moves ``wall_s`` on the two run_all workloads and
  ``setup_s`` on hull-sums-z8, which builds its catalog during set-up.
- Ring-level parallelism and ``cli.run_all`` self time should move
  ``wall_s`` on bundle (with ``cpu_s`` rising) and leave z4-gens3, a
  single ring, unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable

# layer -> (modlab submodule, public functions)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "catalog": ("catalog", ("enumerate_modules",)),
    "modules.hom": ("modules", ("hom_set", "end_ring")),
    "modules.iso": ("modules", ("find_isomorphism", "is_isomorphic")),
    "modules.construct": ("modules", (
        "span", "quotient_module", "submodule_as_module", "direct_sum",
        "direct_sum_with_maps", "regular_module",
    )),
    "lattice": ("lattice", (
        "submodules", "radical", "socle", "is_small", "is_essential",
    )),
    "cosingular": ("cosingular", ("zbar", "zbar2", "classify")),
    "structure.hulls": ("structure", (
        "character_dual", "dual_hom", "primitive_blocks", "projective_cover",
        "injective_hull", "is_injective", "is_small_module",
    )),
    "structure.summands": ("structure", (
        "summand_decomposition", "projection_along", "complement_of",
        "is_direct_summand", "summand_keys", "summand_witness_idempotent",
        "is_supplement", "supplements_of", "is_amply_supplemented",
        "small_in_quotient", "is_coclosed", "coclosed_keys", "is_lifting",
    )),
    "tpredicates.end": ("tpredicates", (
        "end_data", "d_set", "t_set", "dual_baer_witness", "is_dual_baer",
        "is_t_dual_baer", "dual_baer_quotient_condition", "has_sssp_in_zbar2",
        "t_dual_baer_variants", "k_module_class", "t_trace",
        "fully_invariant_keys",
    )),
    "tpredicates.relative": ("tpredicates", (
        "is_t_small", "t_small_keys", "t_small_variants", "zbar2_pullback",
        "zbar2_of_node", "t_small_in_quotient", "is_t_coclosed",
        "t_coclosed_keys", "is_minimal_with_joint_complement", "is_t_lifting",
        "t_lifting_variants", "is_regular", "is_semisimple",
    )),
    "reports.profile": ("reports", ("profile_module",)),
    "suites": ("suites", ("verify_theorem",)),
    "cli.run_all": ("cli", ("run_all",)),
    "serialize": ("serialize", (
        "stable_dumps", "ring_to_json", "module_to_json", "submodule_to_json",
        "lattice_to_hasse_json", "content_hash",
    )),
}
# FiniteModule.workspace is a method, wrapped separately.
ARITH = "modules.arith"
ROOT = "workload"
# A span of one of these layers opened outside any op starts a new op.
OP_LAYERS = frozenset(("reports.profile", "suites"))
# Lattice calls whose results are objects (not booleans) feed repeat_ratio.
LATTICE_OBJECT_CALLS = frozenset(("submodules", "radical", "socle"))

SUITE_IDS = (
    "P2.2", "L2.5", "P2.6", "C2.7", "C2.8", "T2.11", "P2.13", "T3.2",
    "C3.3", "C3.4", "P3.5", "T3.6", "P3.8", "T3.9", "C3.10", "T3.12",
)

LAYER_NAMES = ("catalog", ARITH) + tuple(l for l in LAYERS if l != "catalog")
EXTRA_COUNTS = {
    "catalog": ("modules",),
    ARITH: ("builds", "elements"),
    "modules.hom": ("homs",),
    "lattice": ("nodes", "repeat_ratio"),
    "reports.profile": ("repeat_ratio",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in LAYER_NAMES + (ROOT,):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        for extra in EXTRA_COUNTS.get(layer, ()):
            units[f"{layer}.{extra}"] = "ratio" if extra == "repeat_ratio" else "count"
    for sid in SUITE_IDS:
        units[f"suites.{sid}.incl_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class _Repeats:
    """Counts calls that return an object some earlier call returned.
    Holds the returned objects so their ids stay unique."""

    def __init__(self):
        self.seen: dict[int, object] = {}
        self.calls = 0
        self.repeats = 0

    def add(self, obj) -> bool:
        self.calls += 1
        if id(obj) in self.seen:
            self.repeats += 1
            return True
        self.seen[id(obj)] = obj
        return False

    def ratio(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # [span id, start, child time, op id]
        self._next_id = 0
        self._next_op = 0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.lattice_repeats = _Repeats()
        self.profile_repeats = _Repeats()

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, new_op: bool = False):
        """Run ``fn`` inside a span of layer ``name``; return (result, duration)."""
        stack = self._stack
        parent = stack[-1] if stack else None
        op = parent[3] if parent is not None else None
        if op is None and (new_op or name in OP_LAYERS):
            op = self._next_op
            self._next_op += 1
        sid = self._next_id
        self._next_id += 1
        clock = time.perf_counter
        frame = [sid, clock(), 0.0, op]
        stack.append(frame)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = clock()
            stack.pop()
            dur = end - frame[1]
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent is not None:
                parent[2] += dur
            self.spans.append((sid, name, frame[1], end,
                               parent[0] if parent is not None else None, op))
        return result, dur

    def root(self, fn, *args, **kwargs):
        """The whole workload, as the root span; returns (result, duration)."""
        return self.call(ROOT, fn, args, kwargs)

    def op(self, fn, *args, **kwargs):
        """One workload op issued by the benchmark itself."""
        return self.call(ROOT, fn, args, kwargs, new_op=True)[0]

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, fn_name: str, fn):
        tracer = self

        def after(args, kwargs, result, dur):
            if layer == "catalog":
                tracer._count("catalog.modules", len(result.modules))
            elif fn_name == "hom_set":
                tracer._count("modules.hom.homs", len(result))
            elif layer == "lattice" and fn_name in LATTICE_OBJECT_CALLS:
                if not tracer.lattice_repeats.add(result) and fn_name == "submodules":
                    tracer._count("lattice.nodes", len(result.nodes))
            elif layer == "reports.profile":
                tracer.profile_repeats.add(result)
            elif layer == "suites":
                sid = args[0] if args else kwargs["suite_id"]
                tracer.incl_s[sid] = tracer.incl_s.get(sid, 0.0) + dur

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, dur = tracer.call(layer, fn, args, kwargs)
            after(args, kwargs, result, dur)
            return result

        return wrapper

    def _wrap_workspace(self, original):
        """Span only the first call on each module object (the build);
        later calls return the stored workspace and are only counted."""
        tracer = self

        @functools.wraps(original)
        def workspace(module):
            if getattr(module, "_ws", None) is not None:
                tracer.calls[ARITH] = tracer.calls.get(ARITH, 0) + 1
                return original(module)
            tracer._count(f"{ARITH}.builds", 1)
            tracer._count(f"{ARITH}.elements", module.size)
            return tracer.call(ARITH, original, (module,))[0]

        return workspace

    def install(self) -> Callable[[], None]:
        """Wrap every layer entry point; return a function undoing it."""
        patches: list[tuple[object, str, object]] = []
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "modlab" or name.startswith("modlab."))]
        for layer, (module_name, fn_names) in LAYERS.items():
            module = importlib.import_module(f"modlab.{module_name}")
            for fn_name in fn_names:
                original = getattr(module, fn_name, None)
                if original is None:
                    print(f"trace: modlab.{module_name}.{fn_name} not found, "
                          f"not traced", file=sys.stderr)
                    continue
                wrapper = self._wrap(layer, fn_name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            patches.append((ns, attr, original))
        finite_module = importlib.import_module("modlab.modules").FiniteModule
        original_ws = finite_module.workspace
        finite_module.workspace = self._wrap_workspace(original_ws)
        patches.append((finite_module, "workspace", original_ws))

        def restore() -> None:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

        return restore

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values for every name in ``metric_units`` except
        ``trace.overhead_s``, which needs the untraced run."""
        out: dict[str, float] = {}
        for name in metric_units():
            layer, _, kind = name.rpartition(".")
            if kind == "self_s":
                out[name] = self.self_s.get(layer, 0.0)
            elif kind == "calls":
                out[name] = self.calls.get(layer, 0)
            elif kind == "incl_s":
                out[name] = self.incl_s.get(layer[len("suites."):], 0.0)
        out["lattice.repeat_ratio"] = self.lattice_repeats.ratio()
        out["reports.profile.repeat_ratio"] = self.profile_repeats.ratio()
        for key in ("catalog.modules", f"{ARITH}.builds", f"{ARITH}.elements",
                    "modules.hom.homs", "lattice.nodes"):
            out[key] = self.counts.get(key, 0)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")
