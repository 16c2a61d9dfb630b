"""JSON wire formats for rings, modules, lattices and reports, plus the
content hashes used as cache keys and the on-disk lattice cache.

All integers are decimal; coordinates are little-endian in basis order.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, TypeVar

from .config import CACHE_ENV_VAR
from .errors import InvalidConfig
from .modules import FiniteModule, Submodule
from .rings import FiniteRing, builtin_ring, ring_from_constants


def stable_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def ring_to_json(ring: FiniteRing) -> dict:
    return {
        "orders": list(ring.component_orders),
        "constants": [[list(v) for v in row] for row in ring.constants],
        "one": list(ring.one),
    }


def _integers(value, depth: int, field: str):
    """``value``, checked to be lists nested ``depth`` deep around JSON
    integers.  A float, a boolean, or a number too large for a float such
    as 1e400 raises ValueError instead of being truncated to an int."""
    if depth:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{field} must be lists nested {depth} deep, got {value!r}")
        for item in value:
            _integers(item, depth - 1, field)
    elif type(value) is not int:
        raise ValueError(f"{field} entries must be integers, got {value!r}")
    return value


def ring_from_json(obj: dict) -> FiniteRing:
    return ring_from_constants(_integers(obj["orders"], 1, "orders"),
                               _integers(obj["constants"], 3, "constants"),
                               _integers(obj["one"], 1, "one"))


def module_to_json(module: FiniteModule, ring_id: str | None = None) -> dict:
    ring = ring_id if ring_id is not None else ring_to_json(module.ring)
    return {
        "ring": ring,
        "orders": list(module.component_orders),
        "action": [[list(row) for row in mat] for mat in module.action],
    }


def module_from_json(obj: dict, ring: FiniteRing | None = None) -> FiniteModule:
    if ring is None:
        ref = obj["ring"]
        if isinstance(ref, str):
            try:
                ring = builtin_ring(ref)
            except KeyError as exc:
                raise InvalidConfig(str(exc)) from None
        else:
            ring = ring_from_json(ref)
    return FiniteModule(ring, _integers(obj["orders"], 1, "orders"),
                        _integers(obj["action"], 3, "action"))


def submodule_to_json(sub: Submodule) -> dict:
    return {"size": sub.size, "elements": sorted(sub.elements)}


def lattice_to_hasse_json(lattice) -> dict:
    """Nodes in canonical order with the list of covered node indices."""
    return {
        "nodes": [{"index": i, **submodule_to_json(s)}
                  for i, s in enumerate(lattice.nodes)],
        "covers": lattice.covers(),
    }


# Bump when the meaning or layout of a cached file changes, so that files
# written by older code are never read as current.
CACHE_SCHEMA = 2


def content_hash(obj: FiniteRing | FiniteModule) -> str:
    """The disk cache's key: SHA-256 of the canonical JSON and schema.
    ``hashlib`` maps OpenSSL into the process, so only a cache loads it."""
    import hashlib

    if isinstance(obj, FiniteRing):
        payload = {"kind": "ring", "data": ring_to_json(obj)}
    else:
        payload = {"kind": "module", **module_to_json(obj)}
    payload["schema"] = CACHE_SCHEMA
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- on-disk cache -----------------------------------------------------------

T = TypeVar("T")


def cache_dir() -> str | None:
    """The configured cache directory, made if missing, or None when no
    cache directory is configured.  A path that cannot be made a
    directory (a regular file, say) is an invalid configuration."""
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError as exc:
        raise InvalidConfig(f"{CACHE_ENV_VAR}: {exc}") from None
    return root


def cache_path(module: FiniteModule) -> str | None:
    """The cache file of a module's lattice, or None when no cache
    directory is configured.  A lattice is a function of the module's key
    alone; nothing else is cached on disk."""
    root = cache_dir()
    if root is None:
        return None
    return os.path.join(root, f"lattice-{content_hash(module)}.json")


def cache_read(path: str, parse: Callable[[dict], T]) -> T | None:
    """``parse`` of the JSON stored at path.  A file that is missing,
    unreadable, not JSON, or lacks what ``parse`` looks up is a miss
    (None); the caller recomputes and overwrites it."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return None


def cache_write(path: str, text: str) -> None:
    """Write through a temporary file in the same directory and rename it
    into place, so readers see the old file or the whole new one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
