"""The one memo layer: every module-level memo of modlab is a function
decorated with :func:`memo`.

Use rule.  Memoize a function only when some run asks it again for one
key.  An entry nobody reads back holds its result alive for the whole
ring job and buys nothing: module profiles, computed once per catalog
module, are not memoized, nor is ``structure.projective_cover``, whose
one production caller, ``injective_hull``, is.

Key rule.  A call is stored under its full argument list, with the
defaults filled in, so ``enumerate_modules(r)``,
``enumerate_modules(r, GenerationPolicy())`` and
``enumerate_modules(r, policy=GenerationPolicy())`` share one entry.  An
argument that has a ``.key`` (a ring, module or submodule) stands in the
key by that canonical key, so the memo holds no argument object alive;
any other argument (a policy, an id) stands by itself.  Rings and
modules carry no names: each is wholly identified by its key, so a
memo's result serves every equal-key caller.  A submodule's key is the
frozen set of its element codes, the same object as its ``elements``
and the name a lattice lookup takes; it does not name the parent, so
a memoized function that takes a submodule takes its parent module too.
A set of nodes of one lattice is held as node indices, not element
sets: the memoized :func:`structure.whole_interval` keeps the summands
and the coclosed, t-coclosed and t-small nodes that way.

Limits rule.  No key holds the limits: they are one process-wide value,
``config.LIMITS``, read at call time by the functions that refuse an
oversized input (ring and module construction, ``enumerate_modules``,
``submodules``, ``end_ring``, ``primitive_blocks``).  A result stored
under other limits would be returned as it is (a catalog enumerated
under looser limits, say, holds modules the new ones refuse), so every
change of ``config.LIMITS`` is followed by :func:`clear`: setting new
limits and restoring the old ones alike.

Scope rule.  A ``modlab verify`` ring job (``cli._ring_job``) starts
from empty memos, so a process holds the memos of one ring at a time.
A module's or ring's key holds the ring's key, so such entries of one
ring serve no other.

A call that raises stores nothing.  :func:`clear` empties every memo, so
the next call of each function computes from scratch.
"""

from __future__ import annotations

import functools
import inspect

_tables: list[dict] = []


def memo(fn):
    """Memoize ``fn`` by its arguments' keys, as the module docstring
    describes.  ``fn`` takes positional-or-keyword parameters only."""
    sig = inspect.signature(fn)
    params = tuple(sig.parameters.values())
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
        raise TypeError(f"memo needs plain parameters: {fn.__qualname__}")
    n = len(params)
    defaults = tuple(p.default for p in params if p.default is not p.empty)
    required = n - len(defaults)
    table: dict = {}
    _tables.append(table)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        elif required <= len(args) < n:
            args += defaults[len(args) - required:]
        key = tuple([getattr(a, "key", a) for a in args])
        try:
            return table[key]
        except KeyError:
            pass
        value = table[key] = fn(*args)
        return value

    return wrapper


def clear() -> None:
    """Empty every memo."""
    for table in _tables:
        table.clear()
