"""Size limits and shared constants.

The three :class:`Limits` fields are per-object bounds, not global
budgets: rings (``max_ring``), modules and their lattices (``max_module``)
and endomorphism rings (``max_end``).  Operations that enumerate such an
object raise :class:`~modlab.errors.SizeLimitExceeded` instead of
silently truncating.  Limits bound work; they never choose between
algorithms.  Hom groups are solved as linear congruence systems, so
their size is known before anything is enumerated.

The limits in force are one process-wide value, :data:`LIMITS`.  The
places that refuse (ring and module construction, catalog enumeration,
submodule lattices, End rings and the primitive-idempotent search) read
it at call time as ``config.LIMITS``; no module binds the value itself.
The radicals Rad, Soc, Zbar and Zbar2 and the small-module test build no
module of their own: they refuse only through the lattice of the ring's
regular module, which gives J(R) and S = Soc(_R R).
Memos are not keyed by the limits, so to change them, set
``config.LIMITS`` and then call :func:`modlab.memo.clear`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    max_ring: int = 4096
    max_module: int = 4096
    max_end: int = 65536


LIMITS = Limits()

# Additive groups (and so modules) up to this many elements get a dense
# addition table (size**2 entries); larger ones get a two-level table of
# two halves split near the square root of the size, so their tables
# stay O(size).  A group of that size does O(size) additions, so a dense
# table pays for itself only when it is small: the one of Z8^3 (512
# elements, 262,144 entries) takes about 11 ms to build on a 2-core
# x86-64 VM under Python 3.11, a third of a whole hull-sums-z8 benchmark
# run with this bound at 256.
ADD_TABLE_MAX = 256

CACHE_ENV_VAR = "MODLAB_CACHE"
