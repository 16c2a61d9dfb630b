"""Size limits and shared tuning knobs.

All values are per-object bounds, not global budgets.  Operations that
enumerate (endomorphism rings, free-module lattices) raise
:class:`~modlab.errors.SizeLimitExceeded` instead of silently truncating.
Hom groups are solved as linear congruence systems, so their size is
known before anything is enumerated.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    max_ring: int = 4096
    max_module: int = 4096
    max_end: int = 65536
    # Endomorphism rings up to this size get their literal right-ideal
    # lattice; larger ones use the equivalent image-join-closure route.
    max_ideal_lattice: int = 1024


DEFAULT_LIMITS = Limits()

# Additive groups (and so modules) up to this many elements get a dense
# addition table (size**2 entries); larger ones get a two-level table of
# two halves split near the square root of the size, so their tables
# stay O(size).
ADD_TABLE_MAX = 1024

CACHE_ENV_VAR = "MODLAB_CACHE"
