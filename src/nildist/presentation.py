"""Parameters of the ambient group: rank, nilpotency class, generator names.

The ambient group is the free nilpotent group of rank m and class c.  Its
Hirsch length is the sum of the Witt numbers W(m, k) for k = 1..c, and a
hard cap on that length (default 60) keeps every downstream structure at a
size where exact integer arithmetic stays cheap.  Exceeding the cap is a
configuration error, never a silent truncation; the sum stops at the first
k that passes the cap, so a huge class is refused at once.

Equal presentations are one object: Presentation(...) returns the
equal instance it made before, if that is still among the last
CACHED_PRESENTATIONS it made, so the caches keyed by a presentation and the
checks that two elements share one match by identity.  Equality and hashing
stay by value, so a presentation made before an eviction still compares
equal.  Those caches keep at most CACHED_PRESENTATIONS presentations each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceededError

DEFAULT_HIRSCH_CAP = 60
CACHED_PRESENTATIONS = 64

# Short display names used for small rank, matching the usual a, b, c of
# worked examples.  The canonical names x1..xm always parse as well.
ALIAS_NAMES = ("a", "b", "c", "d", "e")


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_number(m: int, k: int) -> int:
    """Rank of the degree-k layer of the free Lie ring on m generators:
    the sum of mobius(d) m^(k/d) over the divisors d of k, divided by k.
    Divisors come in pairs d, k/d with d <= sqrt(k)."""
    total = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            e = k // d
            total += mobius(d) * m**e
            if e != d:
                total += mobius(e) * m**d
        d += 1
    return total // k


class _Interned(type):
    def __call__(cls, *args, **kwargs):
        return _intern(super().__call__(*args, **kwargs))


@lru_cache(maxsize=CACHED_PRESENTATIONS)
def _intern(p):
    # a hit returns the equal presentation cached first
    return p


@dataclass(frozen=True)
class Presentation(metaclass=_Interned):
    m: int
    c: int
    names: tuple[str, ...] = ()
    max_hirsch: int = DEFAULT_HIRSCH_CAP

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"rank must be a positive integer, got {self.m!r}")
        if not isinstance(self.c, int) or self.c < 1:
            raise ValueError(f"class must be a positive integer, got {self.c!r}")
        if self.max_hirsch < 1:
            raise ValueError("max_hirsch must be positive")
        if not self.names:
            if self.m <= len(ALIAS_NAMES):
                names = ALIAS_NAMES[: self.m]
            else:
                names = tuple(f"x{i + 1}" for i in range(self.m))
            object.__setattr__(self, "names", names)
        else:
            object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != self.m:
            raise ValueError("need exactly one name per generator")
        if len(set(self.names)) != self.m:
            raise ValueError("generator names must be distinct")
        # sum the Witt numbers only while the sum is inside the cap: the
        # full sum for a huge class has thousands of digits
        length = 0
        for k in range(1, self.c + 1):
            length += witt_number(self.m, k)
            if length > self.max_hirsch:
                raise CapExceededError(
                    f"Hirsch length for rank {self.m}, class {self.c} "
                    f"exceeds the cap {self.max_hirsch}"
                )
        # set here, not on first read, so equal presentations have equal vars()
        object.__setattr__(self, "hirsch_length", length)
        # bits per letter in a monomial's integer key (see magnus)
        object.__setattr__(self, "letter_bits", max(1, (self.m - 1).bit_length()))

    def __eq__(self, other):
        # polynomial ops compare presentations, nearly always one with itself
        if self is other:
            return True
        return isinstance(other, Presentation) and vars(self) == vars(other)

    def name_of(self, index: int) -> str:
        return self.names[index]

    def index_of(self, name: str) -> int:
        table = _name_table(self)
        if name not in table:
            raise KeyError(name)
        return table[name]


@lru_cache(maxsize=CACHED_PRESENTATIONS)
def _name_table(p: Presentation) -> dict[str, int]:
    # Canonical names first, then the a..e aliases for small rank, then the
    # presentation's own names; later entries win on collision.
    table = {f"x{i + 1}": i for i in range(p.m)}
    if p.m <= len(ALIAS_NAMES):
        for i in range(p.m):
            table[ALIAS_NAMES[i]] = i
    for i, name in enumerate(p.names):
        table[name] = i
    return table
