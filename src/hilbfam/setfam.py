"""Subsets of [n], set-family constructors and characteristic vectors.

Families are kept in a single canonical order (lexicographic on sorted
member tuples) so that every downstream matrix, kernel basis and report
is reproducible byte for byte.  `family_sizes` names the member sizes
of the uniform and mod-q families and enforces the enumeration cap on
them; `level_points` writes the 0/1 points of given sizes straight into
one uint8 array in that order, one byte per coordinate, from counts of
subsets by size, with no member tuple and no sort.  `family_points` joins
the two, and the `make_*_family` constructors read their `Subset` objects
off its rows.  No consumer in the library does arithmetic in the points'
own dtype; a caller that does (a row sum past 255, a product, 1 - x) must
cast to a wide dtype first.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

DEFAULT_ENUMERATION_CAP = 10_000_000
ENUMERATION_CAP_ENV = "HILBFAM_ENUM_CAP"


class EnumerationCapError(RuntimeError):
    """A family constructor would enumerate past the configured cap."""


def enumeration_cap() -> int:
    """Active enumeration cap; overridable via HILBFAM_ENUM_CAP."""
    raw = os.environ.get(ENUMERATION_CAP_ENV)
    if raw:
        cap = int(raw)
        if cap < 1:
            raise ValueError(f"{ENUMERATION_CAP_ENV} must be positive, got {cap}")
        return cap
    return DEFAULT_ENUMERATION_CAP


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check, memoised."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def is_power_of(q: int, p: int) -> bool:
    """True iff q = p**a for some a >= 1."""
    if q < p or p < 2:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k is outside 0..n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class Params:
    """Shared problem parameters.

    n is the ground-set size, p the field characteristic, d the set size,
    m the degree bound and q an optional power of p used as the size
    modulus.
    """

    n: int
    p: int
    d: int
    m: int
    q: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 0 <= self.d <= self.n:
            raise ValueError(f"d must satisfy 0 <= d <= n, got d={self.d}, n={self.n}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.q is not None and not is_power_of(self.q, self.p):
            raise ValueError(f"q must be a positive power of p={self.p}, got {self.q}")


@dataclass(frozen=True, order=True)
class Subset:
    """A subset of [n] stored as a strictly increasing tuple of 1-based members."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = self.members
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError(f"members must be strictly increasing, got {ms}")
        if ms and ms[0] < 1:
            raise ValueError(f"members must be >= 1, got {ms}")

    @classmethod
    def of(cls, members: Iterable[int]) -> "Subset":
        return cls(tuple(sorted(set(members))))

    @property
    def bitmask(self) -> int:
        return sum(1 << (m - 1) for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of subsets of [n] in canonical order."""

    n: int
    sets: tuple[Subset, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        for s in self.sets:
            if s.members and s.members[-1] > self.n:
                raise ValueError(f"subset {s} exceeds ground set [{self.n}]")
        ordered = tuple(sorted(self.sets))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate subset {a} in family")
        object.__setattr__(self, "sets", ordered)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sets)

    def points(self) -> tuple[tuple[int, ...], ...]:
        """Characteristic vectors of all members, in family order, read
        out of one 0/1 array set at every member of every set."""
        arr = np.zeros((len(self.sets), self.n), dtype=np.int8)
        rows = np.repeat(np.arange(len(self.sets)), [len(s) for s in self.sets])
        cols = np.fromiter(chain.from_iterable(self.sets), dtype=np.intp, count=rows.size)
        arr[rows, cols - 1] = 1
        return tuple(map(tuple, arr.tolist()))

    def masks(self) -> tuple[int, ...]:
        return tuple(s.bitmask for s in self.sets)


def char_vector(subset: Subset, n: int) -> tuple[int, ...]:
    """0/1 vector of length n with ones exactly at the members of subset."""
    if subset.members and subset.members[-1] > n:
        raise ValueError(f"subset {subset} exceeds ground set [{n}]")
    inside = set(subset.members)
    return tuple(1 if i in inside else 0 for i in range(1, n + 1))


def family_sizes(n: int, d: int, q: int | None = None, cap: int | None = None) -> tuple[int, ...]:
    """Member sizes of the d-uniform family of [n] (q None) or of the family
    of sizes congruent to d mod q, after checking d, q and that the family's
    member count is within the enumeration cap."""
    if not 0 <= d <= n:
        raise ValueError(f"d must satisfy 0 <= d <= n, got d={d}, n={n}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if q is not None and q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    sizes = (d,) if q is None else tuple(range(d % q, n + 1, q))
    count = sum(math.comb(n, k) for k in sizes)
    limit = enumeration_cap() if cap is None else cap
    if count > limit:
        raise EnumerationCapError(f"family would contain {count} sets, cap is {limit}")
    return sizes


def _lex_subsets(b: int) -> np.ndarray:
    """Every subset of [b] as a 0/1 int8 row, in family order: the empty
    set, the subsets that contain 1, then the other nonempty ones.  So the
    nonempty subsets of the last c coordinates are the last 2^c - 1 rows."""
    table = np.zeros((1, 0), dtype=np.int8)
    for _ in range(b):
        with_first = np.hstack([np.ones((len(table), 1), np.int8), table])
        without = np.hstack([np.zeros((len(table), 1), np.int8), table])
        table = np.vstack([without[:1], with_first, without[1:]])
    return table


# The subsets of the last (up to) _TAIL_BITS coordinates, read from one
# table by level_points; 4096 rows of 12 bytes.
_TAIL_BITS = 12
_TAIL = _lex_subsets(_TAIL_BITS)
_TAIL_SIZES = _TAIL.sum(axis=1)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers of every range [start, start + length), joined."""
    ends = np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)


def level_points(n: int, sizes: Iterable[int]) -> np.ndarray:
    """0/1 points of every subset of [n] whose size is in sizes, in family
    order: one uint8 row per subset; cast before arithmetic that can pass
    255 or go below 0.  Unlike family_points, no cap check.

    Family order lists the block of a set P -- P and every member whose
    member tuple starts with P's -- as P, if its size is wanted, then the
    blocks of P + {j} for each later j in turn.  Block lengths are counts
    of subsets by size, so each block's rows are known without listing the
    members before it.  Over the first n - b coordinates, b = min(n,
    ``_TAIL_BITS``), the sets P of each size t are placed at once, their
    last coordinate set to 1 over their whole block; each block ends with
    P + Q for the nonempty subsets Q of the last b coordinates, copied from
    ``_TAIL``.  Every 1 is written once; no member tuple is built and
    nothing is sorted.
    """
    sizes = sorted(set(sizes))
    if sizes and sizes[0] < 0:
        raise ValueError(f"sizes must be nonnegative, got {sizes[0]}")
    sizes = [k for k in sizes if k <= n]
    total = sum(math.comb(n, k) for k in sizes)
    out = np.zeros((total, n), dtype=np.uint8)
    b = min(n, _TAIL_BITS)
    head = n - b
    first = len(_TAIL) + 1 - 2**b
    tail, tail_sizes = _TAIL[first:, _TAIL_BITS - b :], _TAIL_SIZES[first:]
    wanted = np.zeros(n + 1, dtype=bool)
    wanted[sizes] = True
    # The tail rows after a set of size t: the nonempty Q with t + |Q| wanted.
    last = tail[wanted[tail_sizes]]
    out[total - len(last) :, head:] = last
    depth = min(head, sizes[-1]) if sizes else 0
    if not depth:
        return out
    # count[r]: the subsets of an r-set with sizes in `sizes` less t, at
    # depth t; the block of a t-set whose last coordinate is j has
    # count[n - 1 - j] rows.  At t = 0 it is a sum of binomial columns, each
    # the running sum of the one before; each depth takes first differences.
    # int64 arithmetic is exact mod 2^64, and every count read is at most
    # `total`, so every count read is exact.
    column = np.ones(n + 1, dtype=np.int64)
    count = column * wanted[0]
    for k in range(1, sizes[-1] + 1):
        column = np.concatenate([[0], np.cumsum(column[:-1])])
        count += column * wanted[k]
    flat = out.reshape(-1)
    ends = np.array([total])
    cols = np.array([-1])
    for t in range(1, depth + 1):
        # Children j of each (t-1)-set past its last coordinate, up to the
        # last j that leaves room for the smallest wanted size >= t.
        stop = min(head, n - next(k for k in sizes if k >= t) + t)
        fan = np.maximum(stop - 1 - cols, 0)
        children = _ranges(cols + 1, fan)
        # A child's block ends where its later siblings' blocks begin.
        ends = np.repeat(ends + wanted[t - 1], fan) - count[n - 1 - children]
        cols = children
        count = count[1:] - count[:-1]
        block = count[n - 1 - cols]
        flat[_ranges(ends - block, block) * n + np.repeat(cols, block)] = 1
        last = tail[wanted[tail_sizes + t]]
        rows = (ends - len(last))[:, None] + np.arange(len(last))
        out[rows.reshape(-1), head:] = np.tile(last, (len(ends), 1))
    return out


def family_points(n: int, d: int, q: int | None = None, cap: int | None = None) -> np.ndarray:
    """0/1 points of make_uniform_family(n, d) when q is None, else of
    make_modq_family(n, d, q), in family order: one uint8 row per member,
    as :func:`level_points` makes them."""
    return level_points(n, family_sizes(n, d, q, cap))


def _family(n: int, points: np.ndarray) -> SetFamily:
    """The family whose members' 0/1 points are the rows of `points`."""
    members = (np.nonzero(points)[1] + 1).tolist()
    ends = points.sum(axis=1, dtype=np.int64).cumsum().tolist()
    return SetFamily(n, tuple(Subset(tuple(members[a:b])) for a, b in zip([0, *ends], ends)))


def make_uniform_family(n: int, d: int, cap: int | None = None) -> SetFamily:
    """All d-element subsets of [n]."""
    return _family(n, family_points(n, d, None, cap))


def make_modq_family(n: int, d: int, q: int, cap: int | None = None) -> SetFamily:
    """All subsets of [n] whose size is congruent to d modulo q."""
    return _family(n, family_points(n, d, q, cap))


def format_family(family: SetFamily) -> str:
    """Render a family in the shared text format.

    First line is `n=<int>`; each following line lists one subset as
    comma-separated 1-based members, with an empty line for the empty set.
    """
    lines = [f"n={family.n}"]
    lines.extend(",".join(map(str, s.members)) for s in family.sets)
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> SetFamily:
    """Parse the text format produced by format_family."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("n="):
        raise ValueError("family text must start with a `n=<int>` header line")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad family header {lines[0]!r}") from exc
    sets = []
    for line in lines[1:]:
        line = line.strip()
        if not line:
            sets.append(Subset(()))
            continue
        try:
            members = tuple(int(tok) for tok in line.split(","))
        except ValueError as exc:
            raise ValueError(f"bad subset line {line!r}") from exc
        sets.append(Subset.of(members))
    return SetFamily(n, tuple(sets))
