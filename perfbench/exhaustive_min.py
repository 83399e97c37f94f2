"""Recompute the minimum balancing-family sizes over [8] that the balance
workload compares hilbfam's search against.

This is an exhaustive set-cover search written apart from hilbfam: each
candidate member becomes the bitmask of the 4-subsets it covers, and the
search branches on the uncovered 4-subset with the fewest covering
candidates.  Any balancing family must cover that subset, so trying each
of its covering candidates at each depth is exhaustive.

    python3 perfbench/exhaustive_min.py        # exit 0 iff the table holds
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import N8_MINIMUM  # noqa: E402


def cover_masks(n: int, L) -> list[int]:
    """For each nonempty proper subset of [n], the set of n/2-subsets it
    balances, as a bitmask over their index."""
    halves = [sum(1 << i for i in c) for c in combinations(range(n), n // 2)]
    targets = set(L)
    covers = set()
    for g in range(1, (1 << n) - 1):
        covers.add(sum(1 << j for j, f in enumerate(halves) if (f & g).bit_count() in targets))
    return sorted(covers, reverse=True)


def minimum_size(n: int, L, limit: int) -> int | None:
    """Smallest number of members that balance every n/2-subset, or None
    when none exists within limit."""
    covers = cover_masks(n, L)
    full = (1 << len(list(combinations(range(n), n // 2)))) - 1
    by_subset = [[c for c in covers if c >> j & 1] for j in range(full.bit_length())]
    widest = max(c.bit_count() for c in covers)

    def solvable(covered: int, left: int) -> bool:
        if covered == full:
            return True
        uncovered = full & ~covered
        if left * widest < uncovered.bit_count():
            return False
        best = None
        rest = uncovered
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if best is None or len(by_subset[j]) < len(by_subset[best]):
                best = j
        return any(solvable(covered | c, left - 1) for c in by_subset[best])

    for k in range(1, limit + 1):
        if solvable(0, k):
            return k
    return None


def main() -> int:
    ok = True
    for L, want in N8_MINIMUM.items():
        got = minimum_size(8, L, want + 1)
        print(f"n=8 L={L}: minimum {got}, table {want}")
        ok &= got == want
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
