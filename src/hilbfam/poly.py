"""Polynomials over F_p keyed by exponent vectors.

The monomial order used everywhere (matrix columns, term rendering,
kernel bases) is: ascending total degree, then ascending lexicographic
on the exponent tuple.  The library passes the monomials of a question
as one cached exponent array, :func:`monomial_table`; the tuples of
:func:`monomials_upto` are only its public form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gflinalg import chunk_rows
from .setfam import EnumerationCapError, _ranges, enumeration_cap

Monomial = tuple[int, ...]
Point = tuple[int, ...]

# Degree of the zero polynomial: below every integer, distinct from the
# degree 0 of nonzero constants.
ZERO_DEGREE = float("-inf")


def monomial_sort_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


def monomial_table(n: int, m: int, cap: int) -> np.ndarray:
    """All exponent vectors with entries <= cap and total degree <= m, one
    row each in the global monomial order: the column index set of every
    evaluation matrix.  Read-only, in the smallest unsigned dtype that holds
    min(cap, m), and built once.  Counted first on every call, by
    inclusion-exclusion over the entries past cap: past the enumeration cap
    this raises EnumerationCapError before building anything.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if m < 0:
        raise ValueError(f"degree bound must be nonnegative, got {m}")
    if cap < 1:
        raise ValueError(f"exponent cap must be positive, got {cap}")
    top = min(m, n * cap)
    count = sum(
        (-1) ** j * math.comb(n, j) * math.comb(top - j * (cap + 1) + n, n)
        for j in range(min(n, top // (cap + 1)) + 1)
    )
    limit = enumeration_cap()
    if count > limit:
        raise EnumerationCapError(f"{count} monomials in {n} variables up to degree {m}, cap is {limit}")
    return _build_table(n, m, cap)


@lru_cache(maxsize=None)
def _build_table(n: int, m: int, cap: int) -> np.ndarray:
    """The table, built one coordinate at a time from the last.  Over
    coordinates i..n, the rows of degree k are, for e = 0, 1, ...,
    min(cap, k), e in front of the rows of degree k - e over coordinates
    i+1..n: one contiguous run of the table over those.  Each coordinate
    keeps only its rows' lead exponents e and their rows in the table
    before; the columns are filled once at the end, following those rows
    from the first coordinate to the last, in n gathers of the final row
    count, a chunk of rows at a time (``gflinalg.chunk_rows``) so that the
    column writes stay in cache."""
    top = min(m, n * cap)
    degree = np.arange(top + 1)
    # Every (k, e) pair, by k, then e, with k - e at most (n - 1) * cap:
    # its lead exponent e and the degree k - e of the rest.
    low = np.maximum(degree - (n - 1) * cap, 0)
    widths = np.minimum(degree, cap) - low + 1
    starts = np.cumsum(widths) - widths
    dtype = np.min_scalar_type(min(cap, m))
    lead = _ranges(low, widths)
    rest = np.repeat(degree, widths) - lead
    lead = lead.astype(dtype)
    levels = []
    counts = (degree <= cap).astype(np.int64)
    for _ in range(1, n):
        runs = counts[rest]
        levels.append((np.repeat(lead, runs), _ranges((np.cumsum(counts) - counts)[rest], runs)))
        counts = np.add.reduceat(runs, starts)
    levels.reverse()
    table = np.empty((int(counts.sum()), n), dtype=dtype)
    step = chunk_rows(n)
    for start in range(0, len(table), step):
        part = table[start : start + step]
        row = np.arange(start, start + len(part))
        for j, (leads, parents) in enumerate(levels):
            part[:, j] = leads[row]
            row = parents[row]
        # The rows over the last coordinate alone are its exponents 0, 1, ...
        part[:, n - 1] = row
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def monomials_upto(n: int, m: int, cap: int) -> tuple[Monomial, ...]:
    """:func:`monomial_table` as tuples of Python ints: its public form."""
    return tuple(map(tuple, monomial_table(n, m, cap).tolist()))


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in n variables over F_p.

    Terms are stored as a tuple of (monomial, coefficient) pairs in the
    global monomial order, with coefficients in 1..p-1 and no zero
    coefficients, so equality is plain table equality.
    """

    p: int
    n: int
    terms: tuple[tuple[Monomial, int], ...]

    def __post_init__(self) -> None:
        for mono, coeff in self.terms:
            if len(mono) != self.n:
                raise ValueError(f"monomial {mono} has wrong length for n={self.n}")
            if not 1 <= coeff < self.p:
                raise ValueError(f"coefficient {coeff} not reduced for p={self.p}")
        keys = [mono for mono, _ in self.terms]
        if keys != sorted(keys, key=monomial_sort_key) or len(set(keys)) != len(keys):
            raise ValueError("terms must be in monomial order without repeats")

    @classmethod
    def from_terms(cls, p: int, n: int, mapping: Mapping[Monomial, int]) -> "Polynomial":
        """Build from any monomial -> coefficient mapping, normalizing."""
        reduced = {}
        for mono, coeff in mapping.items():
            c = int(coeff) % p
            if c:
                reduced[tuple(mono)] = c
        ordered = tuple(sorted(reduced.items(), key=lambda kv: monomial_sort_key(kv[0])))
        return cls(p, n, ordered)

    @classmethod
    def zero(cls, p: int, n: int) -> "Polynomial":
        return cls(p, n, ())

    @classmethod
    def constant(cls, value: int, p: int, n: int) -> "Polynomial":
        return cls.from_terms(p, n, {(0,) * n: value})

    @property
    def degree(self) -> int | float:
        if not self.terms:
            return ZERO_DEGREE
        return max(sum(mono) for mono, _ in self.terms)

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other, self.p, self.n)
        self._check_compatible(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms:
            acc[mono] = acc.get(mono, 0) + coeff
        return Polynomial.from_terms(self.p, self.n, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_terms(self.p, self.n, {m: -c for m, c in self.terms})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other, self.p, self.n)
        return self + (-other)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other, self.p, self.n)
        self._check_compatible(other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                prod = tuple(a + b for a, b in zip(m1, m2))
                acc[prod] = acc.get(prod, 0) + c1 * c2
        return Polynomial.from_terms(self.p, self.n, acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts)


def evaluate(f: Polynomial, x: Sequence[int]) -> int:
    """Value of f at the point x, reduced into 0..p-1."""
    if len(x) != f.n:
        raise ValueError(f"point has length {len(x)}, expected {f.n}")
    p = f.p
    coords = [int(v) % p for v in x]
    total = 0
    for mono, coeff in f.terms:
        term = coeff
        for xi, e in zip(coords, mono):
            if e:
                term = (term * pow(xi, e, p)) % p
                if term == 0:
                    break
        total += term
    return total % p


def multilinear_reduce(f: Polynomial) -> Polynomial:
    """Normal form modulo x_i^2 - x_i: every positive exponent becomes 1.

    Value-preserving on {0,1}^n and never increases the degree.
    """
    acc: dict[Monomial, int] = {}
    for mono, coeff in f.terms:
        flat = tuple(min(e, 1) for e in mono)
        acc[flat] = acc.get(flat, 0) + coeff
    return Polynomial.from_terms(f.p, f.n, acc)


def expand_affine_product(
    factors: Iterable[tuple[Sequence[int], int]], p: int, n: int
) -> Polynomial:
    """Fully expanded product of affine forms (<x, v> - c).

    The empty product is the constant 1.  No exponent reduction is
    applied, so the degree is at most the number of factors k, and the
    product can have up to C(n+k, k) terms of n exponents and a
    coefficient each; when those C(n+k, k)·(n+1) entries pass the
    enumeration cap this raises EnumerationCapError before expanding
    anything.
    """
    factors = list(factors)
    entries = math.comb(n + len(factors), len(factors)) * (n + 1)
    if entries > enumeration_cap():
        raise EnumerationCapError(
            f"product of {len(factors)} affine forms in {n} variables may store "
            f"{entries} entries, cap is {enumeration_cap()}"
        )
    acc = Polynomial.constant(1, p, n)
    for v, c in factors:
        if len(v) != n:
            raise ValueError(f"direction vector has length {len(v)}, expected {n}")
        terms: dict[Monomial, int] = {}
        for i, vi in enumerate(v):
            if vi % p:
                mono = tuple(1 if j == i else 0 for j in range(n))
                terms[mono] = vi
        terms[(0,) * n] = -c
        acc = acc * Polynomial.from_terms(p, n, terms)
    return acc
