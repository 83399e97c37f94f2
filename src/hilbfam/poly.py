"""Polynomials over F_p keyed by exponent vectors.

The monomial order used everywhere (matrix columns, term rendering,
kernel bases) is: ascending total degree, then ascending lexicographic
on the exponent tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .setfam import EnumerationCapError, enumeration_cap

Monomial = tuple[int, ...]
Point = tuple[int, ...]

# Degree of the zero polynomial: below every integer, distinct from the
# degree 0 of nonzero constants.
ZERO_DEGREE = float("-inf")


def monomial_sort_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


@lru_cache(maxsize=None)
def monomials_upto(n: int, m: int, cap: int) -> tuple[Monomial, ...]:
    """All exponent vectors with entries <= cap and total degree <= m.

    Returned in the global monomial order; this tuple is the column
    index set of every evaluation matrix.  Counted first, by inclusion-
    exclusion over the entries past cap: past the enumeration cap this
    raises EnumerationCapError before listing anything.
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
    out: list[Monomial] = []
    for k in range(top + 1):
        vec, i, tail = [0] * n, -1, k
        while True:
            # The weight `tail` goes rightmost past entry i: the smallest
            # way to finish the vector.
            for j in range(n - 1, i, -1):
                vec[j] = min(cap, tail)
                tail -= vec[j]
            out.append(tuple(vec))
            # The next vector of degree k raises by one the rightmost entry
            # below cap with weight to its right, taking one unit of it.
            i, tail = n - 1, 0
            while i >= 0 and (vec[i] == cap or not tail):
                tail += vec[i]
                i -= 1
            if i < 0:
                break
            vec[i] += 1
            tail -= 1
    return tuple(out)


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
