"""Bernoulli numbers, Euler numbers, and zigzag permutation counts.

The integer sequences come from two independent directions:

  * recurrences: the defining Bernoulli recurrence, scaled by factorials
    so that its sums run on plain integers, and the boustrophedon
    (back-and-forth) triangle for the zigzag counts A(n);
  * brute force: an exhaustive backtracking search over the permutations
    of {1..n}, capped at n = 10.  It extends only prefixes that keep the
    up/down pattern sigma(1) < sigma(2) > sigma(3) < ..., so a subtree is
    dropped only once its prefix already breaks alternation, and every
    complete leaf is accepted only by the alternation predicates.  It uses
    nothing but the definition of alternation, so it stays an independent
    check on the recurrences.

Euler numbers of even order are derived from the zigzag counts,
E_2m = (-1)^m A(2m), and the cyclic counts from A0(2m) = m * A(2m-1).
A permutation is a plain tuple of images (sigma(1), ..., sigma(n)).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterator, NamedTuple, Sequence

Permutation = tuple[int, ...]

# The brute-force search decides at most 10! = 3.6M permutations.
ENUMERATION_LIMIT = 10


class SequenceCache:
    """Memo store for Bernoulli values and the boustrophedon triangle.

    Entries always equal what a fresh recomputation would produce, so
    concurrent readers may race and at worst recompute.  ``scaled_bernoulli``
    holds the integers (k+1)! B_k that the recurrence runs on.
    """

    def __init__(self) -> None:
        self.bernoulli: dict[int, Fraction] = {0: Fraction(1)}
        self.scaled_bernoulli: dict[int, int] = {0: 1}
        self.zigzag: dict[int, int] = {0: 1}
        self._row: list[int] = [1]  # last triangle row, for index len(_row) - 1


_CACHE = SequenceCache()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_0 = 1, B_1 = -1/2, and B_odd = 0 for n >= 3.

    Computed by the defining recurrence sum_{m=0}^{k} C(k+1, m) B_m = 0,
    scaled by (k+1)!: with c_k = (k+1)! B_k it reads

        c_k = -sum_{m<k} C(k+1, m) (k! / (m+1)!) c_m,

    where every factor is an integer.  The coefficient of c_m is updated to
    that of c_{m+1} by an exact multiply and a divide by (m+1)(m+2), terms
    whose c_m came out as 0 are skipped, and each c_k is divided by (k+1)!
    once.  Odd-index values come out of the recurrence like all others.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    known, scaled = _CACHE.bernoulli, _CACHE.scaled_bernoulli
    for k in range(len(scaled), n + 1):
        coeff = factorial(k)  # C(k+1, 0) k! / 1!
        acc = 0
        for m in range(k):
            c_m = scaled[m]
            if c_m:
                acc += coeff * c_m
            coeff = coeff * (k + 1 - m) // ((m + 1) * (m + 2))
        scaled[k] = -acc
    for k in range(len(known), n + 1):
        known[k] = Fraction(scaled[k], factorial(k + 1))
    return known[n]


class PowerSum(NamedTuple):
    direct: int
    via_bernoulli: Fraction


def power_sum(N: int, p: int) -> PowerSum:
    """Sum of k^p for k = 1..N, by literal summation and by the Bernoulli route.

    The Bernoulli route uses the convention (consistent with B_1 = -1/2)

        sum_{k=0}^{N-1} k^p = (1/(p+1)) sum_{m=0}^{p} C(p+1, m) B_m N^(p+1-m)

    and then adds N^p.  For p = 0 the k = 0 term contributes 1 to the
    left-hand side and must be removed again.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if p < 0:
        raise ValueError("p must be nonnegative")
    direct = sum(k**p for k in range(1, N + 1))
    below = (
        sum(comb(p + 1, m) * bernoulli(m) * Fraction(N) ** (p + 1 - m) for m in range(p + 1))
        / (p + 1)
    )
    via = below + N**p - (1 if p == 0 else 0)
    return PowerSum(direct, via)


def zigzag(n: int) -> int:
    """Number A(n) of alternating permutations of {1..n}, with A(0) = 1.

    Uses the boustrophedon triangle: each row is the reversed cumulative sum
    of the previous one, and only the last row is kept.
    """
    if n < 0:
        raise ValueError("zigzag counts are indexed by n >= 0")
    cache = _CACHE
    while len(cache._row) <= n:
        prev = cache._row[::-1]
        row = [0]
        for value in prev:
            row.append(row[-1] + value)
        cache._row = row
        cache.zigzag[len(row) - 1] = row[-1]
    return cache.zigzag[n]


def is_alternating(perm: Sequence[int]) -> bool:
    """True iff sigma(1) < sigma(2) > sigma(3) < sigma(4) > ..."""
    for i in range(len(perm) - 1):
        if i % 2 == 0:
            if perm[i] >= perm[i + 1]:
                return False
        elif perm[i] <= perm[i + 1]:
            return False
    return True


def is_cyclically_alternating(perm: Sequence[int]) -> bool:
    """True iff perm is alternating, of even positive length, and wraps around.

    The wrap condition is sigma(n) > sigma(1), which closes the chain
    sigma(1) < sigma(2) > ... < sigma(n) > sigma(1).
    """
    n = len(perm)
    return n > 0 and n % 2 == 0 and is_alternating(perm) and perm[-1] > perm[0]


def _pattern_leaves(n: int) -> Iterator[Permutation]:
    """Every permutation of {1..n} whose up/down pattern holds at each step.

    Exhaustive backtracking: position k takes each unused value that keeps
    the step from position k-1 rising (k odd) or falling (k even).  A value
    outside that range breaks the pattern for every completion, so no other
    subtree is dropped.  Each permutation is yielded at most once.
    """
    used = [False] * (n + 1)
    prefix: list[int] = []

    def extend(k: int) -> Iterator[Permutation]:
        if k == n:
            yield tuple(prefix)
            return
        if k == 0:
            candidates = range(1, n + 1)
        elif k % 2:
            candidates = range(prefix[-1] + 1, n + 1)
        else:
            candidates = range(1, prefix[-1])
        for v in candidates:
            if used[v]:
                continue
            used[v] = True
            prefix.append(v)
            yield from extend(k + 1)
            prefix.pop()
            used[v] = False

    return extend(0)


def zigzag_bruteforce(n: int) -> int:
    """A(n) by an exhaustive search of all n! permutations; requires 1 <= n <= 10.

    Only pattern-keeping prefixes are extended, and each complete leaf is
    counted only if ``is_alternating`` accepts it.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"brute force supports 1 <= n <= {ENUMERATION_LIMIT}")
    return sum(1 for p in _pattern_leaves(n) if is_alternating(p))


def cyclic_zigzag(n: int) -> int:
    """Number A0(n) of cyclically alternating permutations of {1..n}, n even.

    Computed via the m-to-one rotation correspondence: A0(2m) = m * A(2m-1).
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("cyclically alternating permutations require even n >= 2")
    return (n // 2) * zigzag(n - 1)


def cyclic_zigzag_bruteforce(n: int) -> int:
    """A0(n) by an exhaustive search of all n! permutations; requires even 2 <= n <= 10.

    Shares the pattern-pruned search of ``zigzag_bruteforce``; each complete
    leaf is counted only if ``is_cyclically_alternating`` accepts it.
    """
    if n % 2 != 0:
        raise ValueError("cyclically alternating permutations require even n")
    if not 2 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"brute force supports 2 <= n <= {ENUMERATION_LIMIT}")
    return sum(1 for p in _pattern_leaves(n) if is_cyclically_alternating(p))


def euler_number(n: int) -> int:
    """Euler number E_n of even order: E_0 = 1 and E_2m = (-1)^m A(2m).

    Odd orders are out of scope (they vanish in the convention used here
    for the even-order table).
    """
    if n < 0:
        raise ValueError("Euler numbers are indexed by n >= 0")
    if n % 2 != 0:
        raise ValueError("only even-order Euler numbers are supported")
    return (-1) ** (n // 2) * zigzag(n)

