"""Bernoulli numbers, Euler numbers, and zigzag permutation counts.

The integer sequences come from two independent directions:

  * recurrences: the defining Bernoulli recurrence, scaled by factorials
    so that its sums run on plain integers, and the boustrophedon
    (back-and-forth) triangle for the zigzag counts A(n);
  * brute force: an exhaustive search over the permutations of {1..n},
    capped at n = 10.  It grows every prefix that keeps the up/down
    pattern sigma(1) < sigma(2) > sigma(3) < ... by one position at a
    time, as rows of a numpy array (a frontier), and checks every
    complete row against the definition: a permutation of 1..n whose
    steps alternate.  A prefix is dropped only when its last step breaks
    the pattern, and such a step breaks it for every completion, so no
    alternating permutation is missed.  The search uses nothing but the
    definition of alternation, so it stays an independent check on the
    recurrences.

Euler numbers of even order are derived from the zigzag counts,
E_2m = (-1)^m A(2m), and the cyclic counts from A0(2m) = m * A(2m-1).
A permutation is a plain tuple of images (sigma(1), ..., sigma(n)).

numpy is imported only inside the two functions that build the frontier
and check its leaves, so the exact recurrences run without loading it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, factorial
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

# At n = 10 the brute-force frontier peaks at 79360 prefixes of length 9
# and ends with 50521 checked leaves, about 7 MB of numpy buffers at most.
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
        row = list(accumulate(cache._row[::-1], initial=0))
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


def _frontier_leaves(n: int) -> np.ndarray:
    """Every permutation of {1..n} whose up/down pattern holds at each step.

    Returns an (A(n), n) int8 array, one row per leaf, in lexicographic
    order.  Starts from the n one-value prefixes and grows every prefix by
    one position at a time: position k takes each value v not yet in the
    prefix (an int32 bitmask of used values) that keeps the step from
    position k-1 rising (k odd) or falling (k even).  A value outside that
    range breaks the pattern for every completion, so no other row is
    dropped.  Each permutation appears at most once.  The int32 mask holds
    n <= 30.
    """
    import numpy as np

    values = np.arange(1, n + 1, dtype=np.int8)
    bits = np.left_shift(1, values, dtype=np.int32)
    rows = values[:, None]
    used = bits
    for k in range(1, n):
        last = rows[:, -1:]
        step = values > last if k % 2 else values < last
        prefix, value = np.nonzero(step & ((used[:, None] & bits) == 0))
        rows = np.column_stack((rows[prefix], values[value]))
        used = used[prefix] | bits[value]
    return rows


def _leaf_checks(leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``is_alternating`` and ``is_cyclically_alternating`` on permutations.

    The first mask is true where the row is a permutation of 1..n (its
    sorted values are 1..n) whose differences alternate in sign, rising
    first; the second also needs even n >= 2 and last > first.
    """
    import numpy as np

    n = leaves.shape[1]
    permutation = (np.sort(leaves, axis=1) == np.arange(1, n + 1)).all(axis=1)
    steps = np.diff(leaves.astype(np.int16), axis=1)
    steps[:, 1::2] *= -1  # falls at odd steps count as positive
    alternating = permutation & (steps > 0).all(axis=1)
    wraps = leaves[:, -1] > leaves[:, 0] if n > 0 and n % 2 == 0 else False
    return alternating, alternating & wraps


@cache
def _leaf_counts(n: int) -> tuple[int, int]:
    """(A(n), A0(n)) counted over the checked frontier leaves; A0 is 0 for odd n.

    Memoised per n, so both brute-force counts come from one search.
    """
    alternating, cyclic = _leaf_checks(_frontier_leaves(n))
    return int(alternating.sum()), int(cyclic.sum())


def zigzag_bruteforce(n: int) -> int:
    """A(n) by an exhaustive search over the permutations of {1..n}; requires 1 <= n <= 10.

    Grows only pattern-keeping prefixes (see ``_frontier_leaves``), and
    counts a complete row only if it is a permutation of 1..n whose steps
    alternate, checked row by row.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"brute force supports 1 <= n <= {ENUMERATION_LIMIT}")
    return _leaf_counts(n)[0]


def cyclic_zigzag(n: int) -> int:
    """Number A0(n) of cyclically alternating permutations of {1..n}, n even.

    Computed via the m-to-one rotation correspondence: A0(2m) = m * A(2m-1).
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("cyclically alternating permutations require even n >= 2")
    return (n // 2) * zigzag(n - 1)


def cyclic_zigzag_bruteforce(n: int) -> int:
    """A0(n) by an exhaustive search over the permutations of {1..n}; requires even 2 <= n <= 10.

    Counts the leaves of the same search as ``zigzag_bruteforce`` that are
    alternating permutations and also close the cycle, sigma(n) > sigma(1).
    """
    if n % 2 != 0:
        raise ValueError("cyclically alternating permutations require even n")
    if not 2 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"brute force supports 2 <= n <= {ENUMERATION_LIMIT}")
    return _leaf_counts(n)[1]


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

