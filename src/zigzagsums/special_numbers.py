"""Bernoulli numbers, Euler numbers, and zigzag permutation counts.

The numbers come from three independent directions:

  * L-values: B_n for even n >= 2 from zeta(n), and E_n from beta(n+1),
    the Dirichlet L-function of the character mod 4.  Each L-value is an
    Euler product over primes in fixed-point integers, divided by a power
    of pi from Machin's formula, and rounded to the integer it must be
    under a rigorous error bound (Fillebrown's method, as in PARI's
    bernfrac; Harvey, Math. Comp. 79, 2010).  The denominator of B_n
    comes from von Staudt-Clausen;
  * the boustrophedon (back-and-forth) triangle for the zigzag counts A(n);
  * brute force: an exhaustive search over the permutations of {1..n},
    capped at n = 10.  It grows every prefix that keeps the up/down
    pattern sigma(1) < sigma(2) > sigma(3) < ... by one position at a
    time, as rows of a numpy array (a frontier), and checks every
    complete row against the definition: a permutation of 1..n whose
    steps alternate.  A prefix is dropped only when its last step breaks
    the pattern, and such a step breaks it for every completion, so no
    alternating permutation is missed.  The search uses nothing but the
    definition of alternation, so it stays an independent check on the
    triangle.

None of the three reads another, so E_2m = (-1)^m A(2m) and
A0(2m) = 2^(2m-1) (2^2m - 1) |B_2m| are cross-checks.  The cyclic counts
come from A0(2m) = m * A(2m-1).  A permutation is a row of images
(sigma(1), ..., sigma(n)).

numpy is imported only inside the two functions that build the frontier
and check its leaves, so the exact routes run without loading it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, compress
from math import ceil, comb, factorial, floor, isqrt, log2, pi, prod
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

# At n = 10 the brute-force frontier peaks at 79360 prefixes of length 9
# and ends with 50521 checked leaves, about 4 MB of numpy buffers at most.
ENUMERATION_LIMIT = 10


class SequenceCache:
    """Memo store for Bernoulli and Euler values, Machin's pi and the boustrophedon triangle.

    Entries always equal what a fresh recomputation would produce, so
    concurrent readers may race and at worst recompute.  ``pi`` holds
    (bits, P) with |P - pi 2^bits| < 3 at the largest precision asked so far.
    """

    def __init__(self) -> None:
        self.bernoulli: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
        self.euler: dict[int, int] = {0: 1}
        self.pi: tuple[int, int] = (0, 3)
        self.zigzag: dict[int, int] = {0: 1}
        self._row: list[int] = [1]  # last triangle row, for index len(_row) - 1


_CACHE = SequenceCache()

# Bits of margin in the L-value kernel beyond the size of the integer and the
# count of roundings.  The Euler-product tail and the roundings with pi's
# truncation then move the result by at most about 2^(2 - _GUARD_BITS) = 1/64
# each and the final division by 2^-_GUARD_BITS, so the certified error stays
# far below the 1/4 that _l_integer accepts.  At 2 bits or fewer it no longer
# certifies any B_n or E_n.
_GUARD_BITS = 8


def _primes_to(limit: int) -> list[int]:
    """The primes p <= limit, for limit >= 1, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = bytes(2)
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return list(compress(range(limit + 1), sieve))


def _arctan_inverse(x: int, one: int) -> int:
    """one * arctan(1/x) for x >= 5, summed term by term with floor divisions.

    Each of the J terms is off by less than 3 and the dropped tail by less
    than 2, so the sum is off by less than 3J + 3, where J is about
    log2(one) / (2 log2 x).
    """
    x2 = x * x
    power = total = one // x
    k = 3
    while power:
        power //= x2
        total += power // k if k % 4 == 1 else -(power // k)
        k += 2
    return total


def _machin_pi(bits: int) -> int:
    """P with |P - pi 2^bits| < 3, from pi/4 = 4 arctan(1/5) - arctan(1/239).

    The value is cached at the largest precision asked; a request above it
    computes at least twice the cached bits, and a request below it is the
    cached value shifted down.  The sums run with bits.bit_length() + 8
    guard bits, which keeps their error under 1/2 unit before the shift.
    """
    held, value = _CACHE.pi
    if bits > held:
        held = max(bits, 2 * held, 64)
        guard = held.bit_length() + 8
        one = 1 << (held + guard)
        value = (16 * _arctan_inverse(5, one) - 4 * _arctan_inverse(239, one)) >> guard
        _CACHE.pi = held, value
    return value >> (held - bits)


def _euler_product(s: int, chi4: bool, bits: int, limit: int) -> int:
    """Z with Z / 2^bits the Euler product over primes p <= limit of (1 - chi(p) p^-s)^-1.

    chi is the trivial character, whose product tends to zeta(s), or with
    chi4 the nonprincipal character mod 4 (chi(p) = +-1 for p = 1, 3 mod 4
    and chi(2) = 0), whose product tends to beta(s) = L(s, chi4).  Each
    prime's factor is applied by one floor (chi = 1) or ceiling (chi = -1)
    division of Z, so each moves Z by a relative error below 2^(1-bits)
    while Z stays above 2^(bits-1).
    """
    z = 1 << bits
    for p in _primes_to(limit):
        if chi4 and p == 2:
            continue
        q = p**s
        if q - 1 > z:
            break  # this and every later factor rounds to 1
        if chi4 and p % 4 == 3:
            z -= z // (q + 1)
        else:
            z += z // (q - 1)
    return z


def _pi_power(s: int, pi_bits: int, bits: int) -> tuple[int, int]:
    """(m, e) with m 2^e = (P 2^-pi_bits)^s, P = _machin_pi(pi_bits), up to rounding.

    Left-to-right binary powering; after each step the mantissa m is cut to
    ``bits`` bits, s.bit_length() truncations of relative error below
    2^(1-bits) each.
    """
    base = _machin_pi(pi_bits)
    m, e = 1, 0
    for digit in bin(s)[2:]:
        m, e = m * m, 2 * e
        if digit == "1":
            m, e = m * base, e - pi_bits
        drop = m.bit_length() - bits
        if drop > 0:
            m, e = m >> drop, e + drop
    return m, e


def _l_integer(s: int, chi4: bool, scale: int, shift: int) -> int:
    """N = scale 2^shift L(s, chi) / pi^s, for s >= 2, given that N is an integer.

    L is zeta(s) or, with chi4, beta(s), from ``_euler_product``.  The
    working precision is sized from the bits N needs: N < 2^size, since
    L < 2 and pi^s >= 2^floor(s log2 pi).  With R the roundings below (one
    per prime up to the limit P, one per bit of s) and u = 2^(1-bits), the
    computed value is N (1 + theta) up to a last floor of 2^-h, where
    |theta| <= 4 sigma and

        sigma = R u + s 2^-pi_bits + tail,   tail = P^(1-s) / (s - 1)

    covers the roundings, the truncation of pi (relative below
    2^-pi_bits, raised to the s-th power) and the primes above P: the
    remaining product is 1 + sum of chi(m) m^-s over m > P free of small
    primes, within sum_{m>P} m^-s <= P^(1-s) / (s - 1) of 1.  P, bits and
    pi_bits make each term at most 2^(-size - _GUARD_BITS).

    Raises RuntimeError unless the certified error is below 1/4 and the
    value lies within 1/4 of an integer; then that integer is N.
    """
    size = max(1, scale.bit_length() + shift + 2 - floor(s * log2(pi)))
    tail_bits = size + _GUARD_BITS
    limit = max(2, ceil(2 ** ((tail_bits - log2(s - 1)) / (s - 1))))
    while (s - 1) * limit ** (s - 1) < 1 << tail_bits:
        limit += 1
    roundings = limit + s.bit_length()
    bits = size + (2 * roundings + 1).bit_length() + _GUARD_BITS
    z = _euler_product(s, chi4, bits, limit)
    m, e = _pi_power(s, bits + s.bit_length(), bits)
    h = _GUARD_BITS
    exponent = h + shift - bits - e
    num = scale * z
    q = (num << exponent) // m if exponent >= 0 else num // (m << -exponent)
    sigma = Fraction(2 * roundings + 1, 1 << bits) + Fraction(1, 1 << tail_bits)
    value, ulp = Fraction(q, 1 << h), Fraction(1, 1 << h)
    nearest = round(value)
    if 8 * sigma < 1:
        error = 4 * sigma * (value + ulp) / (1 - 4 * sigma) + ulp
        if error < Fraction(1, 4) and abs(value - nearest) <= Fraction(1, 4):
            return nearest
    raise RuntimeError(f"L({s}) at {bits} bits does not certify an integer")


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_0 = 1, B_1 = -1/2, and B_odd = 0 for n >= 3.

    For even n >= 2, |B_n| = 2 n! zeta(n) / (2 pi)^n.  Its denominator D is
    the product of the primes p with (p - 1) | n (von Staudt-Clausen), so
    D |B_n| is an integer, rounded from zeta(n)'s Euler product
    (``_l_integer``); the sign is (-1)^(n/2 + 1).  Nothing here reads the
    zigzag counts.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    known = _CACHE.bernoulli
    if n not in known:
        if n % 2:
            return Fraction(0)
        denominator = prod(p for p in _primes_to(n + 1) if n % (p - 1) == 0)
        numerator = _l_integer(n, False, 2 * denominator * factorial(n), -n)
        known[n] = Fraction((-1) ** (n // 2 + 1) * numerator, denominator)
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
        sum(bernoulli(m) * (comb(p + 1, m) * N ** (p + 1 - m)) for m in range(p + 1))
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


def _frontier_leaves(n: int) -> np.ndarray:
    """Every permutation of {1..n} whose up/down pattern holds at each step.

    Returns an (A(n), n) int8 array, one row per leaf, in lexicographic
    order.  Starts from the n one-value prefixes and grows every prefix by
    one position at a time: position k takes each value v not yet in the
    prefix that keeps the step from position k-1 rising (k odd) or falling
    (k even).  A value outside that range breaks the pattern for every
    completion, so no other row is dropped.  Each permutation appears at
    most once.

    Those values depend only on the prefix's used values (a bitmask, bit
    v - 1 for value v) and its last value, so each step direction has one
    table, built once over all 2^n * n such keys, that lists them in
    ascending order; each prefix is repeated once per value its key lists,
    which keeps the rows in lexicographic order.  Building the tables takes
    2^n * n^2 flags, 100 kB at n = 10.
    """
    import numpy as np

    values = np.arange(1, n + 1, dtype=np.int8)
    bits = np.left_shift(1, np.arange(n, dtype=np.int32))
    free = (np.arange(1 << n, dtype=np.int32)[:, None] & bits) == 0  # (mask, value)
    tables = []
    for rising in (False, True):
        # allowed[mask, last, value], keyed below by mask * n + last - 1
        step = values > values[:, None] if rising else values < values[:, None]
        allowed = (free[:, None, :] & step).reshape(-1, n)
        counts = allowed.sum(axis=1, dtype=np.int32)
        listed = np.nonzero(allowed)[1].astype(np.int8)
        tables.append((counts, np.cumsum(counts, dtype=np.int32) - counts, listed))
    rows = values[:, None]
    used = bits
    for k in range(1, n):
        counts, starts, listed = tables[k % 2]
        key = used * n + (rows[:, -1] - 1)
        repeats = counts[key]
        prefix = np.repeat(np.arange(len(rows), dtype=np.int32), repeats)
        # the i-th value listed for a prefix's key is listed[starts[key] + i]
        at = np.repeat(starts[key] - (np.cumsum(repeats, dtype=np.int32) - repeats), repeats)
        at += np.arange(len(prefix), dtype=np.int32)
        chosen = listed[at]
        rows = np.column_stack((rows[prefix], values[chosen]))
        used = used[prefix] | bits[chosen]
    return rows


def _leaf_checks(leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise alternation masks of candidate permutations, from the definition.

    The first mask is true where the row is a permutation of 1..n (its
    sorted values are 1..n) that is alternating: its differences alternate
    in sign, rising first, sigma(1) < sigma(2) > sigma(3) < ...  The second
    also needs cyclic alternation: even n >= 2 and last > first, which
    closes the chain ... < sigma(n) > sigma(1).
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
    """Euler number E_n of even order: E_0 = 1, E_2 = -1, E_4 = 5, ...

    For even n >= 2, |E_n| = 2 n! (2/pi)^(n+1) beta(n+1), with beta the
    Dirichlet L-function of the character mod 4, rounded from its Euler
    product (``_l_integer``); the sign is (-1)^(n/2).  Nothing here reads
    the zigzag counts, so E_2m = (-1)^m A(2m) is a cross-check.  Odd
    orders are out of scope (they vanish in the convention used here).
    """
    if n < 0:
        raise ValueError("Euler numbers are indexed by n >= 0")
    if n % 2 != 0:
        raise ValueError("only even-order Euler numbers are supported")
    known = _CACHE.euler
    if n not in known:
        known[n] = (-1) ** (n // 2) * _l_integer(n + 1, True, factorial(n), n + 2)
    return known[n]
