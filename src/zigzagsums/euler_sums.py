"""The lattice sums S(n) over 4k+1 and their zeta / beta relatives.

S(n) is the two-sided sum of (4k+1)^(-n) over all integers k.  For every
n >= 1 it is an exact rational multiple of pi^n, and this module computes
that rational by these routes, plus direct float summation:

  s_coeff               A(n-1) / (2^(n+1) (n-1)!), from the zigzag counts
  s_coeff_via_bernoulli (-1)^(m-1) (2^2m - 1) B_2m / (2 (2m)!)   for n = 2m
  s_coeff_via_euler     (-1)^m E_2m / (2^(2m+2) (2m)!)           for n = 2m+1
  s_numeric             truncated summation with a rigorous tail bound

Only the Bernoulli route is independent of the zigzag counts.  The Euler
route is not: euler_number(2m) is defined as (-1)^m A(2m), so
s_coeff_via_euler equals s_coeff by construction, and so does l4_coeff.
Their checks test the conversion constants, not a second computation.

The Bernoulli and Euler conversion constants are the calibrated forms: the
variants sometimes printed without the factorial factor (or with it moved
into the denominator) contradict the exact coefficient tables, which the
test suite checks before anything else uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add
from typing import Callable, Iterator, NamedTuple

from .special_numbers import bernoulli, euler_number, zigzag


# pi^620 is about 1.7e308, the largest power of pi that is a finite float,
# so a mantissa below 1 times it stays finite.
_PI_POWER_STEP = 620


def _frexp_fraction(x: Fraction) -> tuple[float, int]:
    """(m, e) with m = x / 2^e correctly rounded and 1/2 <= |m| < 1 (m = 0.0 for x = 0)."""
    num, den = x.numerator, x.denominator
    shift = num.bit_length() - den.bit_length()
    if shift > 0:
        den <<= shift
    else:
        num <<= -shift
    m, e = math.frexp(num / den)
    return m, e + shift


def _frexp_pi_power(power: int) -> tuple[float, int]:
    """pi^power as (m, e) with pi^power = m * 2^e and 1/2 <= m < 1."""
    m, e = 1.0, 0
    while power > 0:
        step = min(power, _PI_POWER_STEP)
        m, step_e = math.frexp(m * math.pi**step)
        e += step_e
        power -= step
    return m, e


@dataclass(frozen=True)
class PiMultiple:
    """An exact value coeff * pi^power; zero is normalized to power 0."""

    coeff: Fraction
    power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.power < 0:
            raise ValueError("negative pi power")
        if self.coeff == 0:
            object.__setattr__(self, "power", 0)

    def to_float(self) -> float:
        """coeff * pi^power in double precision, also where pi^power alone overflows.

        Both factors are split into mantissa and binary exponent, so neither
        overflows nor goes subnormal, and the mantissas' product is scaled
        by the summed exponent.  While float(coeff) and the result are
        normal floats and power <= 620, this is the plain product
        float(coeff) * math.pi**power bit for bit: each factor's mantissa is
        the correctly rounded one, the product is rounded once, and scaling
        by a power of 2 is exact.  A result beyond the float range raises
        OverflowError.
        """
        coeff_m, coeff_e = _frexp_fraction(self.coeff)
        pi_m, pi_e = _frexp_pi_power(self.power)
        return math.ldexp(coeff_m * pi_m, coeff_e + pi_e)

    def text(self) -> str:
        """Lowest-terms rational times an explicit pi power, e.g. "1/8 · pi^2"."""
        if self.power == 0:
            return str(self.coeff)
        if self.power == 1:
            return f"{self.coeff} · pi"
        return f"{self.coeff} · pi^{self.power}"

    def as_json_dict(self) -> dict:
        return {"coeff": str(self.coeff), "pi_power": self.power}


def s_coeff(n: int) -> Fraction:
    """The exact rational pi^(-n) S(n), from the zigzag counts.

    s_coeff(1) = 1/4, the alternating odd-reciprocal sum.
    """
    if n < 1:
        raise ValueError("the sum diverges for n < 1; need n >= 1")
    return Fraction(zigzag(n - 1), 2 ** (n + 1) * math.factorial(n - 1))


def s_coeff_via_bernoulli(n: int) -> Fraction:
    """pi^(-n) S(n) for even n, from the Bernoulli number B_n."""
    if n < 2 or n % 2 != 0:
        raise ValueError("the Bernoulli route requires even n >= 2")
    m = n // 2
    return (-1) ** (m - 1) * (2**n - 1) * bernoulli(n) / (2 * math.factorial(n))


def s_coeff_via_euler(n: int) -> Fraction:
    """pi^(-n) S(n) for odd n, from the Euler number E_(n-1)."""
    if n < 1 or n % 2 != 1:
        raise ValueError("the Euler route requires odd n >= 1")
    m = (n - 1) // 2
    return Fraction((-1) ** m * euler_number(n - 1), 2 ** (n + 1) * math.factorial(n - 1))


def zeta_coeff(n: int) -> Fraction:
    """The exact rational pi^(-n) zeta(n) for even n: s_coeff(n) / (1 - 2^-n)."""
    if n < 2 or n % 2 != 0:
        raise ValueError("zeta(n) is a rational multiple of pi^n only for even n >= 2")
    return s_coeff(n) * 2**n / (2**n - 1)


def l4_coeff(n: int) -> Fraction:
    """The exact rational pi^(-n) L(n, chi_4) for odd n; equals s_coeff(n)."""
    if n < 1 or n % 2 != 1:
        raise ValueError("the alternating L-value route requires odd n >= 1")
    return s_coeff(n)


def s_value(n: int) -> PiMultiple:
    """S(n) as an exact pi multiple."""
    return PiMultiple(s_coeff(n), n)


# _fsum_with_stop draws only a head of its terms once a bound proves that the
# rest is at most _REST_LIMIT, and only if that head has at most _HEAD_LIMIT
# terms (2^16 floats, about 2 MB); otherwise it streams every term.
_REST_LIMIT = 2.0**-64
_HEAD_LIMIT = 2**16


def _fsum_with_stop(
    terms: Iterator[float], count: int, rest_bound: Callable[[int], float], last: float
) -> float:
    """math.fsum(terms) + last, drawing only a head of the terms where that is provably the same double.

    ``terms`` yields ``count`` floats; ``rest_bound(h)`` must bound, in
    exact arithmetic and with a factor 2 to spare for rounding, the
    magnitude of the sum of the floats after the first h.  The head is the
    least h < count, h <= _HEAD_LIMIT, with R(h) <= _REST_LIMIT, found by
    bisection on the closed form (R decreases in h), where

        R(h) = rest_bound(h) + (count - h + 1) * 2^-1060.

    The second part covers underflow, which the factor 2 does not: a
    subnormal term can be off by up to 2^-1073 beyond its relative
    rounding, and a subnormal bound by up to 2^-1065 (the callers' bounds
    divide by at most 100 wherever they underflow at h <= _HEAD_LIMIT).
    So the exact sum T of all the terms lies in [H - R, H + R], with H the
    exact sum of the head.  math.fsum is correctly rounded and
    x -> fl(x + last) is monotone, so fl(fsum(T) + last) lies between
    lo = fl(fsum(head, -R) + last) and hi = fl(fsum(head, +R) + last).
    When lo == hi that is the value, and the rest is never drawn; otherwise
    the rest is drawn and summed with the head, which gives the same double
    as summing the whole stream.
    """

    def bound(h: int) -> float:
        return rest_bound(h) + (count - h + 1) * 2.0**-1060

    lower, h = 0, min(count - 1, _HEAD_LIMIT)
    if h < 1 or bound(h) > _REST_LIMIT:
        return math.fsum(terms) + last
    while h - lower > 1:  # invariant: bound(h) <= _REST_LIMIT
        mid = (lower + h) // 2
        if bound(mid) <= _REST_LIMIT:
            h = mid
        else:
            lower = mid
    head = list(islice(terms, h))
    r = bound(h)
    lo = math.fsum([*head, -r]) + last
    if lo == math.fsum([*head, r]) + last:
        return lo
    return math.fsum(chain(head, terms)) + last


class SNumeric(NamedTuple):
    value: float
    tail_bound: float


def s_numeric(n: int, K: int) -> SNumeric:
    """Truncated summation of S(n) over |k| <= K, with a rigorous tail bound.

    Terms for k and -k are paired to curb cancellation and the pairs are
    accumulated with math.fsum.  The omitted |k| > K mass is bounded by
    2 * sum_{k>K} (4k-3)^(-n) <= (4K-3)^(1-n) / (2(n-1)).

    The terms stream through C-level ``map`` iterators, with no list.  An
    int raised to a negative int is a float power, the same libm ``pow`` as
    ``(4k + 1.0) ** -n``, so every term is the double that expression gives.
    numpy's vectorised power is not used: it differs from libm in the last
    bit of some terms.

    The value is fsum(pairs) + 1.0 bit for bit, but for n >= 5 only the
    first few pairs are drawn (28 at n = 10, 11586 at n = 5), since the rest
    provably cannot change the double (``_fsum_with_stop``).  The bound on
    the pairs after the first h is R(h) = (4h - 1)^(1-n) / (n - 1):
    (4k + 1)^(-n) <= (4k - 1)^(-n) <= the integral of (4x - 1)^(-n) over
    [k - 1, k], so both halves of the pairs k > h sum to at most
    (4h - 1)^(1-n) / (4(n - 1)) each, half of R(h).  The other half covers
    each pow's error (under 1 ulp), the rounding of each pair and of R
    itself, all relative errors near 2^-52.  n = 2, 3 and 4 need more than
    _HEAD_LIMIT pairs for R to reach 2^-64 and stream every pair, so the
    work there still grows with K; the stored head depends on n alone.
    """
    if n < 2:
        raise ValueError("direct summation requires n >= 2")
    if K < 1:
        raise ValueError("K must be positive")
    pairs = map(
        add,
        map(pow, range(5, 4 * K + 2, 4), repeat(-n)),  # 4k + 1 for k = 1..K
        map(pow, range(-3, -4 * K, -4), repeat(-n)),  # 1 - 4k
    )
    value = _fsum_with_stop(pairs, K, lambda h: (4 * h - 1.0) ** (1 - n) / (n - 1), 1.0)
    tail_bound = (4 * K - 3.0) ** (1 - n) / (2 * (n - 1))
    return SNumeric(value, tail_bound)


class GEval(NamedTuple):
    closed: float
    series: float


def g_eval(z: float, terms: int) -> GEval:
    """The generating function sum of S(n) z^n, closed form versus series.

    closed is (pi z / 4)(sec(pi z / 2) + tan(pi z / 2)).  series sums the
    first ``terms`` power-series terms and completes the leading geometric
    row (the k = 0 contribution (4*0+1)^(-n) = 1 of every S(n)) in closed
    form, so its truncation error decays like (|z|/3)^terms rather than
    |z|^terms.

    series is fsum(S(k) z^k for k <= terms) + z^(terms+1)/(1 - z) bit for
    bit, but it draws only the terms that can change that double
    (``_fsum_with_stop``), 66 at |z| = 1/2, so no S(k) beyond them is
    computed.  |S(k)| <= S(2) = pi^2/8 for every k >= 1, so the terms after
    the first h sum to at most S(2) |z|^(h+1) / (1 - |z|); the bound takes
    twice that, which covers the rounding of each float S(k), of z^k and of
    their product: the float S(k) carries about k times math.pi's 2^-54
    relative error, below 1/2 for any terms below 2^53.  As |z| -> 1 the head passes ``terms`` or _HEAD_LIMIT, and every term is
    computed, as before.
    """
    if not -1.0 < z < 1.0:
        raise ValueError("the series has radius 1 (pole at z = 1); need |z| < 1")
    if terms < 1:
        raise ValueError("terms must be positive")
    closed = (math.pi * z / 4) * (1 / math.cos(math.pi * z / 2) + math.tan(math.pi * z / 2))
    series = _fsum_with_stop(
        (s_value(k).to_float() * z**k for k in range(1, terms + 1)),
        terms,
        lambda h: math.pi**2 / 4 * abs(z) ** (h + 1) / (1 - abs(z)),
        z ** (terms + 1) / (1 - z),
    )
    return GEval(closed, series)
