"""The lattice sums S(n) over 4k+1 and their zeta / beta relatives.

S(n) is the two-sided sum of (4k+1)^(-n) over all integers k.  For every
n >= 1 it is an exact rational multiple of pi^n, and this module computes
that rational by these routes, plus the direct float sums of route 5:

  s_coeff               A(n-1) / (2^(n+1) (n-1)!), from the zigzag counts
  s_coeff_via_bernoulli (-1)^(m-1) (2^2m - 1) B_2m / (2 (2m)!)   for n = 2m
  s_coeff_via_euler     (-1)^m E_2m / (2^(2m+2) (2m)!)           for n = 2m+1
  s_numeric             truncated summation with a rigorous tail bound
  parseval_sum          (pi/4) sum of fourier_coeff_const(k)^2 / (4k+1)^n
  g_eval                the generating function, series versus closed form

The Bernoulli and Euler routes are independent of the zigzag counts:
bernoulli and euler_number round Euler products for zeta(n) and beta(n+1)
(see special_numbers), so their agreement with s_coeff is a second
computation.  For odd n, S(n) is L(n, chi_4) = beta(n) itself, so
s_coeff_via_euler is also the L-value route; its check at n = 1 reads
E_0 = 1 and so tests the conversion constant.

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

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The value as a sum of pi powers: ((power, coeff),), or () for zero."""
        return ((self.power, self.coeff),) if self.coeff else ()

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
    """pi^(-n) S(n) for odd n, from the Euler number E_(n-1).

    For odd n, S(n) is the Dirichlet beta value beta(n) = L(n, chi_4), so
    this is also pi^(-n) L(n, chi_4) = |E_(n-1)| / (2^(n+1) (n-1)!).
    """
    if n < 1 or n % 2 != 1:
        raise ValueError("the Euler route requires odd n >= 1")
    m = (n - 1) // 2
    return Fraction((-1) ** m * euler_number(n - 1), 2 ** (n + 1) * math.factorial(n - 1))


def zeta_coeff(n: int) -> Fraction:
    """The exact rational pi^(-n) zeta(n) for even n: s_coeff(n) / (1 - 2^-n)."""
    if n < 2 or n % 2 != 0:
        raise ValueError("zeta(n) is a rational multiple of pi^n only for even n >= 2")
    return s_coeff(n) * 2**n / (2**n - 1)


def s_value(n: int) -> PiMultiple:
    """S(n) as an exact pi multiple."""
    return PiMultiple(s_coeff(n), n)


# _fsum_with_stop draws only a head of its terms once the interval that holds
# the rest is at most _REST_LIMIT wide (about 2^-11 of an ulp of 1), and only
# if that head has at most _HEAD_LIMIT terms (2^16 floats, about 2 MB);
# otherwise it streams every term.
_REST_LIMIT = 2.0**-63
_HEAD_LIMIT = 2**16

# The most terms s_numeric, parseval_sum and g_eval sum.  _fsum_with_stop's
# underflow pad grows with the terms after the head: at 2^994 terms twice
# the pad is a quarter of _REST_LIMIT, which leaves the rest's own bracket
# room to stop the sum, and toward 2^996 it fills all of _REST_LIMIT, so no
# head stops it and every term would be streamed.  It also keeps 4K + 1
# inside the float range.
_TERMS_LIMIT = 2**994


def _fsum_with_stop(
    terms: Iterator[float],
    count: int,
    rest: Callable[[int], tuple[float, float]],
    finish: Callable[[float], float],
) -> float:
    """finish(math.fsum(terms)), drawing only a head of the terms where that is provably the same double.

    ``terms`` yields ``count`` floats.  For 1 <= h < count, ``rest(h)``
    returns floats (lo, hi) with lo <= T - H <= hi in exact arithmetic,
    where T and H are the exact sums of all the floats and of the first h.
    ``finish`` is monotone: s <= t gives finish(s) <= finish(t).  The head
    is the least h < count, h <= _HEAD_LIMIT, whose padded interval

        [lo - P(h), hi + P(h)],   P(h) = (count - h + 1) * 2^-1060,

    is at most _REST_LIMIT wide, found by doubling h from 1 and then
    bisecting (the width decreases in h), so a short head costs few calls
    of ``rest``.

    P covers underflow, which the callers' relative error bounds do not.  A
    streamed term of s_numeric, parseval_sum or g_eval that is subnormal,
    or comes from a subnormal power, is off by at most 2^-1072 beyond its
    relative error: a pow within 1 ulp is off by up to 2^-1074 there, one
    more rounding by 2^-1075, and g_eval multiplies its power by a float
    S(k) below 2.  The extra 2^-1060 covers g_eval's bound, which divides
    by 1 - |z| > 1/100 wherever it underflows at h <= _HEAD_LIMIT.
    ``_power_sum_interval`` pads its own underflow.

    math.fsum is correctly rounded, so fl(finish(fsum(T))) lies between
    lo' = fl(finish(fsum(head, lo - P))) and
    hi' = fl(finish(fsum(head, hi + P))).  When lo' == hi' that is the
    value, and the rest is never drawn; otherwise the rest is drawn and
    summed with the head, which gives the same double as summing the whole
    stream.
    """

    def pad(h: int) -> float:
        return (count - h + 1) * 2.0**-1060

    def width(h: int) -> float:
        lo, hi = rest(h)
        return hi - lo + 2 * pad(h)

    top = min(count - 1, _HEAD_LIMIT)
    if top < 1:
        return finish(math.fsum(terms))
    lower, h = 0, 1
    while width(h) > _REST_LIMIT:
        if h == top:
            return finish(math.fsum(terms))
        lower, h = h, min(2 * h, top)
    while h - lower > 1:  # invariant: width(h) <= _REST_LIMIT
        mid = (lower + h) // 2
        if width(mid) <= _REST_LIMIT:
            h = mid
        else:
            lower = mid
    head = list(islice(terms, h))
    lo, hi = rest(h)
    low = finish(math.fsum([*head, lo, -pad(h)]))
    if low == finish(math.fsum([*head, hi, pad(h)])):
        return low
    return finish(math.fsum(chain(head, terms)))


def _outward(lo_parts: list[float], hi_parts: list[float]) -> tuple[float, float]:
    """Floats (lo, hi) with lo <= sum(lo_parts) and sum(hi_parts) <= hi in exact arithmetic.

    math.fsum rounds each exact sum correctly, so one float outward covers it.
    """
    return math.nextafter(math.fsum(lo_parts), -math.inf), math.nextafter(math.fsum(hi_parts), math.inf)


def _power_sum_interval(m: int, c: int, a: int, b: int) -> tuple[float, float]:
    """Floats (lo, hi) that hold sum_{k=a}^{b} (4k + c)^-m in exact arithmetic.

    For c = +-1, m >= 2 and a >= 1; an empty sum (a > b) is (0.0, 0.0).

    Euler-Maclaurin through the B_2 term, for f(t) = (4t + c)^-m and the
    ends x = 4a + c, y = 4b + c:

        sum = E - theta T  for some 0 <= theta <= 1,
        E = (x^(1-m) - y^(1-m)) / (4(m-1)) + (x^-m + y^-m) / 2
            + (m/3) (x^(-m-1) - y^(-m-1)),
        T = (4/45) m (m+1) (m+2) (x^(-m-3) - y^(-m-3)) >= 0.

    The pieces of E are the integral of f over [a, b], (f(a) + f(b))/2, and
    (B_2/2!) (f'(b) - f'(a)) with f'(t) = -4m (4t + c)^(-m-1).  The j-th
    derivative of f is (-4)^j m (m+1) ... (m+j-1) (4t + c)^(-m-j), and
    4t + c >= 3 on [a, b], so the 4th and 6th derivatives are both
    positive there.  Then the remainder is theta times the B_4 term,
    (B_4/4!) (f'''(b) - f'''(a)) = -T (Graham, Knuth and Patashnik,
    Concrete Mathematics, section 9.5), and the sum lies in [E - T, E].

    Rounding.  Each of the eight pieces (four per end) is a libm pow within
    1 ulp (2u, u = 2^-53) followed by at most five roundings of u, so it is
    within 7u of its exact value while its base is an exact float
    (z <= 2^53) and m < 2^51, so that 4(m-1), m, m+1 and m+2 are exact too.
    A base above 2^53 is itself rounded by up to u, which moves its j-th
    power (j <= m+3) by up to 1.01 j u more; (m + 8) 8u covers that.  The
    error is bounded relative to the summed magnitudes of the pieces, not
    of E: where b is near a the pieces cancel, and an error relative to the
    result would not cover them.  A subnormal power is off by up to 2^-1074
    absolute instead, which the products after it multiply by at most
    (m+2)^3 / 11, and each operation with a subnormal result adds at most
    2^-1075; the eight pieces stay within (m+2)^3 2^-1071 of that kind,
    and the pad takes (m+2)^3 2^-1066.  For m >= 2^51 every exact power is
    below 3^(-2^51), far under 2^-1074, so that pad covers it as well.
    Each end is one math.fsum of the pieces and the pad, one float outward.
    """
    if a > b:
        return 0.0, 0.0

    def pieces(z: int) -> tuple[float, float, float, float]:
        return (
            pow(z, 1 - m) / (4 * (m - 1)),
            pow(z, -m) / 2,
            pow(z, -m - 1) * m / 3,
            pow(z, -m - 3) * m * (m + 1) * (m + 2) * (4 / 45),
        )

    def rel(z: int) -> float:
        return 2.0**-50 if z <= 2**53 else (m + 8) * 2.0**-50

    x, y = 4 * a + c, 4 * b + c
    (ix, hx, dx, tx), (iy, hy, dy, ty) = pieces(x), pieces(y)
    err = (
        rel(x) * (ix + hx + dx + tx)
        + rel(y) * (iy + hy + dy + ty)
        + 2.0**-1066 * (m + 2.0) * (m + 2.0) * (m + 2.0)
    )
    e = [ix, -iy, hx, hy, dx, -dy]
    return _outward([*e, -tx, ty, -err], [*e, err])


def _lattice_rest(m: int, a_plus: int, a_minus: int, b: int, rel: float) -> tuple[float, float]:
    """An interval that holds every sum of floats t_k, one per term of

        sum_{k=a_plus}^{b} (4k+1)^-m + (-1)^m sum_{k=a_minus}^{b} (4k-1)^-m,

    with each t_k within rel times the magnitude of its exact term.

    The magnitudes sum to at most M, the sum of the two sides' upper ends,
    so the floats' sum is within rel M of the exact one.  Each caller's rel
    has a unit or more to spare for the rounding of rel M.
    """
    plus_lo, plus_hi = _power_sum_interval(m, 1, a_plus, b)
    minus_lo, minus_hi = _power_sum_interval(m, -1, a_minus, b)
    pad = (plus_hi + minus_hi) * rel
    if m % 2:
        minus_lo, minus_hi = -minus_hi, -minus_lo
    return _outward([plus_lo, minus_lo, -pad], [plus_hi, minus_hi, pad])


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

    The value is fsum(pairs) + 1.0 bit for bit, but only a head of the
    pairs is drawn, since the rest provably cannot change the double
    (``_fsum_with_stop``): at K = 10^5, 3935 pairs at n = 2, 537 at n = 3,
    198 at n = 4, 92 at n = 5 and 10 at n = 10.  The pairs after the first h
    are the terms of sum_{k>h} (4k+1)^-n + (-1)^n sum_{k>h} (4k-1)^-n up to
    k = K, and ``_lattice_rest`` brackets their sum from both sides by
    Euler-Maclaurin.  Each pair float is within 3.01u (u = 2^-53) of the
    magnitudes of its two exact terms: each pow within 1 ulp (2u), the add
    one rounding of u.  The bracket takes 4u, and where 4K + 1 passes 2^53,
    so that 4k +- 1 is a rounded float, (n + 3) 4u, which also covers
    that rounding raised to the n-th power.  The head at n >= 3 depends on
    n alone; at n = 2 the rounding pad, relative to the rest up to K, grows
    with K, and so does the head (4096 pairs at K = 10^15).  K above 2^994
    (``_TERMS_LIMIT``) is refused with a ValueError before any term.
    """
    if n < 2:
        raise ValueError("direct summation requires n >= 2")
    if K < 1:
        raise ValueError("K must be positive")
    if K > _TERMS_LIMIT:
        raise ValueError("K must be at most 2^994")
    pairs = map(
        add,
        map(pow, range(5, 4 * K + 2, 4), repeat(-n)),  # 4k + 1 for k = 1..K
        map(pow, range(-3, -4 * K, -4), repeat(-n)),  # 1 - 4k
    )
    rel = 2.0**-51 if 4 * K + 1 <= 2**53 else (n + 3) * 2.0**-51
    value = _fsum_with_stop(pairs, K, lambda h: _lattice_rest(n, h + 1, h + 1, K, rel), lambda s: s + 1.0)
    tail_bound = (4 * K - 3.0) ** (1 - n) / (2 * (n - 1))
    return SNumeric(value, tail_bound)


def fourier_coeff_const(k: int) -> float:
    """Coefficient of cos((4k+1)u) in the orthogonal expansion of 1: (4/pi)/(4k+1)."""
    return (4.0 / math.pi) / (4 * k + 1)


def parseval_sum(n: int, K: int) -> float:
    """(pi/4) sum over |k| <= K of c_k^2 / (4k+1)^n for the constant function.

    Converges to (4/pi) S(n+2), the inner product of 1 with its (n+1)-th
    operator iterate, as K grows.

    Each term is ``pow(q / (4k+1), 2) / pow(4k+1, float(n))`` with
    q = fl(4/pi): c_k divided as in ``fourier_coeff_const`` and squared by
    Python's float ``pow``, and (4k+1)^n the same libm ``pow`` as
    ``float(4k+1) ** n``, so every term is the double of the per-term
    expression.  numpy's vectorised power is not used: it differs from libm
    in the last bit of some terms.  Where the float (4k+1)^n passes the
    float range (from k = 1 at n = 442, from k = 3 at n = 300), ``pow``
    raises ``OverflowError`` and the term is instead the correctly rounded
    exact term q^2 (4k+1)^-(n+2), below 2^-1022: a subnormal or 0.0.

    The terms stream from the centre out, k = 0, 1, -1, 2, -2, ..., and the
    value is (pi/4) fsum(terms) bit for bit: math.fsum is correctly rounded
    in any order.  Only a head is drawn, since the rest provably cannot
    change the double (``_fsum_with_stop``): 19208 of the 200001 terms at
    n = 0, K = 10^5 and 1164 of the 20001 at n = 1, K = 10^4.  After h
    terms the positive side resumes at k = floor(h/2) + 1 and the negative
    side at k = -(floor((h-1)/2) + 1).  The term of k is q^2 (4k+1)^-(n+2)
    in exact arithmetic, so the rest is q^2 times
    ``_lattice_rest(n + 2, ...)``.  Each term float is within 7.02u
    (u = 2^-53) of its exact value: the division by 4k+1 one rounding,
    the square a pow within 1 ulp (2u) of a value already off by 2u, the
    power (4k+1)^n a pow within 1 ulp, and the division by it one more
    rounding.  The bracket takes 8u; where 4K + 1 passes 2^53, so that
    4k + 1 is a rounded float, it takes (n + 2) 8u, which also covers that
    rounding in the square and in the n-th power.  The product by q^2 is
    evaluated as (lo q) q, within 2.01u, and stepped out by 4u.  A term
    taken as the rounded exact term is subnormal or 0.0, within 2^-1075 of
    its exact value, which the underflow pad of ``_fsum_with_stop`` covers.
    K of 2^993 or more, 2K + 1 > 2^994 terms (``_TERMS_LIMIT``), is refused
    with a ValueError before any term.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if K < 0:
        raise ValueError("K must be nonnegative")
    if 2 * K + 1 > _TERMS_LIMIT:
        raise ValueError("K must be below 2^993")
    q = 4.0 / math.pi
    q_num, q_den = q.as_integer_ratio()

    def term(base: int) -> float:
        try:
            return pow(q / base, 2) / pow(base, float(n))
        except OverflowError:
            return q_num * q_num / (q_den * q_den * base ** (n + 2))

    # 4k + 1 for k = 0, 1, -1, 2, -2, ..., K, -K
    bases = chain((1,), chain.from_iterable(zip(range(5, 4 * K + 2, 4), range(-3, -4 * K, -4))))
    rel = 2.0**-50 if 4 * K + 1 <= 2**53 else (n + 2) * 2.0**-50

    def rest(h: int) -> tuple[float, float]:
        lo, hi = _lattice_rest(n + 2, h // 2 + 1, (h - 1) // 2 + 1, K, rel)
        lo, hi = lo * q * q, hi * q * q
        return _outward([lo, -abs(lo) * 2.0**-51], [hi, abs(hi) * 2.0**-51])

    return _fsum_with_stop(map(term, bases), 2 * K + 1, rest, lambda s: (math.pi / 4) * s)


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
    relative error, below 1/2 for k below 2^53, and math.pi < pi only
    lowers S(k) past that.  Near |z| = 1 no head stops the sum, and each
    term up to the underflow of z^k computes an exact S(k) (7.45 million
    at z = 0.9999).  A term whose z^k underflows to +-0.0 is that zero, as
    the float S(k) is positive and finite, so its S(k) is not computed:
    none at z = 0, one at 1e-300, where the stop's bracket is wider than
    the sum and every term is drawn.  ``terms`` above 2^994
    (``_TERMS_LIMIT``) is refused with a ValueError before any term.
    """
    if not -1.0 < z < 1.0:
        raise ValueError("the series has radius 1 (pole at z = 1); need |z| < 1")
    if terms < 1:
        raise ValueError("terms must be positive")
    if terms > _TERMS_LIMIT:
        raise ValueError("terms must be at most 2^994")
    closed = (math.pi * z / 4) * (1 / math.cos(math.pi * z / 2) + math.tan(math.pi * z / 2))
    powers = (z**k for k in range(1, terms + 1))
    tail = z ** (terms + 1) / (1 - z)

    def rest(h: int) -> tuple[float, float]:
        bound = math.pi**2 / 4 * abs(z) ** (h + 1) / (1 - abs(z))
        return -bound, bound

    series = _fsum_with_stop(
        (s_value(k).to_float() * p if p else p for k, p in enumerate(powers, 1)),
        terms,
        rest,
        lambda s: s + tail,
    )
    return GEval(closed, series)
