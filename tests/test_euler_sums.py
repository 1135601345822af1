import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from zigzagsums import euler_sums
from zigzagsums.euler_sums import (
    PiMultiple,
    g_eval,
    l4_coeff,
    s_coeff,
    s_coeff_via_bernoulli,
    s_coeff_via_euler,
    s_numeric,
    s_value,
    zeta_coeff,
)

S_TABLE = {
    1: Fraction(1, 4),
    2: Fraction(1, 8),
    3: Fraction(1, 32),
    4: Fraction(1, 96),
    5: Fraction(5, 1536),
    6: Fraction(1, 960),
    7: Fraction(61, 184320),
    8: Fraction(17, 161280),
    9: Fraction(277, 8257536),
    10: Fraction(31, 2903040),
}

ZETA_TABLE = {2: Fraction(1, 6), 4: Fraction(1, 90), 6: Fraction(1, 945),
              8: Fraction(1, 9450), 10: Fraction(1, 93555)}


class TestSCoeff:
    @pytest.mark.parametrize("n,expected", sorted(S_TABLE.items()))
    def test_table(self, n, expected):
        assert s_coeff(n) == expected

    def test_divergent_index(self):
        with pytest.raises(ValueError):
            s_coeff(0)

    def test_positive_and_denominator_bound(self):
        for n in range(1, 41):
            value = s_coeff(n)
            assert value > 0
            assert (2 ** (n + 1) * math.factorial(n - 1)) % value.denominator == 0


class TestConversionRoutes:
    def test_bernoulli_examples(self):
        # (2^2 - 1) * B_2 / (2 * 2!) = 3 * (1/6) / 4 = 1/8
        assert s_coeff_via_bernoulli(2) == Fraction(1, 8)
        # (2^4 - 1) * |B_4| / (2 * 4!) = 15 * (1/30) / 48 = 1/96
        assert s_coeff_via_bernoulli(4) == Fraction(1, 96)
        assert s_coeff_via_bernoulli(10) == Fraction(31, 2903040)

    def test_euler_examples(self):
        assert s_coeff_via_euler(1) == Fraction(1, 4)  # E_0 = 1, 1/(2^2 0!)
        assert s_coeff_via_euler(3) == Fraction(1, 32)  # |E_2| = 1, 1/(2^4 2!)
        assert s_coeff_via_euler(7) == Fraction(61, 184320)

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            s_coeff_via_bernoulli(3)
        with pytest.raises(ValueError):
            s_coeff_via_euler(2)

    def test_routes_agree_to_60(self):
        for n in range(1, 61):
            other = s_coeff_via_bernoulli(n) if n % 2 == 0 else s_coeff_via_euler(n)
            assert s_coeff(n) == other, n


class TestZetaAndL:
    @pytest.mark.parametrize("n,expected", sorted(ZETA_TABLE.items()))
    def test_zeta_table(self, n, expected):
        assert zeta_coeff(n) == expected

    def test_l4(self):
        assert l4_coeff(1) == Fraction(1, 4)
        assert l4_coeff(7) == s_coeff(7)

    def test_l4_euler_route_matches_zigzag_route(self):
        # l4_coeff reads the Euler numbers, s_coeff the zigzag counts
        for n in range(1, 200, 2):
            assert l4_coeff(n) == s_coeff(n), n

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            zeta_coeff(3)
        with pytest.raises(ValueError):
            l4_coeff(2)


class TestSNumeric:
    def test_n2_large_truncation(self):
        value, tail = s_numeric(2, 10**5)
        assert abs(value - math.pi**2 / 8) <= tail + 1e-9
        assert f"{value:.4f}" == "1.2337"

    def test_n3_modest_truncation(self):
        value, tail = s_numeric(3, 10**3)
        assert abs(value - math.pi**3 / 32) <= tail + 1e-12

    def test_n10_tiny_truncation(self):
        value, tail = s_numeric(10, 10)
        exact = 31 * math.pi**10 / 2903040
        assert abs(value - exact) <= tail + 1e-12
        assert abs(value - exact) < 1e-12

    def test_tail_bound_is_anticonservative_never(self):
        # the bound must dominate the actually omitted mass
        for n in range(2, 8):
            small = s_numeric(n, 50)
            large = s_numeric(n, 10**5)
            omitted = abs(large.value - small.value)
            assert omitted <= small.tail_bound

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            s_numeric(1, 100)
        with pytest.raises(ValueError):
            s_numeric(3, 0)

    @staticmethod
    def _per_term_sum(n, K):
        """Oracle: the paired terms as a literal per-term list, then math.fsum."""
        pairs = [(4 * k + 1.0) ** -n + (1.0 - 4 * k) ** -n for k in range(1, K + 1)]
        return math.fsum(pairs) + 1.0

    @pytest.mark.parametrize("K", [1, 2, 3, 10, 31, 32, 33, 1000, 4097, 10**5])
    @pytest.mark.parametrize("n", range(2, 41))
    def test_bit_identical_to_per_term_sum(self, n, K):
        assert s_numeric(n, K).value.hex() == self._per_term_sum(n, K).hex()

    @pytest.mark.parametrize("n", [50, 300, 1000, 2000])
    def test_bit_identical_where_terms_underflow(self, n):
        assert s_numeric(n, 1000).value.hex() == self._per_term_sum(n, 1000).hex()

    @staticmethod
    def _count_pairs(monkeypatch):
        """Count the pairs s_numeric draws: one float add per pair."""
        calls = [0]

        def counting_add(x, y):
            calls[0] += 1
            return x + y

        monkeypatch.setattr(euler_sums, "add", counting_add)
        return calls

    def test_forced_fallback_keeps_bits(self, monkeypatch):
        # A rest interval up to 1 wide never pins the double, so every sum with
        # a head takes the fallback: the head chained with the rest of the stream.
        monkeypatch.setattr(euler_sums, "_REST_LIMIT", 1.0)
        fallbacks = [0]

        def counting_chain(*iterables):
            fallbacks[0] += 1
            return itertools.chain(*iterables)

        monkeypatch.setattr(euler_sums, "chain", counting_chain)
        cases = [(n, K) for n in range(2, 13) for K in (33, 1000, 10**5)]
        for n, K in cases:
            assert s_numeric(n, K).value.hex() == self._per_term_sum(n, K).hex()
        assert fallbacks[0] == len(cases)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_small_n_draws_short_head(self, monkeypatch, n):
        # the two-sided rest pins the double after under 4% of the pairs
        calls = self._count_pairs(monkeypatch)
        value = s_numeric(n, 10**5).value
        assert 0 < calls[0] < 4000
        assert value.hex() == self._per_term_sum(n, 10**5).hex()

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 20])
    def test_rest_interval_holds_float_tail(self, monkeypatch, n):
        # every rest(h) holds the exact sum of the pair floats after the first h
        rests = []
        real = euler_sums._fsum_with_stop

        def spy(terms, count, rest, finish):
            rests.append(rest)
            return real(terms, count, rest, finish)

        monkeypatch.setattr(euler_sums, "_fsum_with_stop", spy)
        K = 60
        s_numeric(n, K)
        pairs = [(4 * k + 1.0) ** -n + (1.0 - 4 * k) ** -n for k in range(1, K + 1)]
        for h in range(1, K):
            lo, hi = rests[0](h)
            assert Fraction(lo) <= sum(map(Fraction, pairs[h:])) <= Fraction(hi), h

    def test_huge_truncation_returns_fast(self):
        start = time.perf_counter()
        value = s_numeric(8, 10**15).value
        assert time.perf_counter() - start < 0.5
        assert value.hex() == s_numeric(8, 10**5).value.hex()

    # K = 10^17 puts 4K + 1 past 2^53, where 4k +- 1 are rounded floats
    @pytest.mark.parametrize("K", [10**15, 10**17])
    def test_huge_truncation_of_slow_sum_returns_fast(self, K):
        # streaming 10^15 or more pairs of S(2) would take days
        start = time.perf_counter()
        value, tail = s_numeric(2, K)
        assert time.perf_counter() - start < 0.5
        # the rest of the gap is the rounding of the terms and of pi^2/8
        assert abs(value - math.pi**2 / 8) <= tail + 2 * math.ulp(value)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_early_exit_head_depends_on_n_alone(self, monkeypatch, n):
        # n = 2 is left out: its rounding pad scales with the rest up to K,
        # so its head grows slightly with K (3935 pairs at 10^5, 4096 at 10^15)
        calls = self._count_pairs(monkeypatch)
        drawn = []
        for K in (10**5, 10**6, 10**15):
            calls[0] = 0
            s_numeric(n, K)
            drawn.append(calls[0])
        assert 0 < drawn[0] < 10**5
        assert drawn[0] == drawn[1] == drawn[2] <= euler_sums._HEAD_LIMIT

    def test_head_never_passes_limit(self, monkeypatch):
        # n = 2 needs a head of about 4000 pairs: above a limit of 1000 it
        # streams every pair instead of storing a longer head.
        monkeypatch.setattr(euler_sums, "_HEAD_LIMIT", 1000)
        calls = self._count_pairs(monkeypatch)
        assert s_numeric(2, 10**5).value.hex() == self._per_term_sum(2, 10**5).hex()
        assert calls[0] == 10**5
        calls[0] = 0
        assert s_numeric(4, 10**5).value.hex() == self._per_term_sum(4, 10**5).hex()
        assert calls[0] <= 1000


class TestPowerSumInterval:
    """_power_sum_interval against the exact Fraction sum."""

    @staticmethod
    def _assert_holds(m, c, a, b):
        lo, hi = euler_sums._power_sum_interval(m, c, a, b)
        exact = sum(Fraction(1, (4 * k + c) ** m) for k in range(a, b + 1))
        assert Fraction(lo) <= exact <= Fraction(hi), (m, c, a, b)

    @pytest.mark.parametrize("m", [*range(2, 13), 20, 40])
    def test_holds_exact_sum(self, m):
        for c in (1, -1):
            for a in (1, 2, 7, 1000):
                for b in (a, a + 1, a + 300):
                    self._assert_holds(m, c, a, b)

    @pytest.mark.parametrize(
        "m,a,b", [(40, 10**8, 10**8), (40, 10**8, 10**8 + 1), (300, 1, 4), (450, 1, 2), (2000, 1, 2)]
    )
    def test_holds_where_powers_underflow(self, m, a, b):
        # (4a+-1)^-40 is zero at a = 10^8; 5^-300 is normal and 17^-300 zero;
        # 5^-450 is subnormal; every power of 3 or more to the 2000 is zero
        for c in (1, -1):
            self._assert_holds(m, c, a, b)

    def test_is_tight_for_a_long_sum(self):
        # far from underflow the interval is a few ulps of the rest wide
        lo, hi = euler_sums._power_sum_interval(2, 1, 1000, 10**9)
        assert 0 < hi - lo < 2**-40 * hi

    def test_empty_sum(self):
        assert euler_sums._power_sum_interval(5, 1, 11, 10) == (0.0, 0.0)


class TestGEval:
    @staticmethod
    def _literal_series(z, terms):
        """Oracle: every power-series term, math.fsum, then the closed geometric rest."""
        partial = math.fsum(s_value(k).to_float() * z**k for k in range(1, terms + 1))
        return partial + z ** (terms + 1) / (1 - z)

    @pytest.mark.parametrize(
        "z,terms",
        [(z, terms) for z in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99) for terms in (1, 2, 80, 300)]
        + [(0.5, 1424), (-0.9, 1424)]
        + [(z, 1424) for z in (0.0, -0.0, 1e-300, -1e-310)],
    )
    def test_series_bit_identical_to_literal(self, z, terms):
        assert g_eval(z, terms).series.hex() == self._literal_series(z, terms).hex()

    def test_series_stops_early(self, monkeypatch):
        calls = [0]

        def counting_s_value(n):
            calls[0] += 1
            return s_value(n)

        monkeypatch.setattr(euler_sums, "s_value", counting_s_value)
        g_eval(0.5, 1424)
        assert calls[0] < 100

    @pytest.mark.parametrize("z", [0.0, -0.0, 1e-300, -1e-310])
    def test_underflowed_terms_skip_s_value(self, monkeypatch, z):
        # the stop's bracket is wider than these sums, so every term is drawn;
        # from z^2 on the powers are signed zeros, and so are the terms
        calls = [0]

        def counting_s_value(n):
            calls[0] += 1
            return s_value(n)

        monkeypatch.setattr(euler_sums, "s_value", counting_s_value)
        g_eval(z, 1424)
        assert calls[0] == (1 if z else 0)

    def test_at_zero(self):
        assert g_eval(0.0, 10) == (0.0, 0.0)

    def test_closed_form_at_half(self):
        # (pi/8)(sec(pi/4) + tan(pi/4)) = (pi/8)(sqrt(2) + 1)
        closed, _ = g_eval(0.5, 10)
        assert closed == pytest.approx(math.pi / 8 * (math.sqrt(2) + 1), abs=1e-14)
        assert f"{closed:.5f}".startswith("0.94806")

    def test_alternating_tail(self):
        closed, series = g_eval(-0.5, 60)
        assert abs(closed - series) <= 1e-12

    def test_terms_past_float_range_of_pi_power(self):
        closed, series = g_eval(0.5, 700)
        assert abs(closed - series) <= 1e-12

    def test_pole_rejected(self):
        for z in (1.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                g_eval(z, 10)


class TestPiMultiple:
    def test_zero_normalization(self):
        assert PiMultiple(Fraction(0), 7) == PiMultiple(Fraction(0), 0)

    def test_terms(self):
        assert PiMultiple(Fraction(1, 24), 3).terms == ((3, Fraction(1, 24)),)
        assert PiMultiple(Fraction(-5, 2)).terms == ((0, Fraction(-5, 2)),)
        assert PiMultiple(Fraction(0), 7).terms == ()

    def test_text(self):
        assert s_value(4).text() == "1/96 · pi^4"
        assert s_value(1).text() == "1/4 · pi"
        assert PiMultiple(Fraction(5, 24)).text() == "5/24"

    def test_text_of_zero_and_negative_coefficients(self):
        assert PiMultiple(Fraction(0), 3).text() == "0"
        assert PiMultiple(Fraction(-1, 3), 2).text() == "-1/3 · pi^2"
        assert PiMultiple(Fraction(-7, 2), 1).text() == "-7/2 · pi"

    def test_to_float(self):
        assert s_value(2).to_float() == pytest.approx(math.pi**2 / 8, abs=1e-15)
        assert f"{s_value(2).to_float():.10f}".startswith("1.2337005501")

    def test_to_float_zero(self):
        assert PiMultiple(Fraction(0)).to_float() == 0.0
        assert PiMultiple(Fraction(0), 5).to_float() == 0.0

    def test_to_float_quarter_pi(self):
        assert PiMultiple(Fraction(1, 4), 1).to_float() == pytest.approx(math.pi / 4, abs=1e-15)

    def test_to_float_matches_product_for_random_values(self):
        rng = random.Random(7)
        for _ in range(200):
            coeff = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            power = rng.randint(0, 12)
            assert PiMultiple(coeff, power).to_float() == float(coeff) * math.pi**power

    def test_to_float_is_plain_product_while_factors_are_normal(self):
        for n in range(1, 620):
            coeff = float(s_coeff(n))
            if coeff >= sys.float_info.min:
                assert s_value(n).to_float() == coeff * math.pi**n, n

    def test_to_float_is_plain_product_to_the_largest_finite_pi_power(self):
        # math.pi**620 is finite and math.pi**621 overflows
        rng = random.Random(11)
        for power in range(600, 621):
            coeff = Fraction(rng.randint(2**52, 2**53), 2**53)
            assert PiMultiple(coeff, power).to_float() == float(coeff) * math.pi**power, power

    def test_to_float_beyond_float_range_raises(self):
        with pytest.raises(OverflowError):
            PiMultiple(10**305, 10).to_float()

    def test_to_float_large_n(self):
        # float(coeff) goes subnormal from n = 619 and pi^n overflows from n = 621
        for n in range(600, 2001):
            numeric = s_numeric(n, 1000)
            assert abs(s_value(n).to_float() - numeric.value) <= numeric.tail_bound + 1e-12, n
