import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zigzagsums import euler_sums, spectral_operator
import exact_oracle
from zigzagsums.euler_sums import PiMultiple, fourier_coeff_const, parseval_sum
from zigzagsums.exact_arith import VPiPoly
from zigzagsums.special_numbers import zigzag
from zigzagsums.spectral_operator import (
    GRID_LIMIT,
    T_POWER_LIMIT,
    eigenfunction_residual,
    exact_eigenvalue,
    grid_midpoints,
    inner_product_one,
    nystrom_matrix,
    nystrom_traces,
    sym_eigenvalues,
    t_power_one,
    trace_power_nystrom,
)


def _lapack_spectrum(N):
    """Oracle: all eigenvalues of the Nystrom matrix from LAPACK, ascending."""
    return np.linalg.eigvalsh(nystrom_matrix(N).entries)


def _padded_size(N):
    """N rounded up to a multiple of SQUARE_ALIGN."""
    return -(-N // spectral_operator.SQUARE_ALIGN) * spectral_operator.SQUARE_ALIGN


def _padded_kernel(N):
    """The N-cell kernel with zero rows and columns up to _padded_size(N)."""
    size = _padded_size(N)
    m = np.zeros((size, size))
    m[:N, :N] = nystrom_matrix(N).entries
    return m


def _trace_oracle(N, n):
    """Oracle: the trace as the sum of a freshly allocated elementwise product of the padded kernel."""
    m = _padded_kernel(N)
    a = n // 2
    ma = np.linalg.matrix_power(m, a)
    mb = ma if n - a == a else np.linalg.matrix_power(m, n - a)
    return float(np.sum(ma * mb))


def _parseval_term(n, k):
    """The per-term expression, or where (4k+1)^n overflows the exact term q^2 (4k+1)^-(n+2) rounded."""
    try:
        return fourier_coeff_const(k) ** 2 / float(4 * k + 1) ** n
    except OverflowError:
        return float(Fraction(4.0 / math.pi) ** 2 / Fraction(4 * k + 1) ** (n + 2))


def _parseval_oracle(n, K):
    """Oracle: the Parseval terms as a literal per-term list, then math.fsum."""
    return (math.pi / 4) * math.fsum([_parseval_term(n, k) for k in range(-K, K + 1)])


def _residual_oracle(k, N):
    """Oracle: the residual from the N-point midpoint sum itself, each row summed by math.fsum."""
    m = 4 * k + 1
    v = grid_midpoints(N)
    widths = (math.pi / 2 - v) / N
    offsets = np.arange(N) + 0.5
    sums = np.array([math.fsum(np.cos(m * (w * offsets))) for w in widths])
    return float(np.max(np.abs(sums * widths - np.cos(m * v) / m)))


# Unit roundoff, and the accuracy assumed of numpy's sin and cos: within
# TRIG_ULPS ulps of the exact value at their double argument.
U = 2.0**-53
TRIG_ULPS = 4


def _residual_rounding_bound(k, N):
    """A bound on |eigenfunction_residual - _residual_oracle| from the float error of both forms.

    Both evaluate, at each midpoint v, the same exact sum Q* = w S with
    S = sum_j cos((j + 1/2) m w) for the double width w = fl(s/N),
    s = fl(pi/2 - v), so that L = N w = s (1 + e), |e| <= u.  Below,
    u = 2^-53, T = TRIG_ULPS, and ulp(y) <= 2u|y|.

      oracle: each node fl(m fl(w t)) is within 2u|m|L of m w t (t <= N),
        and its cosine within that plus 2Tu; math.fsum adds u|S| <= uN and
        the product with w u|Q|, so |Q_o - Q*| <= L (2u|m|L + (2T + 2)u).
      closed form: Q* = w n / D with n = sin(m N w) and D = 2 sin(m w/2).
        fl(m s) is within 2u|m|s of m N w, so the computed numerator is
        within dn = 2u|m|s + 2Tu of n.  fl(m w)/2 is within u|m|w/2 of
        m w/2, so the computed D_c is within dD = u|m|w + 2Tu|D_c| of D.
        Then |w n_c/D_c - w n/D| <= w dn/|D_c| + w dD/(|D_c| (|D_c| - dD)),
        as |n| <= 1, and the product and the quotient add 2u|Q_c|.

    The residuals subtract the same doubles c = cos(mv)/m, so they differ
    by at most the largest sum of the two errors over v, plus u |Q - c| <=
    u (L + 1) on each side for the rounding of the subtraction.  The factor
    1.01 covers the dropped terms of order u^2.  Raises unless dD < |D_c|
    at every v, where the bound would be void.
    """
    m = 4 * k + 1
    v = grid_midpoints(N)
    span = math.pi / 2 - v
    w = span / N
    L = N * w * (1 + U)
    d_c = 2 * np.sin(m * w / 2)
    q_c = w * np.sin(m * span) / d_c
    d_c = np.abs(d_c)
    dn = 2 * U * abs(m) * span + 2 * TRIG_ULPS * U
    dd = U * abs(m) * w + 2 * TRIG_ULPS * U * d_c
    assert np.all(dd < d_c)
    oracle = L * (2 * U * abs(m) * L + (2 * TRIG_ULPS + 2) * U)
    closed = w * dn / d_c + w * dd / (d_c * (d_c - dd)) + 2 * U * np.abs(q_c)
    return 1.01 * float(np.max(oracle + closed + 2 * U * (L + 1)))


class TestHomogeneousIterates:
    """Against T^n 1 by n symbolic applications of the operator to Fraction polynomials in (pi, v)."""

    @pytest.mark.parametrize("n", range(21))
    def test_t_power_one_matches_vpipoly_iteration(self, n):
        assert exact_oracle.from_vpipoly(t_power_one(n)) == exact_oracle.iterate(n)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_inner_product_matches_vpipoly_iteration(self, n):
        expected = exact_oracle.integral_to_half_pi(exact_oracle.iterate(n - 1))
        assert inner_product_one(n).terms == expected


class TestExactOperator:
    def test_applied_to_one(self):
        # pi/2 - v
        value = VPiPoly.one().integral_to_reflection()
        assert value == VPiPoly(1, (1, -1))
        assert exact_oracle.from_vpipoly(value) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1)}

    def test_applied_twice(self):
        # pi^2/8 - v^2/2
        value = VPiPoly.one().integral_to_reflection().integral_to_reflection()
        assert value == VPiPoly(2, (1, 0, -1), 2)
        assert exact_oracle.from_vpipoly(value) == {(2, 0): Fraction(1, 8), (0, 2): Fraction(-1, 2)}

    def test_applied_to_zero(self):
        assert VPiPoly(0, ()).integral_to_reflection() == VPiPoly(0, ())

    def test_iterates(self):
        assert t_power_one(0) == VPiPoly.one()
        assert t_power_one(1) == VPiPoly.one().integral_to_reflection()
        assert t_power_one(2) == t_power_one(1).integral_to_reflection()

    def test_iterate_degree_and_root(self):
        for n in range(1, 13):
            iterate = t_power_one(n)
            assert iterate.degree == len(iterate.numerators) - 1 == n
            # vanishes identically at v = pi/2
            assert exact_oracle.at_half_pi(exact_oracle.from_vpipoly(iterate)) == ()

    def test_iterate_cap(self):
        with pytest.raises(ValueError):
            t_power_one(T_POWER_LIMIT + 1)

    def test_inner_products(self):
        assert inner_product_one(1) == PiMultiple(Fraction(1, 2), 1)
        assert inner_product_one(2) == PiMultiple(Fraction(1, 8), 2)
        # integral of pi^2/8 - v^2/2 over (0, pi/2) = pi^3/16 - pi^3/48 = pi^3/24
        assert inner_product_one(3) == PiMultiple(Fraction(1, 24), 3)

    def test_inner_product_cap(self):
        assert inner_product_one(T_POWER_LIMIT + 1).power == T_POWER_LIMIT + 1
        with pytest.raises(ValueError, match="capped"):
            inner_product_one(T_POWER_LIMIT + 2)
        with pytest.raises(ValueError):
            inner_product_one(0)

    def test_pure_monomial_identity(self):
        # the operator route reproduces the zigzag counts exactly
        for n in range(1, 21):
            value = inner_product_one(n)
            expected = Fraction(zigzag(n), math.factorial(n) * 2**n)
            assert value.terms == ((n, expected),)


class TestFourier:
    def test_leading_coefficient(self):
        assert fourier_coeff_const(0) == pytest.approx(4 / math.pi, abs=1e-15)

    def test_negative_mode(self):
        assert fourier_coeff_const(-1) == pytest.approx(-(4 / math.pi) / 3, abs=1e-15)

    def test_against_quadrature(self):
        # oracle: 64-node Gauss-Legendre quadrature of (4/pi) cos(5u) on (0, pi/2)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        u = (nodes + 1) * math.pi / 4
        w = weights * math.pi / 4
        quad = float(np.sum(w * np.cos(5 * u))) * 4 / math.pi
        assert fourier_coeff_const(1) == pytest.approx(quad, abs=1e-12)

    def test_parseval_norm(self):
        assert parseval_sum(0, 10**5) == pytest.approx(math.pi / 2, abs=1e-4)

    def test_parseval_weighted(self):
        assert parseval_sum(1, 10**4) == pytest.approx(math.pi**2 / 8, abs=1e-6)

    def test_parseval_single_term(self):
        assert parseval_sum(5, 0) == pytest.approx(4 / math.pi, abs=1e-15)

    @pytest.mark.parametrize("K", [0, 1, 5, 10**4, 10**5])
    @pytest.mark.parametrize("n", range(6))
    def test_parseval_bit_identical_to_per_term_sum(self, n, K):
        assert parseval_sum(n, K).hex() == _parseval_oracle(n, K).hex()

    @staticmethod
    def _count_terms(monkeypatch):
        """Count the Parseval terms drawn: the items _fsum_with_stop takes from its terms."""
        calls = [0]
        real = euler_sums._fsum_with_stop

        def counted(terms, count, rest, finish):
            def drawn():
                for t in terms:
                    calls[0] += 1
                    yield t

            return real(drawn(), count, rest, finish)

        monkeypatch.setattr(euler_sums, "_fsum_with_stop", counted)
        return calls

    def test_parseval_bit_identical_around_head(self, monkeypatch):
        # For each n, K0 is the least K whose head is shorter than its 2K + 1
        # terms: at K0 - 1 every term is drawn, from K0 on only a head (for
        # n = 0, 6644 of the 6645 terms at K0 = 3322).  The heads drawn
        # there take both parities.
        calls = self._count_terms(monkeypatch)

        def drawn(n, K):
            calls[0] = 0
            parseval_sum(n, K)
            return calls[0]

        parities = set()
        for n in range(6):
            lower, K0 = 0, 10**4
            assert drawn(n, K0) < 2 * K0 + 1
            while K0 - lower > 1:
                mid = (lower + K0) // 2
                if drawn(n, mid) < 2 * mid + 1:
                    K0 = mid
                else:
                    lower = mid
            for K in (K0 - 1, K0, K0 + 1, K0 + 2):
                assert parseval_sum(n, K).hex() == _parseval_oracle(n, K).hex(), (n, K)
                parities.add(drawn(n, K) % 2)
        assert parities == {0, 1}

    def test_parseval_bit_identical_at_random_truncations(self):
        rng = random.Random(22)
        for n in range(6):
            for K in rng.sample(range(1, 5000), 4):
                assert parseval_sum(n, K).hex() == _parseval_oracle(n, K).hex(), (n, K)

    def test_parseval_forced_fallback_keeps_bits(self, monkeypatch):
        # A rest interval up to 1 wide never pins the double, so every sum with
        # a head takes the fallback: the head chained with the rest of the stream.
        # Each rest is widened by 2^-40 on both sides, as at n >= 300 it is far
        # narrower than an ulp of the sum.
        # The chain calls are counted inside _fsum_with_stop only, as
        # parseval_sum chains its bases with the same module's chain.
        monkeypatch.setattr(euler_sums, "_REST_LIMIT", 1.0)
        real = euler_sums._fsum_with_stop
        fallbacks = [0]

        def counting_chain(*iterables):
            fallbacks[0] += 1
            return itertools.chain(*iterables)

        def widened(terms, count, rest, finish):
            def wide(h):
                lo, hi = rest(h)
                return lo - 2.0**-40, hi + 2.0**-40

            with monkeypatch.context() as patch:
                patch.setattr(euler_sums, "chain", counting_chain)
                return real(terms, count, wide, finish)

        monkeypatch.setattr(euler_sums, "_fsum_with_stop", widened)
        # (4k+1)^300 overflows from k = 3 on, 5^442 at k = 1, where 3^442 does not
        cases = [(n, K) for n in range(6) for K in (5, 1000, 10**4)] + [(300, 1000), (442, 5)]
        for n, K in cases:
            assert parseval_sum(n, K).hex() == _parseval_oracle(n, K).hex(), (n, K)
        assert fallbacks[0] == len(cases)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 300])
    def test_parseval_rest_holds_float_tail(self, monkeypatch, n):
        # The terms stream from the centre out, t_0, t_1, t_-1, t_2, ...; every
        # rest(h), for odd and even h, holds the exact sum of the floats after h.
        # At n = 300 the terms from k = 3 on are subnormal or 0.0; the stream
        # is the oracle's terms bit for bit, those included.
        rests, streamed = [], []
        real = euler_sums._fsum_with_stop

        def spy(terms, count, rest, finish):
            rests.append(rest)
            streamed.extend(terms)
            return real(iter(streamed), count, rest, finish)

        monkeypatch.setattr(euler_sums, "_fsum_with_stop", spy)
        K = 1000 if n == 300 else 30
        parseval_sum(n, K)
        order = [0] + [k for j in range(1, K + 1) for k in (j, -j)]
        terms = [_parseval_term(n, k) for k in order]
        assert [t.hex() for t in streamed] == [t.hex() for t in terms]
        tail = Fraction(0)
        for h in range(2 * K, 0, -1):
            tail += Fraction(terms[h])
            lo, hi = rests[0](h)
            assert Fraction(lo) <= tail <= Fraction(hi), h

    # K = 10^17 puts 4K + 1 past 2^53, where 4k + 1 are rounded floats,
    # 2^70 puts the count of terms past a C ssize_t, and 2^993 - 1 is the
    # largest K accepted
    @pytest.mark.parametrize("K", [10**15, 10**17, 2**70, 2**993 - 1])
    def test_parseval_huge_truncation_returns_fast(self, K):
        # streaming 2 * 10^15 + 1 or more terms would take days
        start = time.perf_counter()
        value = parseval_sum(0, K)
        assert time.perf_counter() - start < 0.5
        # (pi/4) (4/pi)^2 sum_{|k| > K} (4k+1)^-2 <= 2 / (pi (4K - 1)); the
        # rest of the gap is the rounding of the terms, of 4/pi and of pi/2
        assert abs(value - math.pi / 2) <= 2 / (math.pi * (4 * K - 1)) + 4 * math.ulp(value)
        # (4k+1)^300 overflows from k = 3 on and (4k+1)^442 from k = 1; every
        # term past k = 10 is below 41^-300 times the k = 0 term, far below an ulp
        for n in (300, 442):
            start = time.perf_counter()
            value = parseval_sum(n, K)
            assert time.perf_counter() - start < 0.5
            assert value.hex() == parseval_sum(n, 10).hex(), n

    # past 2^994 terms the underflow pad alone leaves the early stop no room,
    # and every term would be streamed; 4K + 1 passes the float range at 2^1022
    @pytest.mark.parametrize("K", [2**993, 10**400], ids=["cap+1", "1e400"])
    def test_parseval_k_past_cap_refused_before_any_term(self, monkeypatch, K):
        def refuse(*args):
            raise AssertionError("a term was summed for a refused K")

        monkeypatch.setattr(euler_sums, "_fsum_with_stop", refuse)
        for n in (0, 1, 442):
            with pytest.raises(ValueError, match=r"^K must be below 2\^993$"):
                parseval_sum(n, K)

    def test_parseval_converges_to_inner_product(self):
        for n in (2, 3):
            ((power, coeff),) = inner_product_one(n).terms
            target = PiMultiple(coeff, power).to_float()
            coarse = abs(parseval_sum(n - 1, 10) - target)
            fine = abs(parseval_sum(n - 1, 1000) - target)
            assert fine < coarse / 100


class TestNystromMatrix:
    def test_two_by_two_derived_from_kernel(self):
        matrix = nystrom_matrix(2)
        w = math.pi / 4
        mids = grid_midpoints(2)
        assert mids == pytest.approx([math.pi / 8, 3 * math.pi / 8])
        # the kernel: indicator of the open triangle u + v < pi/2
        derived = [
            [w if mids[i] + mids[j] < math.pi / 2 else 0.0 for j in range(2)] for i in range(2)
        ]
        assert np.array_equal(matrix.entries, derived)
        # the off-diagonal midpoints sum exactly to pi/2, which the open
        # triangle excludes, so those entries are 0
        assert derived == [[w, 0.0], [0.0, 0.0]]

    def test_entries_binary(self):
        matrix = nystrom_matrix(64)
        w = math.pi / 2 / 64
        assert np.isin(matrix.entries, (0.0, w)).all()

    def test_symmetry(self):
        matrix = nystrom_matrix(129)
        assert np.array_equal(matrix.entries, matrix.entries.T)

    def test_row_sums_approximate_operator_on_one(self):
        N = 500
        matrix = nystrom_matrix(N)
        applied = np.array(matrix.entries) @ np.ones(N)
        expected = math.pi / 2 - grid_midpoints(N)
        assert np.max(np.abs(applied - expected)) < 2 * (math.pi / 2) / N

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            nystrom_matrix(1)

    def test_entries_assembled_on_first_access(self):
        matrix = nystrom_matrix(4096)
        assert "entries" not in vars(matrix)
        assert sym_eigenvalues(matrix, 2) == sym_eigenvalues(nystrom_matrix(4096), 2)
        assert "entries" not in vars(matrix)
        small = nystrom_matrix(5)
        entries = small.entries
        assert small.entries is entries
        assert np.array_equal(entries, np.where(np.add.outer(range(5), range(5)) < 4, math.pi / 2 / 5, 0.0))

    @pytest.mark.parametrize("N", [2, 5, 257, 3000])
    def test_entries_equal_outer_index_test(self, N):
        index = np.arange(N)
        outer = np.where(np.less.outer(index, N - 1 - index), math.pi / 2 / N, 0.0)
        assert np.array_equal(nystrom_matrix(N).entries, outer)

    @pytest.mark.parametrize("N", [3, 2500, 3000])
    def test_boundary_cells_excluded(self, N):
        # the float midpoint sums of some cells with i + j + 1 = N round below pi/2
        assert np.count_nonzero(nystrom_matrix(N).entries) == N * (N - 1) // 2

    def test_entries_read_only(self):
        entries = nystrom_matrix(5).entries
        with pytest.raises(ValueError):
            entries[0, 0] = 1.0

    def test_entries_in_linear_memory(self):
        # one dense 4096 x 4096 array takes 134 MB; the view holds 8191 doubles
        tracemalloc.start()
        try:
            assert np.count_nonzero(nystrom_matrix(4096).entries) == 4096 * 4095 // 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestEigenvalues:
    def test_top_three_near_exact(self):
        top = sym_eigenvalues(nystrom_matrix(400), 3)
        for rank, value in enumerate(top):
            exact = exact_eigenvalue(rank)
            assert abs(value - exact) < 0.01 * abs(exact)

    def test_exact_sequence(self):
        assert [spectral_operator._rank_mode(r) for r in range(5)] == [0, -1, 1, -2, 2]
        assert [exact_eigenvalue(r) for r in range(5)] == pytest.approx(
            [1, -1 / 3, 1 / 5, -1 / 7, 1 / 9]
        )

    def test_top_five_distinct_at_production_grid(self):
        top5 = sym_eigenvalues(nystrom_matrix(2000), 5)
        exact = [exact_eigenvalue(r) for r in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                gap = abs(top5[i] - top5[j])
                assert gap > 10 * 0.01 * max(abs(exact[i]), abs(exact[j]))

    def test_top_bound(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(nystrom_matrix(8), 9)
        with pytest.raises(ValueError):
            sym_eigenvalues(nystrom_matrix(8), 0)

    @pytest.mark.parametrize("N", [*range(2, 65), 301, 1000])
    def test_closed_form_matches_lapack(self, N):
        closed = sym_eigenvalues(nystrom_matrix(N), N)
        oracle = _lapack_spectrum(N)
        assert len(closed) == N and closed[-1] == 0.0
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(np.sort(closed) - oracle)) <= 1e-13 * scale

    def test_two_cells(self):
        # the matrix is diag(pi/4, 0)
        top = sym_eigenvalues(nystrom_matrix(2), 2)
        assert top == [pytest.approx(math.pi / 4, rel=1e-15), 0.0]

    def test_three_cells_golden_ratio(self):
        # the leading block is (pi/6) [[1, 1], [1, 0]]
        golden = (1 + math.sqrt(5)) / 2
        assert sym_eigenvalues(nystrom_matrix(3), 3) == [
            pytest.approx(golden * math.pi / 6, rel=1e-15),
            pytest.approx(-math.pi / 6 / golden, rel=1e-15),
            0.0,
        ]

    def test_leading_values_are_a_prefix_descending_in_magnitude(self):
        full = sym_eigenvalues(nystrom_matrix(500), 500)
        assert sym_eigenvalues(nystrom_matrix(500), 7) == full[:7]
        magnitudes = [abs(v) for v in full]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
        assert [v > 0 for v in full[:6]] == [True, False] * 3


def _closed_walks_oracle(t, n):
    """Oracle: tr(A_t^n) by a dense power of the 0/1 matrix [i + j <= t] in Python integers."""
    index = np.arange(t + 1)
    a = np.less_equal.outer(index, t - index).astype(int).astype(object)
    return int(np.trace(np.linalg.matrix_power(a, n)))


def _machin_pi(bits):
    """(lo, hi): Fractions that bracket pi, by Machin's formula, at about 2^-bits.

    pi = 16 arctan(1/5) - 4 arctan(1/239), each arctan summed in integers
    scaled by 2^bits.  Each term floor(floor(one / x^k) / k) is the floor
    of its exact value, within one unit, and the alternating tail after the
    last nonzero power is below one unit, so an arctan summed from m terms
    is within m + 1 units.
    """
    one = 1 << bits

    def arctan_inv(x):
        total, power, k, terms = 0, one // x, 1, 0
        while power:
            total += (power // k) if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
            terms += 1
        return total, terms + 1

    (a, ea), (b, eb) = arctan_inv(5), arctan_inv(239)
    pi, error = 16 * a - 4 * b, 16 * ea + 4 * eb
    return Fraction(pi - error, one), Fraction(pi + error, one)


PI_LO, PI_HI = _machin_pi(256)

# Accuracy assumed of libm's pow: within POW_ULPS ulps of the exact power of
# its double arguments.
POW_ULPS = 1


def _to_float_bound(n):
    """A bound on the relative error of PiMultiple(c, n).to_float() for n <= 620.

    to_float rounds c to its nearest double (relative error u), raises
    the double pi = fl(pi)(1 + d) to the n-th power by libm's pow (within
    POW_ULPS ulps, 2 POW_ULPS u of (pi (1 + d))^n) and rounds their product
    once (u); the frexp and ldexp scalings are exact.  |d| is measured
    against the Machin bracket.
    """
    d = max(abs(Fraction(math.pi) - PI_LO), abs(Fraction(math.pi) - PI_HI)) / PI_LO
    u = Fraction(U)
    return float((1 + u) ** 2 * (1 + 2 * POW_ULPS * u) * (1 + d) ** n - 1)


def _matmuls(power):
    """Products numpy.linalg.matrix_power spends on a positive power: squarings plus multiplies."""
    return power.bit_length() - 1 + bin(power).count("1") - 1


def _dense_trace_bound(N, n):
    """A bound on |_trace_oracle(N, n) - trace(M^n)| relative to the exact trace(M^n).

    The oracle's kernel holds w = fl(fl(pi)/2 / N), which is w* r for the
    exact w* = pi/2N, with r bracketed by the Machin pi.  Every entry of the
    kernel is 0 or w, so all the products multiply nonnegative entries:
    a computed product of matrices known entrywise within factors 1 +- e1
    and 1 +- e2 is within (1 +- e1)(1 +- e2)(1 +- g_N) of the exact one,
    g_k = k u / (1 - k u), in any order of accumulation, with or without
    fused multiply-adds.  The chains to M^a and M^b take _matmuls(a) and
    _matmuls(b) products, the elementwise product rounds once, and the sum
    of N^2 nonnegative terms is within g_(N^2) in any order.  So the oracle
    lies within r^n (1 +- E) of the exact trace, with
    1 + E = (1 + g_N)^(products) (1 + u) (1 + g_(N^2)).
    """
    u = Fraction(U)

    def gamma(k):
        return k * u / (1 - k * u)

    w = Fraction(math.pi / 2 / N)
    r_lo, r_hi = w * 2 * N / PI_HI, w * 2 * N / PI_LO
    products = _matmuls(n // 2) + _matmuls(n - n // 2)
    grow = (1 + gamma(N)) ** products * (1 + u) * (1 + gamma(N * N))
    shrink = (1 - gamma(N)) ** products * (1 - u) * (1 - gamma(N * N))
    return float(max(r_hi**n * grow - 1, 1 - r_lo**n * shrink))


def _exact_trace(N, n, count):
    """(lo, hi): bounds on (pi/2N)^n count from the Machin bracket."""
    scale = Fraction(count, (2 * N) ** n)
    return scale * PI_LO**n, scale * PI_HI**n


def _within(value, bracket, rel):
    """True iff value lies in the bracket widened on both sides by rel times its upper end."""
    lo, hi = bracket
    slack = Fraction(rel) * hi
    return lo - slack <= Fraction(value) <= hi + slack


class TestLatticeCounts:
    """The exact count behind trace_power_nystrom: L_n(t) = tr(A_t^n)."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_newton_form_matches_closed_walks_beyond_nodes(self, n):
        # The nodes of each parity end at t = 2n + 1; the Newton form must
        # keep matching a dense count up to 2n + 8, which tests the
        # period-2 quasi-polynomial claim instead of assuming it.
        for t in range(2 * n + 9):
            assert spectral_operator._lattice_count(t, n) == _closed_walks_oracle(t, n), t

    @pytest.mark.parametrize("n", range(2, 21))
    @pytest.mark.parametrize("parity", [0, 1])
    def test_ehrhart_leading_coefficient(self, n, parity):
        # L_n(parity + 2q) has leading term Vol(P) (2q)^n, so its n-th
        # difference is n! 2^n Vol(P), and Vol(P) = (2/pi)^n S(n) = 2^n s_coeff(n)
        # for the unit cyclic polytope P.
        leading = spectral_operator._node_differences(n, parity)[n]
        assert leading == math.factorial(n) * 4**n * euler_sums.s_coeff(n)

    def test_small_counts(self):
        # n = 2: x_1 + x_2 <= t, (t + 1)(t + 2)/2 points
        assert [spectral_operator._lattice_count(t, 2) for t in range(5)] == [1, 3, 6, 10, 15]
        assert spectral_operator._closed_walks(0, 7) == 1


class TestTraces:
    def test_square_trace_identity(self):
        matrix = nystrom_matrix(100)
        assert trace_power_nystrom(100, 2) == pytest.approx(
            float(np.sum(matrix.entries**2)), abs=1e-12
        )

    def test_traces_near_exact(self):
        assert trace_power_nystrom(800, 2) == pytest.approx(math.pi**2 / 8, rel=0.01)
        assert trace_power_nystrom(800, 3) == pytest.approx(math.pi**3 / 32, rel=0.01)

    def test_spectral_sum_equals_trace(self):
        N = 300
        eigenvalues = np.linalg.eigvalsh(nystrom_matrix(N).entries)
        for n in (2, 3, 4):
            assert trace_power_nystrom(N, n) == pytest.approx(
                float(np.sum(eigenvalues**n)), abs=1e-10
            )

    def test_truncated_spectral_sum(self):
        # top 21 eigenvalues carry all but the analytic tail of the cube sum
        N = 400
        top = sym_eigenvalues(nystrom_matrix(N), 21)
        partial = sum(v**3 for v in top)
        tail = 2 * sum((4 * k - 3.0) ** -3 for k in range(11, 10000))
        assert abs(trace_power_nystrom(N, 3) - partial) < tail + 1e-6

    def test_low_power_rejected(self):
        with pytest.raises(ValueError):
            trace_power_nystrom(100, 1)

    @pytest.mark.parametrize("N", [2, 3, 7, 12, 40])
    def test_exact_to_rounding_at_small_grids(self, N):
        # the count from a dense integer power, independently of the Newton form
        for n in range(2, 13):
            bracket = _exact_trace(N, n, _closed_walks_oracle(N - 2, n))
            assert _within(trace_power_nystrom(N, n), bracket, _to_float_bound(n)), n

    @pytest.mark.parametrize("N", [100, 520, 2000, 4096, 10**6])
    def test_exact_to_rounding_at_large_grids(self, N):
        # the count from the Newton form, which the lattice-count tests hold
        # to dense counts; this checks the scaling and the rounding
        for n in (2, 3, 4, 5, 13, 29, 32):
            count = spectral_operator._lattice_count(N - 2, n)
            bracket = _exact_trace(N, n, count)
            assert _within(trace_power_nystrom(N, n), bracket, _to_float_bound(n)), n

    @pytest.mark.parametrize("N", [2, 3, 7, 64, 100])
    def test_matches_dense_oracle(self, N):
        for n in range(2, 13):
            rel = _dense_trace_bound(N, n) + _to_float_bound(n)
            exact_hi = _exact_trace(N, n, spectral_operator._lattice_count(N - 2, n))[1]
            gap = abs(Fraction(trace_power_nystrom(N, n)) - Fraction(_trace_oracle(N, n)))
            assert gap <= Fraction(rel) * exact_hi, n

    @pytest.mark.parametrize(
        "N", [2, 3, 7, 8, 16, 100, 257, 520, 777, 1000, 1032, 1449, 1456, 2000]
    )
    def test_bit_identical_to_fresh_product(self, N):
        # the dense traces verify reads: 2, 3, 7, 100, 257, 777 and 1449 pad
        # the kernel to a multiple of 8, 8, 16, 520, 1000, 1032, 1456 and
        # 2000 need no padding; at 8 the row block is the whole kernel, at 16
        # half of it; 1456 is the first grid whose square row takes two
        # column panels
        assert nystrom_traces(N) == tuple(_trace_oracle(N, n) for n in (2, 3, 4))

    @pytest.mark.parametrize("N", [5, 100, 511, 512, 654, 1007, 1449, 1456, 2000])
    def test_shared_traces_equal_separate_traces(self, N):
        # 512, 1456 and 2000 need no padding, the other grids do; the dense
        # traces agree with the exact counts to the rounding of dense
        # products
        traces = nystrom_traces(N)
        assert traces == tuple(_trace_oracle(N, n) for n in (2, 3, 4))
        for n, trace in zip((2, 3, 4), traces):
            rel = _dense_trace_bound(N, n) + _to_float_bound(n)
            exact_hi = _exact_trace(N, n, spectral_operator._lattice_count(N - 2, n))[1]
            assert abs(Fraction(trace_power_nystrom(N, n)) - Fraction(trace)) <= Fraction(rel) * exact_hi

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            trace_power_nystrom(1, 2)
        with pytest.raises(ValueError):
            nystrom_traces(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lone_trace_assembles_no_kernel(self, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("a dense kernel or square was built")

        monkeypatch.setattr(spectral_operator, "_kernel_entries", refuse)
        monkeypatch.setattr(spectral_operator, "_square_row", refuse)
        assert trace_power_nystrom(64, n) > 0

    def test_builds_no_array(self):
        N = 10**6
        tracemalloc.start()
        try:
            for n in (2, 3, 13):
                trace_power_nystrom(N, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # far below one array of N doubles
        assert peak <= 8 * N // 100

    @pytest.mark.parametrize("N", [*range(8, 130, 8), 512, 520, 1000, 1032, 1456, 2000])
    def test_kernel_square_equals_full_product(self, N):
        # grids that are a multiple of 8 need no padding; the first row of
        # one 8-row block must not increase along the row for min(g_i, g_j)
        # to be g[max(i, j)]; 1456 and 2000 take it in two and three
        # column panels
        kernel = nystrom_matrix(N).entries
        m = np.array(kernel)
        g = spectral_operator._square_row(kernel)
        assert np.array_equal(np.minimum.outer(g, g), m @ m)
        assert np.all(np.diff(g) <= 0)

    @pytest.mark.parametrize(
        "N", [N for N in range(2, 130) if N % 8] + [654, 767, 1007, 1449, 2001]
    )
    def test_unaligned_kernel_square_is_full_product(self, N):
        # unpadded, a square spread from a row block differs from m @ m in
        # the last bits at many of these grids (20, 68, 76, ..., 654, 767,
        # 1007 with OpenBLAS 0.3.31), whose ragged edge tiles sum
        # differently; padded with zeros to a multiple of 8, it must not;
        # 1449 pads to 1456, two column panels
        m = _padded_kernel(N)
        g = spectral_operator._square_row(spectral_operator._kernel_entries(N, _padded_size(N)))
        assert np.array_equal(np.minimum.outer(g, g), m @ m)
        assert np.all(np.diff(g) <= 0)

    @pytest.mark.parametrize("N", [1024, 1023, 4095])
    def test_dense_traces_hold_one_array(self, N):
        # no P x P array, P the grid rounded up to a multiple of 8: the peak
        # is the kernel's 2P - 1 doubles plus the larger of two phases, each
        # counted in doubles.  The square row holds the top 8 rows, one panel
        # buffer, one 8-row panel product and g; the sum tree holds g, a
        # leaf's kernel rows and square rows and one product, each at most
        # SUM_LEAF + 2P entries.  64 KiB covers Python's own objects.  At
        # 1024 and 1023 the one panel is the whole kernel; at 4095 it is a
        # sixteenth of it.
        size = _padded_size(N)
        rows = spectral_operator.SQUARE_ALIGN
        width = max(spectral_operator._panel_widths(size))
        square_row = rows * size + size * width + rows * width + size
        sum_tree = size + 3 * (spectral_operator.SUM_LEAF + 2 * size)
        tracemalloc.start()
        try:
            nystrom_traces(N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * size + max(square_row, sum_tree)) + 64 * 1024

    @pytest.mark.parametrize("leaf", [128, 1024, 1 << 16])
    def test_pairwise_sums_equal_numpy_sum(self, monkeypatch, leaf):
        # the sum tree must split where numpy's pairwise sum does, so that
        # each leaf is a node of numpy's tree; a numpy that sums otherwise
        # fails here.  The terms spread over 16 decades, so that a
        # different order changes the last bits.
        monkeypatch.setattr(spectral_operator, "SUM_LEAF", leaf)
        rng = np.random.default_rng(34)
        for n in [1, 7, 8, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 8, 10**6 + 3, 2000**2]:
            x = rng.random(n) * 10.0 ** rng.uniform(-8, 8, n)
            tree = spectral_operator._pairwise_sums(
                0, n, lambda lo, hi: (float(np.sum(x[lo:hi])), float(np.sum(x[lo:hi] ** 2)))
            )
            assert tree == (float(np.sum(x)), float(np.sum(x**2))), n

    def test_dense_traces_refuse_grid_above_cap(self, monkeypatch):
        # a library caller above the CLI's cap is refused before any array
        # is built, as the CLI refuses it; the CLI reads the same limit
        from zigzagsums import cli

        def refuse(*args):
            raise AssertionError("a kernel or square row was built")

        monkeypatch.setattr(spectral_operator, "_kernel_entries", refuse)
        monkeypatch.setattr(spectral_operator, "_square_row", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"capped at grid {GRID_LIMIT}"):
            nystrom_traces(GRID_LIMIT + 1)
        assert time.perf_counter() - start < 0.1
        assert cli.GRID_LIMIT is GRID_LIMIT


class TestEigenfunctionResidual:
    def test_fundamental_mode(self):
        assert eigenfunction_residual(0, 1000) < 1e-5

    def test_negative_mode(self):
        assert eigenfunction_residual(-1, 1000) < 1e-4

    def test_higher_mode(self):
        assert eigenfunction_residual(2, 2000) < 1e-4

    def test_residual_shrinks_quadratically(self):
        coarse = eigenfunction_residual(0, 200)
        fine = eigenfunction_residual(0, 800)
        assert fine < coarse / 8  # midpoint rule is second order

    def test_minimum_grid(self):
        with pytest.raises(ValueError):
            eigenfunction_residual(0, 50)

    @pytest.mark.parametrize("N", [100, 257, 1000, 2000])
    @pytest.mark.parametrize("k", [0, -1, 1, -2, 2])
    def test_closed_form_tracks_midpoint_sum(self, k, N):
        bound = _residual_rounding_bound(k, N)
        assert abs(eigenfunction_residual(k, N) - _residual_oracle(k, N)) <= bound

    @pytest.mark.parametrize("k", [500, 10**6])
    def test_under_resolved_mode_tracks_midpoint_sum(self, k):
        # |4k + 1| >= 2N: the grid no longer resolves cos(mu), and from
        # |4k + 1| > 4N on, sin(m w/2) changes sign between grid points
        N = 1000
        residual = eigenfunction_residual(k, N)
        assert math.isfinite(residual)
        assert abs(residual - _residual_oracle(k, N)) <= _residual_rounding_bound(k, N)

    @pytest.mark.parametrize("N", [100, 1000])
    def test_mode_above_cap_refused(self, N):
        # At k = 10^15 the closed form returned 69.07 (N = 100) and 954.5
        # (N = 1000), above the pi/2 that bounds every midpoint sum.
        limit = int(2**32 / math.pi)
        assert 4 * 10**6 + 1 < limit < 4 * 10**15
        for k in (10**15, -(10**15), (limit - 1) // 4 + 1, -((limit + 1) // 4) - 1):
            with pytest.raises(ValueError, match="^the residual needs "):
                eigenfunction_residual(k, N)
        for k in ((limit - 1) // 4, -((limit + 1) // 4)):
            assert abs(4 * k + 1) <= limit
            assert 0.0 <= eigenfunction_residual(k, N) <= math.pi / 2 + 1 / abs(4 * k + 1)

    def test_memory_linear_in_grid(self):
        # at most 16 arrays of N doubles, where one 256-row block of the
        # N x N cosines took 256 (6 MB at N = 3000)
        N = 3000
        tracemalloc.start()
        try:
            eigenfunction_residual(1, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * N
