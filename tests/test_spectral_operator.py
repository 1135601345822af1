import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zigzagsums import spectral_operator
from zigzagsums.euler_sums import PiMultiple
from zigzagsums.exact_arith import HALF_PI, PiPoly, VPiPoly
from zigzagsums.special_numbers import zigzag
from zigzagsums.spectral_operator import (
    T_POWER_LIMIT,
    eigenfunction_residual,
    exact_eigenvalue,
    fourier_coeff_const,
    grid_midpoints,
    inner_product_one,
    nystrom_matrix,
    nystrom_traces,
    parseval_sum,
    sym_eigenvalues,
    t_power_one,
    trace_power_nystrom,
)


def _lapack_spectrum(N):
    """Oracle: all eigenvalues of the Nystrom matrix from LAPACK, ascending."""
    return np.linalg.eigvalsh(nystrom_matrix(N).entries)


def _trace_oracle(N, n):
    """Oracle: the trace as the sum of a freshly allocated elementwise product."""
    m = nystrom_matrix(N).entries
    a = n // 2
    ma = np.linalg.matrix_power(m, a)
    mb = ma if n - a == a else np.linalg.matrix_power(m, n - a)
    return float(np.sum(ma * mb))


def _parseval_oracle(n, K):
    """Oracle: the Parseval terms as a literal per-term list, then math.fsum."""
    terms = [fourier_coeff_const(k) ** 2 / float(4 * k + 1) ** n for k in range(-K, K + 1)]
    return (math.pi / 4) * math.fsum(terms)


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


def _vpipoly_iterate(n):
    """Oracle: T^n 1 by n symbolic applications of the operator to VPiPoly values."""
    result = VPiPoly.one()
    for _ in range(n):
        result = result.integral_to_reflection()
    return result


class TestHomogeneousIterates:
    @pytest.mark.parametrize("n", range(21))
    def test_t_power_one_matches_vpipoly_iteration(self, n):
        assert t_power_one(n) == _vpipoly_iterate(n)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_inner_product_matches_vpipoly_iteration(self, n):
        expected = _vpipoly_iterate(n - 1).integral_to_half_pi()
        assert inner_product_one(n) == expected
        assert inner_product_one(n).terms == expected.terms


class TestExactOperator:
    def test_applied_to_one(self):
        expected = VPiPoly.from_dict({0: HALF_PI, 1: PiPoly.rational(-1)})
        assert VPiPoly.one().integral_to_reflection() == expected

    def test_applied_twice(self):
        expected = VPiPoly.from_dict(
            {0: PiPoly.pi_power(2, Fraction(1, 8)), 2: PiPoly.rational(Fraction(-1, 2))}
        )
        assert VPiPoly.one().integral_to_reflection().integral_to_reflection() == expected

    def test_applied_to_zero(self):
        assert VPiPoly.zero().integral_to_reflection() == VPiPoly.zero()

    def test_iterates(self):
        assert t_power_one(0) == VPiPoly.one()
        assert t_power_one(1) == VPiPoly.one().integral_to_reflection()
        assert t_power_one(2) == t_power_one(1).integral_to_reflection()

    def test_iterate_degree_and_root(self):
        for n in range(1, 13):
            iterate = t_power_one(n)
            assert iterate.degree() == n
            # vanishes identically at v = pi/2
            assert iterate.evaluate(HALF_PI).is_zero()

    def test_iterate_cap(self):
        with pytest.raises(ValueError):
            t_power_one(T_POWER_LIMIT + 1)

    def test_inner_products(self):
        assert inner_product_one(1) == HALF_PI
        assert inner_product_one(2) == PiPoly.pi_power(2, Fraction(1, 8))
        # integral of pi^2/8 - v^2/2 over (0, pi/2) = pi^3/16 - pi^3/48 = pi^3/24
        assert inner_product_one(3) == PiPoly.pi_power(3, Fraction(1, 24))

    def test_inner_product_cap(self):
        assert inner_product_one(T_POWER_LIMIT + 1).degree() == T_POWER_LIMIT + 1
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
        applied = matrix.entries @ np.ones(N)
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

    @pytest.mark.parametrize("N", [2, 3, 7, 100, 257, 520, 777, 1000, 1032, 2000])
    def test_bit_identical_to_fresh_product(self, N):
        # n up to 12 runs the shared square chain; 2000 is verify's grid at
        # its powers; 257 and 777 take the full square, 1000 and 1032 end in
        # blocks that line up with neither the row blocks nor the triangle,
        # n = 7, 8 square the dense M^2 in blocks, and 520 up to n = 16 also
        # squares the dense M^4 in blocks
        powers = {100: range(2, 13), 520: range(2, 17), 1032: range(2, 9),
                  2000: (2, 3, 4)}.get(N, range(2, 7))
        for n in powers:
            assert trace_power_nystrom(N, n) == _trace_oracle(N, n)

    @pytest.mark.parametrize("N", [5, 100, 511, 512, 654, 1007, 2000])
    def test_shared_traces_equal_separate_traces(self, N):
        # 512 and 2000 take the blocked square, the other grids the full product
        traces = nystrom_traces(N)
        assert traces == tuple(trace_power_nystrom(N, n) for n in (2, 3, 4))
        assert traces == tuple(_trace_oracle(N, n) for n in (2, 3, 4))

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            trace_power_nystrom(1, 2)
        with pytest.raises(ValueError):
            nystrom_traces(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lone_trace_assembles_one_kernel(self, monkeypatch, n):
        real = spectral_operator._kernel_entries
        calls = []
        monkeypatch.setattr(spectral_operator, "_kernel_entries",
                            lambda N: calls.append(N) or real(N))
        trace_power_nystrom(64, n)
        assert calls == [64]

    @pytest.mark.parametrize("n, squares", [(2, []), (3, [True]), (4, [False])])
    def test_lone_trace_squares(self, monkeypatch, n, squares):
        # n = 3 needs M^2 only where M is nonzero: the triangle square
        real = spectral_operator._square
        calls = []

        def counting(x, triangle=False):
            calls.append(triangle)
            return real(x, triangle)

        monkeypatch.setattr(spectral_operator, "_square", counting)
        trace_power_nystrom(512, n)
        assert calls == squares

    @pytest.mark.parametrize("N", [512, 520, 777, 1000, 1032, 2000])
    def test_blocked_square_equals_full_product(self, N):
        m = nystrom_matrix(N).entries
        full = m @ m
        assert np.array_equal(spectral_operator._square(m), full)
        assert np.array_equal(spectral_operator._square(m, triangle=True) * m, full * m)
        # a dense symmetric matrix with no structure to hide a changed sum order
        x = np.random.default_rng(N).random((N, N))
        x += x.T
        assert np.array_equal(spectral_operator._square(x), x @ x)


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
