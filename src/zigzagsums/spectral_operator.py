"""The integral operator with triangle-indicator kernel on L^2(0, pi/2).

The operator sends f to the function v |-> integral of f over (0, pi/2 - v).
Two complementary views are implemented:

  * exact: the operator maps polynomials homogeneous of degree d in
    (pi, v) to degree d + 1, so its iterates on the constant 1 are
    T^n 1 = (pi/2)^n q_n(2v/pi) with rational polynomials q_0 = 1 and
    q_{n+1}(w) = integral of q_n over (0, 1 - w); these are iterated on
    integer coefficients over one common denominator, and the iterates
    (VPiPoly) and their inner products with 1 come out exact;
  * numeric: a midpoint-rule Nystrom matrix whose spectrum approximates the
    true eigenvalues 1/(4k+1) (eigenfunctions cos((4k+1)u)) and whose matrix
    powers approximate operator traces.  The spectrum of that matrix has a
    closed form (see ``sym_eigenvalues``), evaluated in O(top) operations
    with ``math.sin``; the test suite checks it against LAPACK's dense
    symmetric solver.  The traces come from matrix powers, independently of
    the closed form; each square in them is computed by row blocks over its
    upper triangle and mirrored, bit for bit equal to the full product (see
    ``_square``).  ``trace_power_nystrom(N, n)`` forms the powers it needs
    on one kernel, along numpy.linalg.matrix_power's chain of squares;
    ``nystrom_traces(N)``, the verify suite's call, returns the traces of
    M^2, M^3 and M^4 from one kernel and one square M @ M, with the bits
    of three lone ``trace_power_nystrom`` calls.  Only the traces build
    N x N arrays: the eigenfunction residual sums in closed form.

The kernel is the open triangle u + v < pi/2; boundary points count as 0,
which also fixes the behaviour of grid pairs that land exactly on the
boundary (midpoints with i + j + 1 = N sum to pi/2 in exact arithmetic).

numpy is imported inside the numeric functions that build arrays, so the
exact view and the closed-form spectrum run without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import truediv
from typing import TYPE_CHECKING

from .exact_arith import PiPoly, VPiPoly

if TYPE_CHECKING:
    import numpy as np

HALF_PI = math.pi / 2

# Degree of the exact operator iterates grows linearly; keep desk scale.
T_POWER_LIMIT = 40

# Rows per block of the blocked square in the trace route; every block edge
# is a multiple of it or N (see _square).
SQUARE_ROWS = 256

# The blocked square serves grids whose size is a multiple of this; other
# grids have ragged BLAS edge tiles and take the full product (see _square).
SQUARE_ALIGN = 8


def _check_grid(N: int) -> None:
    if N < 2:
        raise ValueError("grid size must be at least 2")


def grid_midpoints(N: int) -> np.ndarray:
    """Midpoints u_j = (j + 1/2) (pi/2) / N of an N-cell grid on (0, pi/2)."""
    _check_grid(N)
    import numpy as np

    return (np.arange(N) + 0.5) * (HALF_PI / N)


def _kernel_entries(N: int) -> np.ndarray:
    """The dense N x N entries: (pi/2)/N where i + j + 1 < N, else 0.

    Cell (i, j) lies inside the open triangle iff u_i + u_j < pi/2, that is
    iff i + j + 1 < N.  The test is made on the integers: the float midpoint
    sums of boundary cells (i + j + 1 = N) can round below pi/2.  Row i is
    filled on its first N - 1 - i cells.
    """
    import numpy as np

    w = HALF_PI / N
    entries = np.zeros((N, N))
    for i in range(N - 1):
        entries[i, : N - 1 - i] = w
    return entries


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Midpoint Nystrom matrix: entries (pi/2)/N on cells inside the open triangle, else 0.

    Only the grid size N is stored.  The dense ``entries`` (8 N^2 bytes) are
    assembled on first access and kept; the closed-form spectrum reads N alone.
    """

    N: int

    def __post_init__(self) -> None:
        _check_grid(self.N)

    @cached_property
    def entries(self) -> np.ndarray:
        return _kernel_entries(self.N)


def nystrom_matrix(N: int) -> KernelMatrix:
    """The N x N midpoint discretization of the triangle kernel; requires N >= 2.

    Constant time: the dense entries are assembled on first access to
    ``entries``.
    """
    return KernelMatrix(N)


def _q_iterate(n: int) -> tuple[list[int], int]:
    """q_n as integer coefficients of w^0, w^1, ... over one common denominator.

    Each step takes the antiderivative over the common denominator
    lcm(1..deg+1), substitutes x = 1 - w by a Taylor shift done with
    integer additions, and cancels the common content.
    """
    numerators, denominator = [1], 1
    for _ in range(n):
        scale = math.lcm(*range(1, len(numerators) + 1))
        coeffs = [0] + [c * (scale // (i + 1)) for i, c in enumerate(numerators)]
        denominator *= scale
        degree = len(coeffs) - 1
        for i in range(degree):  # coeffs of p(x) -> coeffs of p(x + 1)
            for j in range(degree - 1, i - 1, -1):
                coeffs[j] += coeffs[j + 1]
        numerators = [-c if j % 2 else c for j, c in enumerate(coeffs)]  # x -> -w
        common = math.gcd(denominator, *numerators)
        numerators = [c // common for c in numerators]
        denominator //= common
    return numerators, denominator


def t_power_one(n: int) -> VPiPoly:
    """The n-th operator iterate applied to the constant 1, exactly.

    The result has v-degree n and vanishes at v = pi/2 for n >= 1.  It is
    (pi/2)^n q_n(2v/pi), whose v^i coefficient is q_{n,i} 2^(i-n) pi^(n-i).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > T_POWER_LIMIT:
        raise ValueError(f"exact iterates are capped at n <= {T_POWER_LIMIT}")
    numerators, denominator = _q_iterate(n)
    return VPiPoly(
        tuple(
            (i, PiPoly.pi_power(n - i, Fraction(c * 2**i, denominator * 2**n)))
            for i, c in enumerate(numerators)
        )
    )


def inner_product_one(n: int) -> PiPoly:
    """Exact inner product of 1 with the (n-1)-th operator iterate of 1.

    The integral of (pi/2)^(n-1) q_(n-1)(2v/pi) over (0, pi/2) is
    (pi/2)^n q_n(0).  It equals the pure monomial (A(n)/n!) (pi/2)^n, which
    ties the operator route to the zigzag counts; the test suite checks
    that identity in exact arithmetic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n - 1 > T_POWER_LIMIT:
        raise ValueError(f"exact iterates are capped at n <= {T_POWER_LIMIT}")
    numerators, denominator = _q_iterate(n)
    return PiPoly.pi_power(n, Fraction(numerators[0], denominator * 2**n))


def fourier_coeff_const(k: int) -> float:
    """Coefficient of cos((4k+1)u) in the orthogonal expansion of 1: (4/pi)/(4k+1)."""
    return (4.0 / math.pi) / (4 * k + 1)


def parseval_sum(n: int, K: int) -> float:
    """(pi/4) sum over |k| <= K of c_k^2 / (4k+1)^n for the constant function.

    Converges to (4/pi) S(n+2), the inner product of 1 with its (n+1)-th
    operator iterate, as K grows.

    The terms stream through C-level ``map`` iterators, with no list: c_k
    is divided as in ``fourier_coeff_const`` and squared by Python's float
    ``pow``, and (4k+1)^n is the same libm ``pow`` as ``float(4k+1) ** n``,
    so every term is the double of the per-term expression.  numpy's
    vectorised power is not used: it differs from libm in the last bit of
    some terms.  For n = 0 the division by (4k+1)^0 = 1.0, which is exact,
    is skipped.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if K < 0:
        raise ValueError("K must be nonnegative")
    bases = range(1 - 4 * K, 4 * K + 2, 4)  # 4k + 1 for k = -K..K
    terms = map(pow, map(truediv, repeat(4.0 / math.pi), bases), repeat(2))
    if n:
        terms = map(truediv, terms, map(pow, bases, repeat(float(n))))
    return (math.pi / 4) * math.fsum(terms)


def sym_eigenvalues(matrix: KernelMatrix, top: int) -> list[float]:
    """The ``top`` eigenvalues of largest magnitude of ``nystrom_matrix(matrix.N)``.

    For N cells they are, descending by |lambda|,

        lambda_k = (pi/2N) (-1)^(k+1) / (2 sin((2k-1) pi / (2(2N-1)))),  k = 1..N-1,

    followed by 0; they approximate 1, -1/3, 1/5, -1/7, 1/9, ...  Only
    ``matrix.N`` is read, and no array is built.

    Derivation: the last row and column of the matrix are empty (i + j + 1 < N
    fails for i = N-1), which gives the eigenvalue 0.  With m = N-1, the
    leading m x m block is (pi/2N) J, where J has ones on and above the
    anti-diagonal (i + j <= m-1).  J = U P, with U the upper triangular
    matrix of ones and P the reversal, so J^-1 = P (I - S) for the
    superdiagonal shift S: (J^-1 x)_i = x_(m-1-i) - x_(m-i), with x_m = 0.
    Take x_j = cos((j + 1/2) theta) with theta = (2k-1) pi / (2m+1), so that
    x_m = cos((2k-1) pi/2) = 0.  Writing phi = (m + 1/2) theta, where
    cos(phi) = 0 and sin(phi) = (-1)^(k+1),

        (J^-1 x)_i = cos(phi - (i+1) theta) - cos(phi - i theta)
                   = (-1)^(k+1) (sin((i+1) theta) - sin(i theta))
                   = (-1)^(k+1) 2 sin(theta/2) x_i,

    so J has the m distinct eigenvalues (-1)^(k+1) / (2 sin(theta/2)).  As
    theta/2 < pi/2, |lambda_k| strictly decreases in k: no sort is needed.
    """
    if top < 1:
        raise ValueError("top must be at least 1")
    if top > matrix.N:
        raise ValueError("top cannot exceed the grid size")
    N = matrix.N
    scale = HALF_PI / N
    step = math.pi / (2 * (2 * N - 1))
    eigenvalues = [
        (scale if k % 2 else -scale) / (2.0 * math.sin((2 * k - 1) * step))
        for k in range(1, min(top, N - 1) + 1)
    ]
    return eigenvalues + [0.0] * (top - len(eigenvalues))


def _rank_mode(rank: int) -> int:
    """The mode k whose eigenvalue 1/(4k+1) has the rank-th largest magnitude: 0, -1, 1, -2, 2, ..."""
    return (rank + 1) // 2 * (1 if rank % 2 == 0 else -1)


def exact_eigenvalue(rank: int) -> float:
    """The true eigenvalue with the rank-th largest magnitude, 1/(4k+1) for k = _rank_mode(rank)."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return 1.0 / (4 * _rank_mode(rank) + 1)


def _square(x: np.ndarray, triangle: bool = False) -> np.ndarray:
    """x @ x for a symmetric x, equal to the full product bit for bit, in about half its flops.

    BLAS accumulates each output entry over K in an order set by K and by
    the kernel that computes the entry's register tile.  Row blocks of
    SQUARE_ROWS rows, each taken against the columns from its own first row
    on, start every row and column range at a multiple of SQUARE_ROWS and
    end it there or at N, so each entry they compute is the entry of x @ x.
    The transpose of each block fills the lower triangle: (i, j) and (j, i)
    sum the same products in the same order.

    That holds on grids whose size is a multiple of SQUARE_ALIGN.  On other
    grids the last N mod 8 columns come from edge kernels whose sums depend
    on the width and the row split of the call, and the last rows of x @ x
    differ from its last columns in the last bits (OpenBLAS's SkylakeX
    kernel at N = 654, 767 and 1007), so those grids take the full product.
    A last block of a few rows changes bits too, so it takes more than
    SQUARE_ROWS / 2 and at most 3 SQUARE_ROWS / 2 rows.  The test suite
    checks the result against x @ x, on random symmetric matrices as well.

    With ``triangle`` only the entries with i + j + 1 < N, where the kernel
    matrix is nonzero, are computed, each block's columns rounded up to a
    multiple of SQUARE_ROWS; the rest are left at 0.
    """
    import numpy as np

    N = x.shape[0]
    if N % SQUARE_ALIGN or N < 2 * SQUARE_ROWS:
        return x @ x
    out = np.zeros((N, N)) if triangle else np.empty((N, N))
    edges = list(range(0, N - SQUARE_ROWS // 2, SQUARE_ROWS)) + [N]
    for i0, i1 in zip(edges, edges[1:]):
        stop = N
        if triangle:  # rows from i0 on are nonzero only in columns below N - 1 - i0
            stop = min(N, -(-(N - 1 - i0) // SQUARE_ROWS) * SQUARE_ROWS)
            if stop <= i0:
                break
        np.matmul(x[i0:i1], x[:, i0:stop], out=out[i0:i1, i0:stop])
        out[i1:stop, i0:i1] = out[i0:i1, i1:stop].T
    return out


def trace_power_nystrom(N: int, n: int) -> float:
    """Trace of the n-th power of the Nystrom matrix; approximates S(n).

    Requires n >= 2 (the operator itself is not trace class).  Computed from
    matrix powers of dense entries assembled for this call, independently
    of any eigenvalue solve: with a = n // 2 and b = n - a, trace(M^n) is
    the sum of the elementwise product of M^a and M^b, both symmetric.

    Both powers are formed as numpy.linalg.matrix_power forms them, on one
    kernel and one chain of squares: M^3 is (M @ M) @ M, and any other
    power takes ``result @ z`` at each set bit of its exponent, lowest
    first, while z runs through M, M^2, M^4, ...  Each square X @ X is
    computed by ``_square`` from row blocks over the upper triangle of the
    symmetric X, and for n = 3 M^2 is computed only where M is nonzero, as
    the rest is multiplied by 0.  Every entry is accumulated over K in the
    order of the full product, so the trace is the float that matrix_power
    gives, bit for bit; the test suite holds this invariant against a
    matrix_power oracle, at grids whose size does and does not line up
    with the row blocks.  Every array is dropped once nothing further reads
    it, and the last product is written over M^b.  Measured with
    tracemalloc, at most four N x N arrays are live at once: one for n = 2,
    two for n = 3, 4, 8, 16 and 32, three or four for the other n up to 32.
    """
    if n < 2:
        raise ValueError("the trace route requires n >= 2")
    _check_grid(N)
    import numpy as np

    a, b = n // 2, n - n // 2
    m = _kernel_entries(N)
    powers = dict.fromkeys((a, b))
    z = m
    for k in range(b.bit_length()):
        if k:
            z = _square(z, triangle=n == 3)
        for p in powers:
            if p == 3:
                if k == 1:
                    powers[p] = z @ m
            elif p >> k & 1:
                powers[p] = z if powers[p] is None else powers[p] @ z
        if k == 1:
            del m  # no product after (M @ M) @ M reads M itself
    ma, mb = powers[a], powers[b]
    # an elementwise square may read and write one array
    return float(np.sum(np.multiply(mb, ma, out=mb)))


def nystrom_traces(N: int) -> tuple[float, float, float]:
    """trace(M^2), trace(M^3) and trace(M^4), bit for bit as ``trace_power_nystrom`` gives them.

    The three share one kernel and one full square M @ M from ``_square``,
    where three lone calls form three kernels and two squares.  trace(M^3)
    reads the square only where M is nonzero, which a lone n = 3 call's
    triangle square computes with the same bits.  The products are written
    over arrays nothing later reads, so two N x N arrays are live at once.
    """
    _check_grid(N)
    import numpy as np

    m = _kernel_entries(N)
    trace2 = float(np.sum(m * m))
    square = _square(m)
    trace3 = float(np.sum(np.multiply(square, m, out=m)))
    trace4 = float(np.sum(np.multiply(square, square, out=square)))
    return trace2, trace3, trace4


def eigenfunction_residual(k: int, N: int) -> float:
    """Discretization residual of the eigenrelation for cos(mu), m = 4k+1.

    For each grid midpoint v, integrates cos(mu) over (0, pi/2 - v) by the
    N-point midpoint rule of width w = (pi/2 - v)/N and compares with
    cos(mv)/m; returns the maximum absolute mismatch, O(1/N^2).  With
    x = mw, 2 sin(x/2) cos((j + 1/2)x) = sin((j + 1)x) - sin(jx) telescopes
    the rule to w sin(Nx) / (2 sin(x/2)), where Nx = m(pi/2 - v), so only
    arrays of length N are built (sin(x/2) != 0: x/2 is a nonzero double).
    No tautology: sin(m(pi/2 - v)) equals cos(mv) only for m = 1 (mod 4),
    and the quadrature error remains.
    """
    if N < 100:
        raise ValueError("use N >= 100 for a meaningful residual")
    import numpy as np

    m = 4 * k + 1
    v = grid_midpoints(N)
    span = HALF_PI - v
    width = span / N
    quadrature = width * np.sin(m * span) / (2 * np.sin(m * width / 2))
    return float(np.max(np.abs(quadrature - np.cos(m * v) / m)))
