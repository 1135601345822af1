"""The integral operator with triangle-indicator kernel on L^2(0, pi/2).

The operator sends f to the function v |-> integral of f over (0, pi/2 - v).
This module holds only its exact iterates and its Nystrom views:

  * exact: the operator maps polynomials homogeneous of degree d in
    (pi, v) to degree d + 1, so its iterates on the constant 1 are
    T^n 1 = (pi/2)^n q_n(2v/pi) with rational polynomials q_0 = 1 and
    q_{n+1}(w) = integral of q_n over (0, 1 - w).  ``_iterate`` steps
    ``exact_arith.VPiPoly`` from the constant 1, on integer coefficients
    over one common denominator; ``t_power_one`` returns the iterate and
    ``inner_product_one`` the single pi multiple (pi/2)^n q_n(0);
  * numeric: a midpoint-rule Nystrom matrix whose spectrum approximates the
    true eigenvalues 1/(4k+1) (eigenfunctions cos((4k+1)u)) and whose
    power traces approximate operator traces.  The spectrum of that matrix
    has a closed form (see ``sym_eigenvalues``), evaluated in O(top)
    operations with ``math.sin``; the test suite checks it against LAPACK's
    dense symmetric solver.  The traces are independent of the closed form:
    ``trace_power_nystrom(N, n)`` counts the lattice points of a dilated
    cyclic polytope in exact integers, (pi/2N)^n L_n(N - 2), and builds no
    array.  ``nystrom_traces(N)``, the verify suite's call, returns the
    traces of M^2, M^3 and M^4 from dense products of one kernel and one
    square M @ M, with the kernel padded by zero rows and columns to a
    multiple of 8.  Entry (i, j) of that square depends on max(i, j) alone,
    so it is spread from the first row of one 8-row BLAS block, bit for bit
    equal to the full product (see ``_square_row``), into the one buffer
    that holds the kernel's copy.  Only those dense traces build square
    arrays: the kernel's entries are a read-only view of 2N - 1 doubles, and
    the eigenfunction residual sums in closed form.

The kernel is the open triangle u + v < pi/2; boundary points count as 0,
which also fixes the behaviour of grid pairs that land exactly on the
boundary (midpoints with i + j + 1 = N sum to pi/2 in exact arithmetic).

numpy is imported inside the numeric functions that build arrays, so the
exact view, the closed-form spectrum and the lattice-count traces run
without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

from .euler_sums import PiMultiple
from .exact_arith import VPiPoly

if TYPE_CHECKING:
    import numpy as np

HALF_PI = math.pi / 2

# Degree of the exact operator iterates grows linearly; keep desk scale.
T_POWER_LIMIT = 40

# The dense traces pad the kernel to a multiple of this many rows, and their
# square comes from one row block of that many rows (see _square_row).
SQUARE_ALIGN = 8


def _check_grid(N: int) -> None:
    if N < 2:
        raise ValueError("grid size must be at least 2")


def grid_midpoints(N: int) -> np.ndarray:
    """Midpoints u_j = (j + 1/2) (pi/2) / N of an N-cell grid on (0, pi/2)."""
    _check_grid(N)
    import numpy as np

    return (np.arange(N) + 0.5) * (HALF_PI / N)


def _kernel_entries(N: int, size: int) -> np.ndarray:
    """The N-cell kernel as a read-only size x size Hankel view: (pi/2)/N where i + j + 1 < N, else 0.

    Cell (i, j) lies inside the open triangle iff u_i + u_j < pi/2, that is
    iff i + j + 1 < N.  The test is made on the integers: the float midpoint
    sums of boundary cells (i + j + 1 = N) can round below pi/2.  Each entry
    depends on i + j alone, so the 2*size - 1 doubles v_s = (pi/2)/N for
    s < N - 1, else 0, determine the matrix: entry (i, j) is v[i + j], read
    through a sliding window of length size that shares v's memory.  A size
    above N pads the kernel with zero rows and columns.  The view is neither
    writable nor contiguous; a caller that needs a BLAS operand or an output
    buffer copies it with ``np.array``.
    """
    import numpy as np

    v = np.zeros(2 * size - 1)
    v[: N - 1] = HALF_PI / N
    return np.lib.stride_tricks.sliding_window_view(v, size)


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Midpoint Nystrom matrix: entries (pi/2)/N on cells inside the open triangle, else 0.

    Only the grid size N is stored.  ``entries`` is a read-only N x N view
    of 2N - 1 doubles (O(N) memory, see ``_kernel_entries``), assembled on
    first access and kept; the closed-form spectrum reads N alone.
    """

    N: int

    def __post_init__(self) -> None:
        _check_grid(self.N)

    @cached_property
    def entries(self) -> np.ndarray:
        return _kernel_entries(self.N, self.N)


def nystrom_matrix(N: int) -> KernelMatrix:
    """The N x N midpoint discretization of the triangle kernel; requires N >= 2.

    Constant time: the read-only view of the entries, O(N) memory, is
    assembled on first access to ``entries``.
    """
    return KernelMatrix(N)


def _iterate(n: int) -> VPiPoly:
    """T^n 1, by n exact steps of the operator from the constant 1."""
    value = VPiPoly.one()
    for _ in range(n):
        value = value.integral_to_reflection()
    return value


def t_power_one(n: int) -> VPiPoly:
    """The n-th operator iterate applied to the constant 1, exactly.

    The result is (pi/2)^n q_n(2v/pi) with q_n of degree n, so it has
    v-degree n, and it vanishes at v = pi/2 (q_n(1) = 0) for n >= 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > T_POWER_LIMIT:
        raise ValueError(f"exact iterates are capped at n <= {T_POWER_LIMIT}")
    return _iterate(n)


def inner_product_one(n: int) -> PiMultiple:
    """Exact inner product of 1 with the (n-1)-th operator iterate of 1.

    The integral of (pi/2)^(n-1) q_(n-1)(2v/pi) over (0, pi/2) is
    (pi/2)^n q_n(0).  It equals (A(n)/n!) (pi/2)^n, which ties the operator
    route to the zigzag counts; the test suite checks that identity in
    exact arithmetic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n - 1 > T_POWER_LIMIT:
        raise ValueError(f"exact iterates are capped at n <= {T_POWER_LIMIT}")
    q = _iterate(n)
    return PiMultiple(Fraction(q.numerators[0], q.denominator * 2**n), n)


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


def _square_row(m: np.ndarray) -> np.ndarray:
    """Row 0 of m @ m for the dense Nystrom kernel m = c J, padded to a multiple of SQUARE_ALIGN.

    The whole square is min(g_i, g_j) for this row g, bit for bit.  (J^2)_ij
    counts max(0, N - 1 - max(i, j)) products.  BLAS sums entry (i, j) over
    k in k order: that many equal products c c, then exact zeros, which
    leave a partial sum unchanged.  Where every tile runs the same
    microkernel, the entry thus depends on max(i, j) alone: it is
    g[max(i, j)].  Each step rounds a sum of nonnegative numbers, and
    rounding is monotone, so g does not increase and g[max(i, j)] =
    min(g_i, g_j).  The k range stays whole, as BLAS splits it into blocks
    by its length, and row 0 comes from a block of SQUARE_ALIGN rows: a
    single row takes gemv, whose sums differed at 148 of the 150 aligned N
    up to 1200 (OpenBLAS 0.3.31), and 2 rows differed at most aligned N
    from 392 to 704.

    That held at every multiple of SQUARE_ALIGN up to 4096, the CLI's grid
    cap, with one BLAS thread and with two.  An unpadded grid that is not
    such a multiple has ragged edge tiles whose sums differ (at 52 of those
    below 400, 20 among them), which is why ``nystrom_traces`` pads the
    kernel.  The tests check the spread square against m @ m, padded grids
    included.
    """
    return (m[:SQUARE_ALIGN] @ m)[0]


def _closed_walks(t: int, n: int) -> int:
    """tr(A_t^n) for the (t + 1) x (t + 1) 0/1 matrix A_t with entries [i + j <= t].

    (A_t v)_i is the sum of v_j over j <= t - i, the prefix sums of v
    read backwards, so n such steps from the unit vector e_i end on the
    count of closed walks of length n from i.
    """
    total = 0
    for i in range(t + 1):
        v = [0] * (t + 1)
        v[i] = 1
        for _ in range(n):
            v = list(accumulate(v))[::-1]
        total += v[i]
    return total


def _node_differences(n: int, parity: int) -> list[int]:
    """The forward differences D^0 .. D^n of L_n at the nodes t = parity, parity + 2, ..., parity + 2n.

    L_n(parity + 2q) is a polynomial of degree n in q (see
    ``trace_power_nystrom``), so these n + 1 integers are its Newton
    coefficients: L_n(parity + 2q) = sum over k of C(q, k) D^k.
    """
    row = [_closed_walks(parity + 2 * q, n) for q in range(n + 1)]
    differences = []
    for _ in range(n + 1):
        differences.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return differences


def _lattice_count(t: int, n: int) -> int:
    """L_n(t): the x in Z>=0^n with x_k + x_(k+1) <= t for every k, cyclically."""
    parity = t % 2
    q = (t - parity) // 2
    return sum(math.comb(q, k) * d for k, d in enumerate(_node_differences(n, parity)))


def trace_power_nystrom(N: int, n: int) -> float:
    """Trace of the n-th power of the Nystrom matrix; approximates S(n).

    Requires n >= 2 (the operator itself is not trace class).  The matrix
    is M = (pi/2N) J with J_ij = [i + j + 1 < N], whose last row and column
    are empty, so trace(M^n) = (pi/2N)^n tr(A_t^n) with t = N - 2.  That
    trace counts the closed walks i_1 -> ... -> i_n -> i_1 with consecutive
    sums at most t: the lattice points L_n(t) of t P, for the unit cyclic
    polytope P = {x >= 0 : x_k + x_(k+1) <= 1}.  Its vertices are
    half-integral, so L_n is its Ehrhart quasi-polynomial of degree n and
    period 2 (Stanley, "Two poset polytopes", 1986; Beck and Robins,
    "Computing the Continuous Discretely"), and the n + 1 counts at the
    small t of the same parity fix it (``_node_differences``).  Every step
    is an integer, so the result is (pi/2N)^n L_n(N - 2) up to the
    rounding of ``PiMultiple.to_float``.  No array is built, numpy is not
    loaded, and the cost, O(n^4) integer operations, does not grow with N.
    The route reads neither the eigenvalue formula nor the zigzag counts.
    """
    if n < 2:
        raise ValueError("the trace route requires n >= 2")
    _check_grid(N)
    return PiMultiple(Fraction(_lattice_count(N - 2, n), (2 * N) ** n), n).to_float()


def nystrom_traces(N: int) -> tuple[float, float, float]:
    """trace(M^2), trace(M^3) and trace(M^4) from dense products of the Nystrom matrix.

    The verify suite's traces, from dense products rather than the lattice
    counts of ``trace_power_nystrom``: each trace is the sum of an
    elementwise product of the kernel and one square M @ M, bit for bit
    equal to the trace from numpy.linalg.matrix_power of the kernel padded
    with zero rows and columns to P, the next multiple of SQUARE_ALIGN.
    The padding adds only zeros to every product, so each trace is the
    same number; on grids that are not a multiple of SQUARE_ALIGN its last
    bits may differ from those of the unpadded product.  The products
    round, so the values agree with ``trace_power_nystrom`` only to the
    rounding error of dense products of nonnegative entries, not bit for
    bit.

    The padded kernel's view is copied once to a writable C-contiguous
    P x P array m, the BLAS operand of the square and then the buffer every
    elementwise product is written to; the other factor is read from the
    view.  The square is spread into that same buffer from the first row of
    one BLAS row block (``_square_row``), once for trace(M^3) and again for
    trace(M^4), so one P x P array is live.  Each sum reads the same
    doubles in the same layout as a fresh product would, and multiplication
    is commutative, so no bit depends on which buffer holds them.  These
    are the only square arrays the module builds.
    """
    _check_grid(N)
    import numpy as np

    size = -(-N // SQUARE_ALIGN) * SQUARE_ALIGN
    kernel = _kernel_entries(N, size)
    m = np.array(kernel)
    g = _square_row(m)
    trace2 = float(np.sum(np.multiply(m, m, out=m)))
    np.minimum.outer(g, g, out=m)
    trace3 = float(np.sum(np.multiply(m, kernel, out=m)))
    np.minimum.outer(g, g, out=m)
    trace4 = float(np.sum(np.multiply(m, m, out=m)))
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

    Refuses |m| > 2^32/pi.  With u = 2^-53, fl(pi/2 - v) is within u pi of
    pi/2 - v, so the phase m(pi/2 - v) is computed within 2u|m|pi, and m w
    within that bound over N.  The cap keeps both below 2^-20, a hundredth
    of the 1e-4 gate verify puts on the residual; at k = 10^15 the closed
    form gave 69.07 (N = 100), above the pi/2 that bounds any midpoint sum.
    """
    if N < 100:
        raise ValueError("use N >= 100 for a meaningful residual")
    m = 4 * k + 1
    if abs(m) * math.pi > 2**32:
        raise ValueError(f"the residual needs |4k + 1| <= 2^32/pi, not {abs(m)}")
    import numpy as np

    v = grid_midpoints(N)
    span = HALF_PI - v
    width = span / N
    quadrature = width * np.sin(m * span) / (2 * np.sin(m * width / 2))
    return float(np.max(np.abs(quadrature - np.cos(m * v) / m)))
