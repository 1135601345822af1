"""Posets, order-polytope volumes, the trigonometric cube map, and Monte Carlo.

Four largely independent volume routes live here:

  * linear-extension counting for the zigzag posets (exact rationals);
  * closed-form volumes from the series coefficients (exact pi multiples);
  * conditional Monte Carlo over a bounding box: each point draws only its
    odd coordinates, and the chance that its even coordinates fall inside
    is integrated out exactly, with deterministic chunked seeding so results
    do not depend on how work is scheduled;
  * the n-cube integral of 1 / (1 +- (x_1...x_n)^2), whose value equals the
    scaled polytope volume via the change of variables x_i = sin u_i / cos u_{i+1}.

The forward map, its Jacobian 1 -+ (x_1...x_n)^2, and the contraction-mapping
inverse are implemented over plain float tuples; Monte Carlo is vectorized
with numpy.  A run of ``samples`` points is cut into chunks of
``CHUNK_SAMPLES``; chunk i draws from numpy's SFC64 bit generator seeded by
``SeedSequence((seed, i))``, in row blocks of ``BLOCK_ROWS`` points, each
block drawn coordinate-major as one (dim, rows) array, so the summand
kernels run on contiguous coordinate rows.  The chunks run on a thread pool
sized to the CPUs the process may use (numpy releases the interpreter lock
while it draws and computes), all handed to one ``Executor.map``, and their
sums and squared deviations are folded in chunk order, so the estimates do
not depend on the thread count.

One run may carry several estimates that share its samples and seed, as
verify's seven do.  Each chunk then draws its first max dim * size doubles
once, max dim * 65536 per worker (1.5 MB at verify's widest, dim 3), and
every estimate copies its blocks from its own prefix of them, so it gets
the numbers it gets alone, bit for bit.  A lone estimate draws its blocks
one at a time and holds no whole-chunk buffer.

numpy is imported inside the functions that build arrays (the Monte Carlo
chunks and summands, ``jacobian_fd`` and ``arctangent_check``), so the
exact routes run without loading it.
"""

from __future__ import annotations

import graphlib
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from .euler_sums import PiMultiple, s_coeff
from .special_numbers import zigzag

if TYPE_CHECKING:
    import numpy as np

    _Summand = Callable[[np.ndarray, np.ndarray], None]

# Fixed Monte Carlo chunk size; chunk i of a run draws from an SFC64
# generator seeded by (seed, i), so estimates are reproducible under any
# scheduling.  Part of the stream definition: changing it changes estimates.
CHUNK_SAMPLES = 65536

# Points a worker draws and evaluates at a time (1 MB of coordinates at
# n = 8).  Part of the stream definition, like CHUNK_SAMPLES: each block is
# one coordinate-major draw of (dim, rows) doubles, so another block size
# puts other numbers in each point and changes the estimates.  Whole
# 65536-row chunks on two workers raised peak memory about 15% over the
# serial loop, because each worker thread's malloc arena keeps the arrays it
# freed; quarter-chunk blocks, drawn into one buffer per chunk, keep it level.
BLOCK_ROWS = 16384

# The placed-set DP visits only the order ideals of the poset; for both
# zigzag posets at n = 22 it takes about 0.3 s.
EXTENSION_LIMIT = 22

HALF_PI = math.pi / 2

# inverse_map's convergence tolerance and iteration cap; jacobian_fd's step.
INVERSE_TOL = 1e-13
INVERSE_MAX_ITER = 200
FD_STEP = 1e-6


@dataclass(frozen=True)
class PartialOrder:
    """A partial order on {1..n} given by cover pairs (i, j) meaning i < j."""

    n: int
    covers: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "covers", frozenset(self.covers))
        if self.n < 1:
            raise ValueError("a partial order needs at least one element")
        sorter = graphlib.TopologicalSorter()
        for i, j in self.covers:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"cover pair ({i}, {j}) out of range 1..{self.n}")
            if i == j:
                raise ValueError(f"reflexive pair ({i}, {j})")
            sorter.add(j, i)
        try:
            sorter.prepare()
        except graphlib.CycleError:
            raise ValueError("cover relations contain a cycle") from None


def chain_poset(n: int) -> PartialOrder:
    """The zigzag order 1 < 2 > 3 < 4 > ... on {1..n}."""
    if n < 1:
        raise ValueError("n must be positive")
    covers = set()
    for i in range(1, n):
        covers.add((i, i + 1) if i % 2 == 1 else (i + 1, i))
    return PartialOrder(n, frozenset(covers))


def cyclic_poset(n: int) -> PartialOrder:
    """The zigzag order with the extra wrap relation 1 < n; requires even n."""
    if n < 2 or n % 2 != 0:
        raise ValueError("the cyclic zigzag order requires even n >= 2")
    covers = set(chain_poset(n).covers)
    covers.add((1, n))
    return PartialOrder(n, frozenset(covers))


def linear_extension_count(poset: PartialOrder) -> int:
    """Number of permutations sigma with sigma(i) < sigma(j) whenever i < j.

    Enumerates extensions by repeatedly placing an element whose
    predecessors are already placed, memoized on the placed-set bitmask.
    """
    if poset.n > EXTENSION_LIMIT:
        raise ValueError(f"extension counting supports n <= {EXTENSION_LIMIT}")
    n = poset.n
    preds = [0] * n
    for i, j in poset.covers:
        preds[j - 1] |= 1 << (i - 1)
    full = (1 << n) - 1
    memo: dict[int, int] = {full: 1}

    def count(placed: int) -> int:
        cached = memo.get(placed)
        if cached is not None:
            return cached
        total = 0
        for e in range(n):
            bit = 1 << e
            if not placed & bit and preds[e] & placed == preds[e]:
                total += count(placed | bit)
        memo[placed] = total
        return total

    return count(0)


def order_polytope_volume(poset: PartialOrder) -> Fraction:
    """Volume of the open order polytope: linear extensions over n factorial."""
    return Fraction(linear_extension_count(poset), math.factorial(poset.n))


@dataclass(frozen=True)
class PolytopeSpec:
    """Which polytope: cyclic (wrap-around constraint) or chain, unit or pi/2 box.

    cyclic/half_pi is the region u_i > 0, u_i + u_{i+1} < pi/2 with cyclic
    indexing, for n >= 2; cyclic/unit is its rescaling by 2/pi; the chain
    variants drop the wrap-around constraint u_n + u_1 and take n >= 1.
    """

    kind: str
    n: int
    scale: str = "half_pi"

    def __post_init__(self) -> None:
        if self.kind not in ("cyclic", "chain"):
            raise ValueError("kind must be 'cyclic' or 'chain'")
        if self.scale not in ("unit", "half_pi"):
            raise ValueError("scale must be 'unit' or 'half_pi'")
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "cyclic" and self.n < 2:
            raise ValueError("the cyclic polytope requires n >= 2")

    @property
    def bound(self) -> float:
        """Box edge: the pairwise constraint bound."""
        return 1.0 if self.scale == "unit" else HALF_PI

    def exact_volume(self, unit_volume: Fraction) -> PiMultiple:
        """The exact volume at this scale, given the exact volume at unit scale."""
        if self.scale == "unit":
            return PiMultiple(unit_volume, 0)
        return PiMultiple(unit_volume / 2**self.n, self.n)


def volume_formula(spec: PolytopeSpec) -> PiMultiple:
    """Exact volume from the series coefficients and zigzag counts.

    At unit scale the cyclic volume is 2^n s_coeff(n) and the chain volume
    A(n)/n!; ``PolytopeSpec.exact_volume`` rescales to the pi/2 box, where
    the cyclic volume is s_coeff(n) pi^n = S(n).
    """
    n = spec.n
    if spec.kind == "cyclic":
        return spec.exact_volume(s_coeff(n) * 2**n)
    return spec.exact_volume(Fraction(zigzag(n), math.factorial(n)))


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate: mean, standard error, and provenance."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def as_json_dict(self) -> dict:
        return asdict(self)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The generator chunk ``index`` of a run seeded ``seed`` draws from."""
    import numpy as np

    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, index))))


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_run(samples: int, seed: int) -> None:
    """Refuse a Monte Carlo run before any chunk is drawn."""
    if samples < 10**4:
        raise ValueError("use at least 10^4 samples")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")


def _chunk_sums(
    estimates: Sequence[tuple[_Summand, int]], seed: int, samples: int, index: int
) -> tuple[int, list[tuple[float, float]]]:
    """Size of chunk ``index`` and, per (summand, dim) estimate, its sum and sum of squares about its mean.

    Every estimate reads the chunk's uniform [0,1) points in coordinate-major
    (dim, rows) blocks of ``BLOCK_ROWS`` points, each the next dim * rows
    doubles of the chunk's stream, so an estimate reads the first
    dim * size doubles whatever else shares the chunk.  A lone estimate
    draws its blocks one at a time; several draw the widest one's doubles
    once and copy each block from them.  ``summand(block, out)`` writes the
    summand at each column of a block into ``out`` and may overwrite the
    block.
    """
    import numpy as np

    size = min(CHUNK_SAMPLES, samples - index * CHUNK_SAMPLES)
    rng = _chunk_rng(seed, index)
    widest = max(dim for _, dim in estimates)
    stream = rng.random(widest * size) if len(estimates) > 1 else None
    buffer = np.empty(widest * min(BLOCK_ROWS, size))
    f = np.empty(size)
    sums = []
    for summand, dim in estimates:
        for start in range(0, size, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, size - start)
            block = buffer[: dim * rows].reshape(dim, rows)
            if stream is None:
                rng.random(out=block)
            else:
                np.copyto(block, stream[dim * start : dim * (start + rows)].reshape(dim, rows))
            summand(block, f[start : start + rows])
        # Summing the whole chunk at once keeps numpy's pairwise summation order.
        total = float(f.sum())
        f -= total / size
        f *= f
        sums.append((total, float(f.sum())))
    return size, sums


def _mc_means(
    estimates: Sequence[tuple[_Summand, int]], samples: int, seed: int
) -> list[tuple[float, float]]:
    """Per (summand, dim) estimate, the mean of ``summand`` over a run of uniform points in (0,1)^dim, and its standard error.

    The estimates share the run's chunks (see ``_chunk_sums``), so each
    gets the numbers it would get alone.  One ``Executor.map`` runs every
    chunk and yields the results in chunk order; it cancels the chunks not
    yet started if one raises or the loop is interrupted, and the ``with``
    block joins the workers.  Each variance is folded from per-chunk
    squared deviations by Chan's pairwise update, in chunk order, so a
    summand whose spread lies below double resolution of its mean still
    reports its uncertainty.
    """
    from concurrent.futures import ThreadPoolExecutor

    # The workers' chunks import numpy; a first import finished here, before
    # the pool starts, leaves them nothing to race for.
    import numpy  # noqa: F401

    chunks = -(-samples // CHUNK_SAMPLES)
    work = partial(_chunk_sums, estimates, seed, samples)
    count = 0
    totals = [0.0] * len(estimates)
    deviations = [0.0] * len(estimates)
    with ThreadPoolExecutor(max_workers=min(_worker_count(), chunks)) as pool:
        for size, sums in pool.map(work, range(chunks)):
            for i, (chunk_sum, chunk_deviations) in enumerate(sums):
                if count:
                    delta = chunk_sum / size - totals[i] / count
                    deviations[i] += delta * delta * (count * size / (count + size))
                deviations[i] += chunk_deviations
                totals[i] += chunk_sum
            count += size
    return [(total / samples, math.sqrt(dev / samples / samples)) for total, dev in zip(totals, deviations)]


def _volume_summand(spec: PolytopeSpec, odd: np.ndarray, out: np.ndarray) -> None:
    """The chance that a point's even coordinates put it inside ``spec``, given its odd ones.

    ``odd`` holds the unit-scale coordinates x_1, x_3, ... of each point,
    one row each; it is overwritten.  Given them, the even coordinates are
    independent, and x_j lies inside with chance 1 - max(x_{j-1}, x_{j+1}),
    or 1 - x_{n-1} at the open end of a chain.  An odd cyclic n also needs
    x_n + x_1 < 1.  Each factor is formed as min(1 - x_{j-1}, 1 - x_{j+1}),
    the same double: 1 - x is exact for the multiples of 2^-53 that
    ``Generator.random`` draws.
    """
    import numpy as np

    n = spec.n
    if n == 1:
        out.fill(1.0)
        return
    cyclic = spec.kind == "cyclic"
    last = len(odd) - 1
    z = np.subtract(1.0, odd, out=odd)
    for k in range(n // 2):
        # the factor of x_{2k+2}; a row of z is free once its left factor is made
        right = z[k + 1] if k < last else z[0] if cyclic else z[k]
        if k == 0:
            np.minimum(z[0], right, out=out)
        else:
            out *= np.minimum(z[k], right, out=z[k])
    if cyclic and n % 2:
        # [x_n + x_1 < 1] as x_n < 1 - x_1, exact like the factors
        x_n = np.subtract(1.0, z[last], out=z[last])
        out *= np.less(x_n, z[0], out=x_n)


def mc_volume(spec: PolytopeSpec, samples: int, seed: int) -> McEstimate:
    """Conditional Monte Carlo volume over the bounding box (0, bound)^n.

    Each point draws only its odd coordinates, ceil(n/2) of them, and
    contributes the exact chance that uniform even coordinates put it inside
    the polytope: the product over even j of 1 - max(x_{j-1}, x_{j+1}) at
    unit scale.  This integrates every second variable out of the indicator:
    the kernel of T^2 is pi/2 - max(u, w), so for even cyclic n the paper's
    Vol = tr(T^n) = tr((T^2)^(n/2)) is the integral of this product over
    the odd coordinates.  The estimate is bound^n times the mean summand,
    and its standard error the sample one.  By Rao-Blackwell the summand's
    variance never exceeds the indicator's, so the standard error is at
    most the binomial one at the same sample count (1.5 to 2.7 times smaller
    for n = 2..8), with half the draws.  A chain of dimension 1 has no even
    coordinate, so its estimate is exact, with standard error 0.

    Deterministic for fixed (seed, samples) regardless of scheduling, by the
    fixed chunked seeding.
    """
    return _mc_estimates((spec,), (), samples, seed)[0]


def _cube_summand(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """1 / (1 -+ (x_1...x_n)^2) at each column of ``x``, multiplied left to right."""
    import numpy as np

    np.multiply(x[0], x[1], out=out)
    for row in x[2:]:
        out *= row
    out *= out
    if n % 2 == 0:
        np.subtract(1.0, out, out=out)
    else:
        out += 1.0
    np.divide(1.0, out, out=out)


def _cube_summand_2(s: np.ndarray, out: np.ndarray) -> None:
    """The n = 2 integrand after x_i = 1 - s_i^2: 4 s_1 s_2 / (1 - x_1^2 x_2^2).

    1 - x_1 x_2 is formed as s_1^2 + s_2^2 - (s_1 s_2)^2, free of
    cancellation, and 1 + x_1 x_2 as 2 minus it.  The result is at most 4,
    where 1 / (1 - x_1^2 x_2^2) has infinite variance; only s_1 = s_2 = 0,
    a draw of chance 2^-106, would give 0/0.  ``s`` is overwritten.
    """
    import numpy as np

    s1, s2 = s
    np.multiply(s1, s2, out=out)
    s1 *= s1
    s2 *= s2
    s1 += s2
    np.multiply(out, out, out=s2)
    s1 -= s2
    np.subtract(2.0, s1, out=s2)
    s2 *= s1
    out *= 4.0
    out /= s2


def mc_cube_integral(n: int, samples: int, seed: int) -> McEstimate:
    """Mean-of-integrand estimate of the n-cube integral equal to S(n).

    For n = 2 both coordinates are substituted, x_i = 1 - s_i^2 with weight
    4 s_1 s_2, which bounds the integrand by 4; for n >= 3 the plain
    integrand already has finite variance, and the substitution would raise
    it.  The standard error is the sample one, folded as in ``mc_volume``.
    """
    return _mc_estimates((), (n,), samples, seed)[0]


def _mc_estimates(
    volumes: Sequence[PolytopeSpec], cubes: Sequence[int], samples: int, seed: int
) -> list[McEstimate]:
    """``mc_volume`` of each spec in ``volumes``, then ``mc_cube_integral`` of each n in ``cubes``, from one run.

    The estimates share the run's samples and seed, so each chunk's stream
    is drawn once for all of them (``_chunk_sums``), and each estimate is
    the one it would be alone, bit for bit.  The run is refused before any
    chunk is drawn.
    """
    if any(n < 2 for n in cubes):
        raise ValueError("the cube integral route requires n >= 2")
    _check_run(samples, seed)
    estimates = [(partial(_volume_summand, spec), (spec.n + 1) // 2) for spec in volumes]
    estimates += [(_cube_summand_2 if n == 2 else partial(_cube_summand, n), n) for n in cubes]
    # the cube integral's box is the unit cube; a product by 1.0 is exact
    scales = [spec.bound**spec.n for spec in volumes] + [1.0] * len(cubes)
    return [
        McEstimate(mean * scale, std_error * scale, samples, seed)
        for (mean, std_error), scale in zip(_mc_means(estimates, samples, seed), scales)
    ]


def forward_map(u: Sequence[float]) -> tuple[float, ...]:
    """x_i = sin(u_i) / cos(u_{i+1}) with cyclic indexing; maps into (0,1)^n.

    The input must lie strictly inside the open region u_i > 0,
    u_i + u_{i+1} < pi/2 (cyclically); anything else raises.
    """
    if len(u) < 1:
        raise ValueError("empty point")
    sin, cos = math.sin, math.cos
    x = []
    for a, b in zip(u, (*u[1:], u[0])):
        if not (a > 0.0 and a + b < HALF_PI):
            raise ValueError("point is not strictly inside the open polytope")
        x.append(sin(a) / cos(b))
    return tuple(x)


def jacobian_formula(x: Sequence[float]) -> float:
    """Jacobian determinant at image point x: 1 - (prod x)^2 for even n, 1 + for odd.

    Exact on ``Fraction`` coordinates, which give a ``Fraction``; a float
    point gives the same double as ``1.0 -+ t * t``.
    """
    t = math.prod(x)
    return 1 - t * t if len(x) % 2 == 0 else 1 + t * t


def jacobian_fd(u: Sequence[float]) -> float:
    """Central-difference Jacobian determinant of the forward map at u, step ``FD_STEP``."""
    import numpy as np

    n = len(u)
    jac = np.empty((n, n))
    step = 2.0 * FD_STEP
    for j in range(n):
        up = list(u)
        down = list(u)
        up[j] += FD_STEP
        down[j] -= FD_STEP
        jac[:, j] = [(a - b) / step for a, b in zip(forward_map(up), forward_map(down))]
    return float(np.linalg.det(jac))


def inverse_map(x: Sequence[float]) -> tuple[float, ...]:
    """The unique preimage of x in (0,1)^n under the forward map.

    Starting from u_1 = pi/4, iterates the composite f_{x_1} o ... o f_{x_n}
    of the contractions f_x(u) = arcsin(x cos u) of (0, pi/2) until
    successive iterates differ by less than ``INVERSE_TOL``, then back-substitutes
    u_i = f_{x_i}(u_{i+1}).  The composite is a strict contraction, but its
    rate approaches 1 near the corner (1,...,1), so slow inputs raise
    instead of returning a silently unconverged point.
    """
    n = len(x)
    if n < 1:
        raise ValueError("empty point")
    for xi in x:
        if not 0.0 < xi < 1.0:
            raise ValueError("all coordinates must lie in the open interval (0, 1)")
    # f_x inlined, with the math functions bound locally
    asin, cos = math.asin, math.cos
    backward = tuple(reversed(x))
    u1 = math.pi / 4
    for _ in range(INVERSE_MAX_ITER):
        nxt = u1
        for xi in backward:
            nxt = asin(xi * cos(nxt))
        if abs(nxt - u1) < INVERSE_TOL:
            u1 = nxt
            break
        u1 = nxt
    else:
        raise RuntimeError(
            f"fixed-point iteration did not converge in {INVERSE_MAX_ITER} iterations "
            "(contraction rate approaches 1 near the all-ones corner)"
        )
    u = [0.0] * n
    u[0] = u1
    nxt = u1
    for i in range(n - 1, 0, -1):
        nxt = asin(x[i] * cos(nxt))
        u[i] = nxt
    return tuple(u)


def arctangent_check() -> tuple[PiMultiple, float]:
    """The n = 1 case: S(1) = pi/4 exactly, and a quadrature of the arctangent integral.

    Returns the exact pi multiple and a 64-node Gauss-Legendre evaluation of
    the integral of 1/(1+x^2) over (0,1); the two agree to well under 1e-10.
    """
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(64)
    xs = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    numeric = float(np.sum(ws / (1.0 + xs * xs)))
    return PiMultiple(Fraction(1, 4), 1), numeric
