import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from zigzagsums import polytope_lab
from zigzagsums.euler_sums import s_coeff
from zigzagsums.polytope_lab import (
    BLOCK_ROWS,
    CHUNK_SAMPLES,
    McEstimate,
    PartialOrder,
    PolytopeSpec,
    arctangent_check,
    chain_poset,
    cyclic_poset,
    forward_map,
    inverse_map,
    jacobian_fd,
    jacobian_formula,
    linear_extension_count,
    mc_cube_integral,
    mc_volume,
    order_polytope_volume,
    volume_formula,
)
from zigzagsums.special_numbers import cyclic_zigzag, zigzag


def _contains(spec, points):
    """Oracle: open-region membership of spec's polytope for an (m, n) array of points.

    Boundary points count as outside.
    """
    u = np.asarray(points, dtype=float)
    pairs = u + np.roll(u, -1, axis=1)
    if spec.kind == "chain":
        pairs = pairs[:, :-1]
    return (u > 0.0).all(axis=1) & (pairs < spec.bound).all(axis=1)


def _contraction_map(x, u):
    """Oracle: the basic contraction f_x(u) = arcsin(x cos u) on (0, pi/2), for 0 < x < 1."""
    return math.asin(x * math.cos(u))


class TestPosets:
    def test_chain_three(self):
        assert chain_poset(3).covers == frozenset({(1, 2), (3, 2)})

    def test_cyclic_two_collapses(self):
        assert cyclic_poset(2).covers == frozenset({(1, 2)})

    def test_cyclic_four(self):
        assert cyclic_poset(4).covers == frozenset({(1, 2), (3, 2), (3, 4), (1, 4)})

    def test_cyclic_odd_rejected(self):
        with pytest.raises(ValueError):
            cyclic_poset(5)

    def test_cycle_detection(self):
        with pytest.raises(ValueError, match="^cover relations contain a cycle$"):
            PartialOrder(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        with pytest.raises(ValueError, match="^cover relations contain a cycle$"):
            PartialOrder(2, frozenset({(1, 2), (2, 1)}))

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError, match=r"^cover pair \(1, 3\) out of range 1\.\.2$"):
            PartialOrder(2, frozenset({(1, 3)}))

    def test_reflexive_pair_reported_before_cycle(self):
        with pytest.raises(ValueError, match=r"^reflexive pair \(2, 2\)$"):
            PartialOrder(3, frozenset({(2, 2)}))
        # a reflexive pair is also a cycle of length 1; the pair check wins
        with pytest.raises(ValueError, match=r"^reflexive pair \(3, 3\)$"):
            PartialOrder(3, frozenset({(1, 2), (2, 1), (3, 3)}))

    def test_acyclic_iff_some_order_respects_covers(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 5)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            covers = frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))
            ordered = any(
                all(rank.index(i) < rank.index(j) for i, j in covers)
                for rank in itertools.permutations(range(1, n + 1))
            )
            if ordered:
                assert PartialOrder(n, covers).covers == covers
            else:
                with pytest.raises(ValueError, match="cycle"):
                    PartialOrder(n, covers)


class TestLinearExtensions:
    def test_counts(self):
        assert linear_extension_count(chain_poset(3)) == 2
        assert linear_extension_count(cyclic_poset(4)) == 4
        assert linear_extension_count(PartialOrder(3, frozenset())) == 6

    def test_bound(self):
        with pytest.raises(ValueError):
            linear_extension_count(chain_poset(polytope_lab.EXTENSION_LIMIT + 1))

    def test_chain_counts_equal_zigzag_counts_through_the_limit(self):
        assert polytope_lab.EXTENSION_LIMIT == 22
        for n in range(1, polytope_lab.EXTENSION_LIMIT + 1):
            assert linear_extension_count(chain_poset(n)) == zigzag(n), n

    def test_cyclic_counts_equal_cyclic_zigzag_counts_through_the_limit(self):
        for n in range(2, polytope_lab.EXTENSION_LIMIT + 1, 2):
            assert linear_extension_count(cyclic_poset(n)) == cyclic_zigzag(n), n

    def test_volumes(self):
        assert order_polytope_volume(chain_poset(2)) == Fraction(1, 2)
        assert order_polytope_volume(cyclic_poset(6)) == Fraction(1, 15)
        assert order_polytope_volume(PartialOrder(2, frozenset())) == 1


class TestVolumeFormula:
    def test_cyclic_half_pi(self):
        value = volume_formula(PolytopeSpec("cyclic", 2, "half_pi"))
        assert (value.coeff, value.power) == (Fraction(1, 8), 2)

    def test_cyclic_unit(self):
        # 2^4 * (1/96) = 1/6, which also equals A0(4)/4! = 4/24
        value = volume_formula(PolytopeSpec("cyclic", 4, "unit"))
        assert (value.coeff, value.power) == (Fraction(1, 6), 0)

    def test_chain_unit(self):
        value = volume_formula(PolytopeSpec("chain", 3, "unit"))
        assert (value.coeff, value.power) == (Fraction(1, 3), 0)

    def test_chain_half_pi(self):
        value = volume_formula(PolytopeSpec("chain", 2, "half_pi"))
        assert (value.coeff, value.power) == (Fraction(1, 8), 2)

    def test_cyclic_low_dimension_rejected(self):
        # the spec itself refuses, so no route sees a 1-dimensional cyclic polytope
        for scale in ("unit", "half_pi"):
            with pytest.raises(ValueError, match="the cyclic polytope requires n >= 2"):
                PolytopeSpec("cyclic", 1, scale)
        assert PolytopeSpec("chain", 1).n == 1

    def test_three_routes_agree_cyclic(self):
        from zigzagsums.special_numbers import cyclic_zigzag

        for n in range(2, 9, 2):
            by_extensions = order_polytope_volume(cyclic_poset(n))
            by_formula = volume_formula(PolytopeSpec("cyclic", n, "unit")).coeff
            by_counts = Fraction(cyclic_zigzag(n), math.factorial(n))
            assert by_extensions == by_formula == by_counts == 2**n * s_coeff(n)

    def test_routes_agree_chain(self):
        for n in range(1, 9):
            assert order_polytope_volume(chain_poset(n)) == Fraction(
                zigzag(n), math.factorial(n)
            )

    def test_chain_contains_cyclic(self):
        # equal in dimension 2 (the wrap constraint duplicates), strict above
        assert volume_formula(PolytopeSpec("chain", 2, "unit")).coeff == 2**2 * s_coeff(2)
        for n in range(4, 11, 2):
            chain = volume_formula(PolytopeSpec("chain", n, "unit")).coeff
            cyclic = volume_formula(PolytopeSpec("cyclic", n, "unit")).coeff
            assert chain > cyclic


def _t_to_v(t):
    """Flip the even (1-based) coordinates: v_i = t_i for odd i, 1 - t_i for even i."""
    return tuple(x if i % 2 == 0 else 1.0 - x for i, x in enumerate(t))


class TestTtoV:
    def test_membership_transfer(self):
        # hand case: t satisfying t1 < t2 > t3 maps into the pairwise region
        v = _t_to_v((0.1, 0.8, 0.3))
        assert v == (0.1, pytest.approx(0.2), 0.3)
        assert v[0] + v[1] < 1 and v[1] + v[2] < 1
        # transfer holds pointwise for sampled alternating-chain points
        rng = random.Random(6)
        spec = PolytopeSpec("chain", 4, "unit")
        found = 0
        while found < 50:
            t = tuple(rng.random() for _ in range(4))
            if t[0] < t[1] > t[2] < t[3]:
                found += 1
                v = np.array([_t_to_v(t)])
                assert _contains(spec, v)[0]


class TestForwardMap:
    def test_two_dimensional_point(self):
        x = forward_map((math.pi / 6, math.pi / 6))
        expected = math.sin(math.pi / 6) / math.cos(math.pi / 6)  # 1/sqrt(3)
        assert x == (pytest.approx(expected), pytest.approx(expected))
        assert expected == pytest.approx(1 / math.sqrt(3))

    def test_one_dimensional_is_tangent(self):
        assert forward_map((math.pi / 8,))[0] == pytest.approx(math.tan(math.pi / 8))

    def test_image_in_unit_cube(self):
        rng = random.Random(11)
        spec = PolytopeSpec("cyclic", 3, "half_pi")
        found = 0
        while found < 100:
            u = tuple(rng.uniform(0, math.pi / 2) for _ in range(3))
            if _contains(spec, np.array([u]))[0]:
                found += 1
                assert all(0 < xi < 1 for xi in forward_map(u))

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            forward_map((1.0, 1.0))  # pairwise sum exceeds pi/2
        with pytest.raises(ValueError):
            forward_map((0.0, 0.1))  # boundary


class TestJacobian:
    def test_formula_cases(self):
        x = 1 / math.sqrt(3)
        assert jacobian_formula((x, x)) == pytest.approx(8 / 9, abs=1e-15)
        assert jacobian_formula((0.0, 0.0, 0.0)) == 1.0
        t = 0.4
        assert jacobian_formula((t,)) == pytest.approx(1 + t * t)

    def test_formula_exact_on_fractions(self):
        even = jacobian_formula((Fraction(1, 2), Fraction(2, 3)))
        odd = jacobian_formula((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
        assert type(even) is Fraction and even == Fraction(8, 9)
        assert type(odd) is Fraction and odd == Fraction(17, 16)

    def test_formula_float_bits_unchanged(self):
        rng = random.Random(5)
        for n in range(1, 9):
            for _ in range(200):
                x = tuple(rng.random() for _ in range(n))
                t = math.prod(x)
                old = 1.0 - t * t if n % 2 == 0 else 1.0 + t * t
                assert jacobian_formula(x).hex() == old.hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_finite_difference_matches(self, n):
        rng = random.Random(21)
        spec = PolytopeSpec("cyclic", n, "half_pi") if n > 1 else None
        margin = 1e-3
        found = 0
        while found < 30:
            u = tuple(rng.uniform(margin, math.pi / 2 - margin) for _ in range(n))
            if all(u[i] + u[(i + 1) % n] < math.pi / 2 - margin for i in range(n)):
                found += 1
                formula = jacobian_formula(forward_map(u))
                fd = jacobian_fd(u)
                assert abs(fd - formula) / abs(formula) < 1e-5


class TestInverseMap:
    def test_inverts_the_example(self):
        x = 1 / math.sqrt(3)
        u = inverse_map((x, x))
        assert u[0] == pytest.approx(math.pi / 6, abs=1e-12)
        assert u[1] == pytest.approx(math.pi / 6, abs=1e-12)

    def test_one_dimensional_is_arctangent(self):
        x = math.tan(math.pi / 8)
        assert inverse_map((x,))[0] == pytest.approx(math.pi / 8, abs=1e-13)
        assert inverse_map((0.41421356,))[0] == pytest.approx(
            math.atan(0.41421356), abs=1e-13
        )

    def test_round_trip(self):
        rng = random.Random(31)
        for n in (1, 2, 3, 5):
            for _ in range(20):
                x = tuple(rng.uniform(0.02, 0.9) for _ in range(n))
                u = inverse_map(x)
                back = forward_map(u)
                assert max(abs(a - b) for a, b in zip(back, x)) < 1e-10

    def test_fixed_point_unique_from_any_start(self):
        x = (0.3, 0.7, 0.5)

        def composite(u):
            for xi in reversed(x):
                u = _contraction_map(xi, u)
            return u

        results = []
        for start in (0.1, 1.2):
            u = start
            for _ in range(300):
                u = composite(u)
            results.append(u)
        assert abs(results[0] - results[1]) < 1e-13
        assert abs(results[0] - inverse_map(x)[0]) < 1e-12

    def test_slow_corner_raises(self):
        with pytest.raises(RuntimeError, match="did not converge in 200 iterations"):
            inverse_map((0.9999,))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            inverse_map((1.0,))
        with pytest.raises(ValueError):
            inverse_map((0.5, -0.1))


def _forward_reference(u):
    """The forward map, one indexed coordinate at a time."""
    n = len(u)
    for i in range(n):
        if not (u[i] > 0.0 and u[i] + u[(i + 1) % n] < math.pi / 2):
            raise ValueError("point is not strictly inside the open polytope")
    return tuple(math.sin(u[i]) / math.cos(u[(i + 1) % n]) for i in range(n))


def _jacobian_fd_reference(u, h=1e-6):
    """The central-difference Jacobian, filled entry by entry."""
    n = len(u)
    jac = np.empty((n, n))
    for j in range(n):
        up = list(u)
        down = list(u)
        up[j] += h
        down[j] -= h
        fu = _forward_reference(up)
        fd = _forward_reference(down)
        for i in range(n):
            jac[i, j] = (fu[i] - fd[i]) / (2.0 * h)
    return float(np.linalg.det(jac))


def _inverse_reference(x, tol=1e-13, max_iter=200):
    """The fixed-point inverse, composed from _contraction_map."""
    u1 = math.pi / 4
    for _ in range(max_iter):
        nxt = u1
        for xi in reversed(x):
            nxt = _contraction_map(xi, nxt)
        if abs(nxt - u1) < tol:
            u1 = nxt
            break
        u1 = nxt
    u = [0.0] * len(x)
    u[0] = u1
    nxt = u1
    for i in range(len(x) - 1, 0, -1):
        nxt = _contraction_map(x[i], nxt)
        u[i] = nxt
    return tuple(u)


class TestScalarKernels:
    def test_same_bits_as_the_indexed_formulas(self):
        rng = random.Random(41)
        for _ in range(1000):
            n = rng.randint(1, 8)
            x = tuple(rng.uniform(0.05, 0.9) for _ in range(n))
            u = inverse_map(x)
            assert u == _inverse_reference(x)
            assert forward_map(u) == _forward_reference(u)
            assert jacobian_fd(u) == _jacobian_fd_reference(u)

    def test_outside_perturbation_raises_like_the_reference(self):
        # the upward step leaves the polytope: both raise the same error
        u = (0.5, math.pi / 2 - 0.5 - 1e-7)
        for f in (jacobian_fd, _jacobian_fd_reference):
            with pytest.raises(ValueError, match="^point is not strictly inside"):
                f(u)


def _chunk_points(seed, index, size, dim):
    """The points of Monte Carlo chunk ``index`` as (rows, dim) arrays, block by block.

    Each block of ``BLOCK_ROWS`` points is one coordinate-major draw of
    (dim, rows) doubles from the chunk's generator.
    """
    rng = polytope_lab._chunk_rng(seed, index)
    for start in range(0, size, BLOCK_ROWS):
        yield rng.random((dim, min(BLOCK_ROWS, size - start))).T


def _cube_integrand_chunk(n, seed, index, size):
    """The cube integrand at the points of Monte Carlo chunk ``index``.

    For n = 2 the points are s with x_i = 1 - s_i^2, and 1 - x_1 x_2 is
    s_1^2 + s_2^2 - (s_1 s_2)^2.
    """
    points = np.concatenate(list(_chunk_points(seed, index, size, n)))
    if n == 2:
        s1, s2 = points.T
        p = s1 * s2
        d = s1 * s1 + s2 * s2 - p * p
        return 4.0 * p / ((2.0 - d) * d)
    t = points.prod(axis=1)
    return 1.0 / (1.0 + (-1.0 if n % 2 == 0 else 1.0) * t * t)


def _volume_summand_chunk(spec, seed, index, size):
    """The conditional volume summand at the points of Monte Carlo chunk ``index``.

    A point draws its odd coordinates x_1, x_3, ... (unit scale); the summand
    is the product over even j of 1 - max(x_{j-1}, x_{j+1}), where x_{n+1}
    is x_1 for a cyclic polytope and absent for a chain, times [x_n + x_1 < 1]
    for odd cyclic n.
    """
    n = spec.n
    points = np.concatenate(list(_chunk_points(seed, index, size, (n + 1) // 2)))
    x = {2 * k + 1: points[:, k] for k in range(points.shape[1])}
    if spec.kind == "cyclic":
        x[n + 1] = x[1]
    f = np.ones(size)
    for j in range(2, n + 1, 2):
        f = f * (1.0 - (np.maximum(x[j - 1], x[j + 1]) if j + 1 in x else x[j - 1]))
    if spec.kind == "cyclic" and n % 2:
        f = f * (x[n] + x[1] < 1.0)
    return f


def _chan_fold(chunks):
    """Mean and standard error of per-chunk values, folded serially in chunk order.

    Chunk sums are added in turn and squared deviations about each chunk's
    mean combined by Chan's update.
    """
    count, total, deviations = 0, 0.0, 0.0
    for f in chunks:
        size = len(f)
        chunk_sum = float(f.sum())
        chunk_deviations = float(((f - chunk_sum / size) ** 2).sum())
        if count:
            delta = chunk_sum / size - total / count
            deviations += delta * delta * (count * size / (count + size))
        deviations += chunk_deviations
        total += chunk_sum
        count += size
    return total / count, math.sqrt(deviations / count / count)


class TestMonteCarlo:
    def test_volume_estimate_quality(self):
        spec = PolytopeSpec("cyclic", 2, "half_pi")
        estimate = mc_volume(spec, 10**5, seed=0)
        exact = math.pi**2 / 8
        assert abs(estimate.mean - exact) <= 4 * estimate.std_error

    def test_deterministic(self):
        spec = PolytopeSpec("chain", 3, "unit")
        assert mc_volume(spec, 70000, seed=3) == mc_volume(spec, 70000, seed=3)

    def test_first_call_of_a_fresh_process_matches(self):
        # The run below makes the process's first numpy import; its estimate
        # must equal a warm call's.
        spec = PolytopeSpec("cyclic", 5, "unit")
        samples = 3 * CHUNK_SAMPLES + 100
        script = (
            "import json, sys\n"
            "from zigzagsums.polytope_lab import PolytopeSpec, mc_volume\n"
            "assert 'numpy' not in sys.modules\n"
            f"estimate = mc_volume({spec!r}, {samples}, seed=9)\n"
            "print(json.dumps(estimate.as_json_dict()))\n"
        )
        env = dict(os.environ)
        src = str(Path(polytope_lab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, encoding="utf-8", timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == mc_volume(spec, samples, seed=9).as_json_dict()

    @pytest.mark.parametrize(
        "kind,n,scale",
        [("cyclic", 2, "unit"), ("cyclic", 5, "half_pi"), ("cyclic", 6, "half_pi"),
         ("chain", 1, "unit"), ("chain", 4, "half_pi"), ("chain", 7, "unit")],
    )
    def test_chunk_protocol(self, kind, n, scale):
        # estimate must be reproducible from the per-chunk streams alone
        spec = PolytopeSpec(kind, n, scale)
        sizes = (CHUNK_SAMPLES, 12345)
        samples = sum(sizes)
        mean, std_error = _chan_fold(
            _volume_summand_chunk(spec, 11, index, size) for index, size in enumerate(sizes)
        )
        box = spec.bound**n
        expected = McEstimate(mean * box, std_error * box, samples, 11)
        assert mc_volume(spec, samples, seed=11) == expected

    def test_cube_integral_chunk_protocol(self):
        # a serial fold over whole-chunk draws, chunk by chunk in index order
        for n, seed in ((2, 4), (3, 5)):
            sizes = (CHUNK_SAMPLES, CHUNK_SAMPLES, CHUNK_SAMPLES, 4321)
            samples = sum(sizes)
            mean, std_error = _chan_fold(
                _cube_integrand_chunk(n, seed, index, size) for index, size in enumerate(sizes)
            )
            assert mc_cube_integral(n, samples, seed) == McEstimate(mean, std_error, samples, seed)

    def test_cube_integral_matches_two_pass_reference(self):
        n, seed = 2, 8
        sizes = (CHUNK_SAMPLES, CHUNK_SAMPLES, 777)
        samples = sum(sizes)
        values = np.concatenate(
            [_cube_integrand_chunk(n, seed, index, size) for index, size in enumerate(sizes)]
        ).tolist()
        mean = math.fsum(values) / samples
        variance = math.fsum((f - mean) ** 2 for f in values) / samples
        estimate = mc_cube_integral(n, samples, seed)
        assert estimate.mean == pytest.approx(mean, rel=1e-14)
        assert estimate.std_error == pytest.approx(math.sqrt(variance / samples), rel=1e-12)

    def test_cube_integral_spread_below_resolution_has_nonzero_std_error(self):
        # at n = 32 most points give the integrand exactly 1.0; about 0.5% of
        # them exceed it by a few ulps, which a one-pass variance loses
        estimate = mc_cube_integral(32, 10**4, seed=0)
        assert estimate.std_error > 0.0

    def test_estimates_independent_of_worker_count(self, monkeypatch):
        # 22 chunks, the last one partial: several rounds of work for 4 workers
        samples = 21 * CHUNK_SAMPLES + 99
        results = []
        for workers in (1, 4):
            monkeypatch.setattr(polytope_lab, "_worker_count", lambda workers=workers: workers)
            results.append((
                mc_volume(PolytopeSpec("chain", 3, "half_pi"), samples, 21),
                mc_volume(PolytopeSpec("cyclic", 5, "unit"), samples, 23),
                mc_cube_integral(4, samples, 22),
                mc_cube_integral(2, samples, 24),
            ))
        assert results[0] == results[1]

    def test_failure_cancels_pending_chunks_and_joins_threads(self, monkeypatch):
        monkeypatch.setattr(polytope_lab, "_worker_count", lambda: 2)
        real = polytope_lab._chunk_sums

        def chunk_sums(estimates, seed, samples, index):
            if index == 1:
                raise RuntimeError("chunk failed")
            return real(estimates, seed, samples, index)

        monkeypatch.setattr(polytope_lab, "_chunk_sums", chunk_sums)
        samples = 1000 * CHUNK_SAMPLES
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            mc_volume(PolytopeSpec("cyclic", 3, "unit"), samples, seed=0)
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="chunk failed"):
            mc_cube_integral(3, samples, seed=0)
        assert threading.active_count() == before

    def test_no_threads_outlive_a_call(self):
        before = threading.active_count()
        mc_volume(PolytopeSpec("cyclic", 3, "unit"), 3 * CHUNK_SAMPLES, seed=4)
        assert threading.active_count() == before

    def test_chain_of_dimension_one_is_exact(self):
        # no even coordinate: every summand is 1
        for scale in ("unit", "half_pi"):
            spec = PolytopeSpec("chain", 1, scale)
            estimate = mc_volume(spec, 10**4, seed=0)
            assert estimate.mean == spec.bound
            assert estimate.std_error == 0.0

    def test_tiny_volume_has_positive_mean_and_std_error(self):
        # the 40-dimensional cyclic polytope fills about 1.5e-8 of its box,
        # where an indicator estimate at 10^4 samples would see no hit
        spec = PolytopeSpec("cyclic", 40, "half_pi")
        estimate = mc_volume(spec, 10**4, seed=0)
        assert estimate.mean > 0.0
        assert estimate.std_error > 0.0
        assert abs(estimate.mean - volume_formula(spec).to_float()) <= 4 * estimate.std_error

    @pytest.mark.parametrize(
        "kind,n", [("cyclic", n) for n in range(2, 9)] + [("chain", n) for n in range(3, 9)]
    )
    def test_agrees_with_indicator_estimate(self, kind, n):
        # an independent indicator estimate built on _contains, on another stream
        spec = PolytopeSpec(kind, n, "half_pi")
        samples = 10**5
        conditional = mc_volume(spec, samples, seed=n)
        points = np.random.default_rng((17, n)).random((samples, n)) * spec.bound
        box = spec.bound**n
        p = np.count_nonzero(_contains(spec, points)) / samples
        indicator_std_error = math.sqrt(p * (1.0 - p) / samples) * box
        combined = math.hypot(conditional.std_error, indicator_std_error)
        assert abs(conditional.mean - p * box) <= 5 * combined

    @pytest.mark.parametrize(
        "kind,n", [("cyclic", n) for n in range(2, 9)] + [("chain", n) for n in range(1, 9)]
    )
    def test_std_error_at_most_binomial(self, kind, n):
        # Rao-Blackwell: integrating the even coordinates out never adds variance
        spec = PolytopeSpec(kind, n, "half_pi")
        samples = 10**5
        estimate = mc_volume(spec, samples, seed=3)
        box = spec.bound**n
        p = volume_formula(spec).to_float() / box
        assert estimate.std_error <= math.sqrt(p * (1.0 - p) / samples) * box

    def test_cyclic_32_within_four_sigma(self):
        spec = PolytopeSpec("cyclic", 32, "half_pi")
        estimate = mc_volume(spec, 10**6, seed=0)
        assert abs(estimate.mean - volume_formula(spec).to_float()) <= 4 * estimate.std_error

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_volume(PolytopeSpec("cyclic", 2, "unit"), 9999, seed=0)

    def test_cube_integral_estimate(self):
        estimate = mc_cube_integral(2, 10**5, seed=0)
        assert abs(estimate.mean - math.pi**2 / 8) <= 4 * estimate.std_error

    def test_cube_two_summand_is_the_substituted_integrand(self):
        # away from the corner no cancellation hides in 1 - x_1 x_2
        s = np.random.default_rng(3).uniform(0.1, 1.0, (2, 1000))
        x = 1.0 - s * s
        plain = 4.0 * s[0] * s[1] / (1.0 - (x[0] * x[1]) ** 2)
        summand = np.empty(1000)
        polytope_lab._cube_summand_2(s.copy(), summand)
        np.testing.assert_allclose(summand, plain, rtol=1e-12)

    def test_cube_two_summand_bounded_and_std_error_stable(self):
        # the substituted n = 2 integrand is at most 4, so its variance is
        # finite and the reported std error barely moves between seeds
        top = np.nextafter(1.0, 0.0)
        corner = np.array([[top, top, 0.5, top], [top, 0.5, top, 2.0**-53]])
        summand = np.empty(4)
        polytope_lab._cube_summand_2(corner, summand)
        assert summand.max() <= 4.0
        for index in range(4):
            assert _cube_integrand_chunk(2, 6, index, CHUNK_SAMPLES).max() <= 4.0
        errors = [mc_cube_integral(2, 10**6, seed).std_error for seed in range(20)]
        assert max(errors) <= 1.01 * min(errors)

    def test_cube_bad_dimension(self):
        with pytest.raises(ValueError):
            mc_cube_integral(1, 10**5, seed=0)

    def test_negative_seed_refused_before_any_chunk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chunk was submitted for a refused seed")

        monkeypatch.setattr(polytope_lab, "_chunk_sums", refuse)
        with pytest.raises(ValueError, match="^seed must be nonnegative, not -1$"):
            mc_volume(PolytopeSpec("cyclic", 2), 10**4, seed=-1)
        with pytest.raises(ValueError, match="^seed must be nonnegative, not -1$"):
            mc_cube_integral(2, 10**4, seed=-1)

    def test_estimate_serialization(self):
        estimate = McEstimate(1.5, 0.1, 10000, 7)
        assert estimate.as_json_dict() == {
            "mean": 1.5,
            "std_error": 0.1,
            "samples": 10000,
            "seed": 7,
        }


class TestContainment:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cyclic_points_satisfy_chain_constraints(self, n):
        cyclic = PolytopeSpec("cyclic", n, "unit")
        chain = PolytopeSpec("chain", n, "unit")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((99, n))))
        points = rng.random((20000, n))
        inside_cyclic = _contains(cyclic, points)
        assert inside_cyclic.any()
        assert _contains(chain, points)[inside_cyclic].all()

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", ["cyclic", "chain"])
    def test_mask_independent_of_memory_layout(self, kind, n):
        # the same points stored point-major (a C-ordered (m, n) array) and
        # coordinate-major (the transposed view of a C-ordered (n, m) array)
        spec = PolytopeSpec(kind, n, "half_pi")
        coordinate_major = np.random.default_rng(n).random((n, 4000)) * spec.bound
        point_major = np.ascontiguousarray(coordinate_major.T)
        assert point_major.flags.c_contiguous and not coordinate_major.T.flags.c_contiguous
        mask = _contains(spec, point_major)
        assert 0 < np.count_nonzero(mask) < len(mask)
        assert np.array_equal(mask, _contains(spec, coordinate_major.T))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", ["cyclic", "chain"])
    def test_boundary_points_are_outside(self, kind, n):
        spec = PolytopeSpec(kind, n, "half_pi")
        half = spec.bound / 2  # half + half == bound exactly
        below = np.nextafter(half, 0.0)  # below + below is the float under bound

        def point(*coords):
            u = [0.1] * n
            for i, value in coords:
                u[i] = value
            return u

        cases = [
            (point(), True),
            (point((0, 0.0)), False),
            (point((0, np.nextafter(0.0, 1.0))), True),
            (point((n - 1, 0.0)), False),
            (point((0, half), (1, half)), False),
            (point((0, below), (1, below)), True),
            # the wrap-around pair u_n + u_1 binds only the cyclic polytope
            (point((0, half), (n - 1, half)), kind == "chain" and n > 2),
        ]
        points = np.array([u for u, _ in cases])
        expected = [inside for _, inside in cases]
        assert _contains(spec, points).tolist() == expected
        assert _contains(spec, points.T.copy().T).tolist() == expected


class TestArctangent:
    def test_quadrature_matches_quarter_pi(self):
        exact, numeric = arctangent_check()
        assert exact.text() == "1/4 · pi"
        assert numeric == pytest.approx(0.7853981634, abs=1e-10)
        assert abs(exact.to_float() - numeric) < 1e-10
