import itertools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from zigzagsums import polytope_lab
from zigzagsums.euler_sums import s_coeff
from zigzagsums.polytope_lab import (
    BLOCK_ROWS,
    CHUNK_SAMPLES,
    CHUNK_WINDOW,
    McEstimate,
    PartialOrder,
    PolytopeSpec,
    arctangent_check,
    chain_poset,
    contraction_map,
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
                assert spec.contains(v)[0]


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
            if spec.contains(np.array([u]))[0]:
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
                fd = jacobian_fd(u, 1e-6)
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
                u = inverse_map(x, 1e-13, 200)
                back = forward_map(u)
                assert max(abs(a - b) for a, b in zip(back, x)) < 1e-10

    def test_fixed_point_unique_from_any_start(self):
        x = (0.3, 0.7, 0.5)

        def composite(u):
            for xi in reversed(x):
                u = contraction_map(xi, u)
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
        with pytest.raises(RuntimeError):
            inverse_map((0.9999,), 1e-13, 50)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            inverse_map((1.0,))
        with pytest.raises(ValueError):
            inverse_map((0.5, -0.1))


def _chunk_points(seed, index, size, dim):
    """The points of Monte Carlo chunk ``index`` as (rows, dim) arrays, block by block.

    Each block of ``BLOCK_ROWS`` points is one coordinate-major draw of
    (dim, rows) doubles from the chunk's generator.
    """
    rng = polytope_lab._chunk_rng(seed, index)
    for start in range(0, size, BLOCK_ROWS):
        yield rng.random((dim, min(BLOCK_ROWS, size - start))).T


def _cube_integrand_chunk(n, seed, index, size):
    """The cube integrand at the points of Monte Carlo chunk ``index``."""
    t = np.concatenate([points.prod(axis=1) for points in _chunk_points(seed, index, size, n)])
    return 1.0 / (1.0 + (-1.0 if n % 2 == 0 else 1.0) * t * t)


class TestMonteCarlo:
    def test_volume_estimate_quality(self):
        spec = PolytopeSpec("cyclic", 2, "half_pi")
        estimate = mc_volume(spec, 10**5, seed=0)
        exact = math.pi**2 / 8
        assert abs(estimate.mean - exact) <= 4 * estimate.std_error

    def test_deterministic(self):
        spec = PolytopeSpec("chain", 3, "unit")
        assert mc_volume(spec, 70000, seed=3) == mc_volume(spec, 70000, seed=3)

    def test_chunk_protocol(self):
        # estimate must be reproducible from the per-chunk streams alone
        spec = PolytopeSpec("cyclic", 2, "unit")
        samples = CHUNK_SAMPLES + 12345
        estimate = mc_volume(spec, samples, seed=11)
        hits = 0
        for index, size in enumerate((CHUNK_SAMPLES, 12345)):
            for points in _chunk_points(11, index, size, 2):
                hits += int(spec.contains(points).sum())
        assert estimate.mean == pytest.approx(hits / samples, abs=0)

    def test_cube_integral_chunk_protocol(self):
        # a serial fold over whole-chunk draws, chunk by chunk in index order:
        # sums added in turn, squared deviations combined by Chan's update
        n, seed = 3, 5
        sizes = (CHUNK_SAMPLES, CHUNK_SAMPLES, CHUNK_SAMPLES, 4321)
        samples = sum(sizes)
        count, total, deviations = 0, 0.0, 0.0
        for index, size in enumerate(sizes):
            f = _cube_integrand_chunk(n, seed, index, size)
            chunk_sum = float(f.sum())
            chunk_deviations = float(((f - chunk_sum / size) ** 2).sum())
            if count:
                delta = chunk_sum / size - total / count
                deviations += delta * delta * (count * size / (count + size))
            deviations += chunk_deviations
            total += chunk_sum
            count += size
        mean = total / samples
        std_error = math.sqrt(deviations / samples / samples)
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
        # more chunks than one submission window even at 4 workers
        samples = (4 * CHUNK_WINDOW + 5) * CHUNK_SAMPLES + 99
        spec = PolytopeSpec("chain", 3, "half_pi")
        results = []
        for workers in (1, 4):
            monkeypatch.setattr(polytope_lab, "_worker_count", lambda workers=workers: workers)
            results.append((mc_volume(spec, samples, 21), mc_cube_integral(4, samples, 22)))
        assert results[0] == results[1]

    def test_submissions_stay_within_window(self, monkeypatch):
        monkeypatch.setattr(polytope_lab, "_worker_count", lambda: 2)
        window = CHUNK_WINDOW * 2
        started = []
        chunks = 3 * window + 1
        results = polytope_lab._chunk_results(
            lambda index: started.append(index) or index, chunks * CHUNK_SAMPLES
        )
        for expected, index in enumerate(results):
            assert index == expected
            assert max(started) <= index + window
        assert sorted(started) == list(range(chunks))

    def test_failure_cancels_pending_chunks_and_joins_threads(self, monkeypatch):
        monkeypatch.setattr(polytope_lab, "_worker_count", lambda: 2)
        before = threading.active_count()
        started = []

        def work(index):
            started.append(index)
            if index == 1:
                raise RuntimeError("chunk failed")
            return index

        with pytest.raises(RuntimeError, match="chunk failed"):
            sum(polytope_lab._chunk_results(work, 1000 * CHUNK_SAMPLES))
        # chunks 0 and 1 plus at most one window submitted past chunk 1
        assert len(started) <= 2 * CHUNK_WINDOW + 2
        assert threading.active_count() == before

    def test_no_threads_outlive_a_call(self):
        before = threading.active_count()
        mc_volume(PolytopeSpec("cyclic", 3, "unit"), 3 * CHUNK_SAMPLES, seed=4)
        assert threading.active_count() == before

    def test_zero_hits_have_nonzero_std_error(self):
        # the 40-dimensional cyclic polytope fills about 1.5e-8 of its box
        spec = PolytopeSpec("cyclic", 40, "half_pi")
        samples = 10**4
        estimate = mc_volume(spec, samples, seed=0)
        assert estimate.mean == 0.0
        p_tilde = 2 / (samples + 4)
        box = spec.bound**40
        assert estimate.std_error == math.sqrt(p_tilde * (1 - p_tilde) / (samples + 4)) * box
        assert abs(estimate.mean - volume_formula(spec).to_float()) <= 4 * estimate.std_error

    def test_all_hits_have_nonzero_std_error(self):
        spec = PolytopeSpec("chain", 1, "unit")
        estimate = mc_volume(spec, 10**4, seed=0)
        assert estimate.mean == 1.0
        assert estimate.std_error > 0.0

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_volume(PolytopeSpec("cyclic", 2, "unit"), 9999, seed=0)

    def test_cube_integral_estimate(self):
        estimate = mc_cube_integral(2, 10**5, seed=0)
        assert abs(estimate.mean - math.pi**2 / 8) <= 4 * estimate.std_error

    def test_cube_bad_dimension(self):
        with pytest.raises(ValueError):
            mc_cube_integral(1, 10**5, seed=0)

    def test_negative_seed_refused_before_any_chunk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chunk was submitted for a refused seed")

        monkeypatch.setattr(polytope_lab, "_chunk_results", refuse)
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
        inside_cyclic = cyclic.contains(points)
        assert inside_cyclic.any()
        assert chain.contains(points)[inside_cyclic].all()

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", ["cyclic", "chain"])
    def test_mask_independent_of_memory_layout(self, kind, n):
        # the same points stored point-major (a C-ordered (m, n) array) and
        # coordinate-major (the transposed view of a C-ordered (n, m) array)
        spec = PolytopeSpec(kind, n, "half_pi")
        coordinate_major = np.random.default_rng(n).random((n, 4000)) * spec.bound
        point_major = np.ascontiguousarray(coordinate_major.T)
        assert point_major.flags.c_contiguous and not coordinate_major.T.flags.c_contiguous
        mask = spec.contains(point_major)
        assert 0 < np.count_nonzero(mask) < len(mask)
        assert np.array_equal(mask, spec.contains(coordinate_major.T))

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
        assert spec.contains(points).tolist() == expected
        assert spec.contains(points.T.copy().T).tolist() == expected


class TestArctangent:
    def test_quadrature_matches_quarter_pi(self):
        exact, numeric = arctangent_check()
        assert exact.text() == "1/4 · pi"
        assert numeric == pytest.approx(0.7853981634, abs=1e-10)
        assert abs(exact.to_float() - numeric) < 1e-10
