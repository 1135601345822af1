import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import exact_oracle
import numpy as np
import pytest

from zigzagsums import report, special_numbers
from zigzagsums.special_numbers import (
    ENUMERATION_LIMIT,
    SequenceCache,
    _frontier_leaves,
    _leaf_checks,
    _leaf_counts,
    bernoulli,
    cyclic_zigzag,
    cyclic_zigzag_bruteforce,
    euler_number,
    power_sum,
    zigzag,
    zigzag_bruteforce,
)

BERNOULLI_EVEN = {0: Fraction(1), 2: Fraction(1, 6), 4: Fraction(-1, 30),
                  6: Fraction(1, 42), 8: Fraction(-1, 30), 10: Fraction(5, 66)}

ZIGZAG = {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 61, 7: 272, 8: 1385, 9: 7936, 10: 50521}

CYCLIC = {2: 1, 4: 4, 6: 48, 8: 1088, 10: 39680}


def is_alternating(perm):
    """Oracle: True iff sigma(1) < sigma(2) > sigma(3) < sigma(4) > ..."""
    for i in range(len(perm) - 1):
        if i % 2 == 0:
            if perm[i] >= perm[i + 1]:
                return False
        elif perm[i] <= perm[i + 1]:
            return False
    return True


def is_cyclically_alternating(perm):
    """Oracle: alternating, of even positive length, and sigma(n) > sigma(1).

    The wrap condition closes the chain sigma(1) < sigma(2) > ... < sigma(n) > sigma(1).
    """
    n = len(perm)
    return n > 0 and n % 2 == 0 and is_alternating(perm) and perm[-1] > perm[0]


class TestBernoulli:
    @pytest.mark.parametrize("n,expected", sorted(BERNOULLI_EVEN.items()))
    def test_even_table(self, n, expected):
        assert bernoulli(n) == expected

    def test_conventions(self):
        assert bernoulli(1) == Fraction(-1, 2)
        assert all(bernoulli(n) == 0 for n in range(3, 25, 2))

    def test_sign_alternation(self):
        for m in range(1, 21):
            assert (-1) ** (m - 1) * bernoulli(2 * m) > 0

    def test_negative_index(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


@pytest.fixture
def fresh_cache(monkeypatch):
    """A new, empty SequenceCache installed as the module's shared cache."""
    cache = SequenceCache()
    monkeypatch.setattr(special_numbers, "_CACHE", cache)
    return cache


class TestBernoulliFromZeta:
    ORACLE = exact_oracle.bernoulli_numbers(300)

    def test_fresh_cache_matches_oracle(self, fresh_cache):
        assert bernoulli(300) == self.ORACLE[300]
        assert [bernoulli(n) for n in range(301)] == self.ORACLE

    def test_cache_grown_in_steps_matches_oracle(self, fresh_cache):
        for n in (0, 1, 2, 3, 7, 8, 50, 51, 120, 119, 300, 200):
            assert bernoulli(n) == self.ORACLE[n]
        assert [bernoulli(n) for n in range(301)] == self.ORACLE

    def test_von_staudt_clausen(self):
        # B_n + sum of 1/p over the primes p with (p - 1) | n is an integer.
        # Every even n <= 300, then every 24th up to the cap's n = 2062
        # (multiples of 24 have many such p); all of them take about 2 s.
        primes = special_numbers._primes_to(2063)
        for n in [*range(2, 301, 2), *range(312, 2062, 24), 2062]:
            fractional = sum(Fraction(1, p) for p in primes if n % (p - 1) == 0)
            assert (bernoulli(n) + fractional).denominator == 1, n

    def test_cyclic_identity_at_1000(self):
        # reads the zigzag route: A0(n) = 2^(n-1) (2^n - 1) |B_n|
        assert cyclic_zigzag(1000) == 2**999 * (2**1000 - 1) * abs(bernoulli(1000))

    @pytest.mark.parametrize("guard", [0, 2])
    def test_starved_guard_raises(self, fresh_cache, monkeypatch, guard):
        monkeypatch.setattr(special_numbers, "_GUARD_BITS", guard)
        for n in (2, 4, 20, 60, 300, 1000):
            with pytest.raises(RuntimeError, match="does not certify an integer"):
                bernoulli(n)
            with pytest.raises(RuntimeError, match="does not certify an integer"):
                euler_number(n)
        assert fresh_cache.bernoulli.keys() == {0, 1} and fresh_cache.euler.keys() == {0}


class TestLValueKernel:
    def test_machin_pi_against_decimal(self, fresh_cache):
        # pi to 1300 digits by the decimal module's documented series
        with localcontext() as ctx:
            ctx.prec = 1300
            three = Decimal(3)
            lasts, t, total, n, na, d, da = 0, three, 3, 1, 0, 0, 24
            while total != lasts:
                lasts = total
                n, na = n + na, na + 8
                d, da = d + da, da + 32
                t = (t * n) / d
                total += t
            for bits in (64, 100, 1000, 4000, 300):
                assert abs(Decimal(special_numbers._machin_pi(bits)) - total * 2**bits) < 3

    def test_machin_pi_cache_grows_geometrically(self, fresh_cache):
        special_numbers._machin_pi(100)
        assert fresh_cache.pi[0] == 100
        special_numbers._machin_pi(150)
        assert fresh_cache.pi[0] == 200
        special_numbers._machin_pi(90)
        assert fresh_cache.pi[0] == 200

    @pytest.mark.parametrize("s,chi4,value", [
        (2, False, math.pi**2 / 6), (4, False, math.pi**4 / 90), (3, True, math.pi**3 / 32),
    ])
    def test_euler_product_within_its_tail(self, s, chi4, value):
        # one rounding per prime below 2^-50 each, and a tail below P^(1-s) / (s - 1)
        limit = 1000
        product = special_numbers._euler_product(s, chi4, 60, limit) / 2**60
        assert abs(product / value - 1) <= limit ** (1 - s) / (s - 1) + 1e-12
        assert product <= value or chi4


class TestPowerSum:
    def test_literal_examples(self):
        # oracle: literal summation
        assert power_sum(10, 2).direct == sum(k**2 for k in range(1, 11)) == 385
        assert power_sum(1, 0).direct == 1
        assert power_sum(5, 3).direct == sum(k**3 for k in range(1, 6)) == 225

    def test_bernoulli_route_matches_direct(self):
        for N in range(1, 21):
            for p in range(11):
                result = power_sum(N, p)
                assert result.via_bernoulli == result.direct, (N, p)


class TestZigzag:
    @pytest.mark.parametrize("n,expected", sorted(ZIGZAG.items()))
    def test_table(self, n, expected):
        assert zigzag(n) == expected

    def test_empty_case(self):
        assert zigzag(0) == 1

    def test_bruteforce_examples(self):
        assert zigzag_bruteforce(1) == 1
        assert zigzag_bruteforce(3) == 2
        assert zigzag_bruteforce(8) == 1385

    def test_bruteforce_agrees(self):
        for n in range(1, 9):
            assert zigzag_bruteforce(n) == zigzag(n)

    def test_bruteforce_bound(self):
        with pytest.raises(ValueError):
            zigzag_bruteforce(11)
        with pytest.raises(ValueError):
            zigzag_bruteforce(0)

    def test_fresh_cache_matches_shared(self, monkeypatch):
        shared = [zigzag(n) for n in range(12)], [bernoulli(n) for n in range(12)]
        monkeypatch.setattr(special_numbers, "_CACHE", SequenceCache())
        assert ([zigzag(n) for n in range(12)], [bernoulli(n) for n in range(12)]) == shared


class TestCyclicZigzag:
    @pytest.mark.parametrize("n,expected", sorted(CYCLIC.items()))
    def test_table(self, n, expected):
        assert cyclic_zigzag(n) == expected

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            cyclic_zigzag(5)

    def test_bruteforce_examples(self):
        assert cyclic_zigzag_bruteforce(2) == 1
        assert cyclic_zigzag_bruteforce(4) == 4
        assert cyclic_zigzag_bruteforce(8) == 1088

    def test_bruteforce_agrees(self):
        for n in (2, 4, 6, 8):
            assert cyclic_zigzag_bruteforce(n) == cyclic_zigzag(n)

    def test_bruteforce_bounds(self):
        with pytest.raises(ValueError):
            cyclic_zigzag_bruteforce(3)
        with pytest.raises(ValueError):
            cyclic_zigzag_bruteforce(12)

    def test_bernoulli_identity(self):
        # A0(n) = 2^(n-1) (2^n - 1) |B_n| for even n
        for n in range(2, 17, 2):
            assert cyclic_zigzag(n) == 2 ** (n - 1) * (2**n - 1) * abs(bernoulli(n))


def _full_walk(n, predicate):
    """Oracle: the literal n! walk over itertools.permutations."""
    return [p for p in itertools.permutations(range(1, n + 1)) if predicate(p)]


class TestPrunedSearch:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_matches_full_walk(self, n):
        assert zigzag_bruteforce(n) == len(_full_walk(n, is_alternating))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_cyclic_count_matches_full_walk(self, n):
        assert cyclic_zigzag_bruteforce(n) == len(_full_walk(n, is_cyclically_alternating))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_leaves_are_each_alternating_permutation_once(self, n):
        rows = _frontier_leaves(n)
        leaves = [tuple(int(v) for v in row) for row in rows]
        assert len(leaves) == len(set(leaves))
        assert set(leaves) == set(_full_walk(n, is_alternating))
        assert all(is_alternating(p) for p in leaves)
        _, cyclic = _leaf_checks(rows)
        cyclic_leaves = [p for p, keep in zip(leaves, cyclic) if keep]
        assert set(cyclic_leaves) == set(_full_walk(n, is_cyclically_alternating))


def _masked_frontier_leaves(n):
    """Reference for ``_frontier_leaves``: each step tests every value against every prefix.

    An R x n mask of the values each prefix may take next: not yet used (an
    int32 bitmask per prefix) and keeping the step rising at odd positions,
    falling at even ones.  np.nonzero reads it prefix by prefix, values
    ascending, so the rows come out in lexicographic order.
    """
    values = np.arange(1, n + 1, dtype=np.int8)
    bits = np.left_shift(1, values, dtype=np.int32)
    rows = values[:, None]
    used = bits
    for k in range(1, n):
        last = rows[:, -1:]
        step = values > last if k % 2 else values < last
        prefix, value = np.nonzero(step & ((used[:, None] & bits) == 0))
        rows = np.column_stack((rows[prefix], values[value]))
        used = used[prefix] | bits[value]
    return rows


class TestFrontierTable:
    @pytest.mark.parametrize("n", range(1, ENUMERATION_LIMIT + 1))
    def test_leaves_equal_masked_reference(self, n):
        # the same rows in the same order, int8
        leaves, reference = _frontier_leaves(n), _masked_frontier_leaves(n)
        assert leaves.dtype == reference.dtype == np.int8
        np.testing.assert_array_equal(leaves, reference)


def _is_permutation(row):
    return sorted(row) == list(range(1, len(row) + 1))


class TestLeafChecks:
    """The vectorised leaf predicate on rows the frontier never emits."""

    @staticmethod
    def _rows(n):
        rows = list(itertools.permutations(range(1, n + 1)))
        if n >= 2:
            rows.append((1,) * n)  # repeated value
            rows.append((1, 3) * (n // 2) + (1,) * (n % 2))  # alternating, but repeats
        rows.append(tuple(range(2, n + 2)))  # n + 1 lies outside 1..n
        rows.append((0,) + tuple(range(2, n + 1)))  # 0 lies outside 1..n
        return rows

    @pytest.mark.parametrize("n", range(1, 8))
    def test_agrees_with_scalar_predicates(self, n):
        rows = self._rows(n)
        alternating, cyclic = _leaf_checks(np.array(rows, dtype=np.int8))
        for row, alt, cyc in zip(rows, alternating, cyclic):
            assert bool(alt) == (_is_permutation(row) and is_alternating(row)), row
            assert bool(cyc) == (_is_permutation(row) and is_cyclically_alternating(row)), row


class _Refused:
    """Stands in for the sequence cache: any use of it means a recurrence was read."""

    def __getattr__(self, name):
        raise AssertionError(f"the brute force read the sequence cache ({name})")


class TestBruteForceIndependence:
    def test_cold_search_needs_no_recurrence(self, monkeypatch):
        def refuse(n):
            raise AssertionError("the brute force called a recurrence")

        monkeypatch.setattr(special_numbers, "zigzag", refuse)
        monkeypatch.setattr(special_numbers, "bernoulli", refuse)
        monkeypatch.setattr(special_numbers, "_CACHE", _Refused())
        _leaf_counts.cache_clear()
        tables = {name: values for name, _, _, values in report.TABLES}
        assert {n: zigzag_bruteforce(n) for n in range(1, 11)} == tables["zigzag"]
        assert {n: cyclic_zigzag_bruteforce(n) for n in range(2, 11, 2)} == tables["cyclic_zigzag"]


class TestEulerNumbers:
    def test_table(self):
        assert [euler_number(n) for n in (0, 2, 4, 6, 8)] == [1, -1, 5, -61, 1385]

    def test_equal_signed_zigzag_counts(self, fresh_cache):
        for n in [*range(0, 301, 2), 1000]:
            assert euler_number(n) == (-1) ** (n // 2) * zigzag(n), n

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            euler_number(3)


class TestPredicates:
    def test_alternating(self):
        assert is_alternating((1, 3, 2))
        assert not is_alternating((2, 1))
        assert is_alternating((1,))

    def test_cyclic_chain_by_hand(self):
        # 1 < 4 > 2 < 3 and sigma(4) = 3 > sigma(1) = 1: the full chain holds
        assert is_cyclically_alternating((1, 4, 2, 3))
        assert not is_cyclically_alternating((3, 4, 1, 2))  # wrap fails: 2 < 3
        assert not is_cyclically_alternating((1, 3, 2))  # odd length

    def test_cyclic_count_matches_predicate(self):
        count = sum(
            1
            for p in itertools.permutations(range(1, 5))
            if is_cyclically_alternating(p)
        )
        assert count == 4


class TestRotation:
    @pytest.mark.parametrize("n", [4, 6])
    def test_orbits(self, n):
        cyclics = [
            p
            for p in itertools.permutations(range(1, n + 1))
            if is_cyclically_alternating(p)
        ]
        assert len(cyclics) == cyclic_zigzag(n)
        for p in cyclics:
            # rotations by an even offset: (sigma(2j+1), sigma(2j+2), ..., sigma(2j))
            orbit = {p[2 * j :] + p[: 2 * j] for j in range(n // 2)}
            assert len(orbit) == n // 2
            assert all(is_cyclically_alternating(q) for q in orbit)
            assert sum(1 for q in orbit if q[-1] == n) == 1
