"""The four benchmark workloads: seeded inputs, a timed body, and output checks.

Each ``build_<workload>(seed, tiny)`` returns ``(body, check)``.  ``body()``
makes every call into the package and is the only part that is timed; it
catches each operation's exception so one failing call does not stop the
rest.  ``check(outputs)`` runs untimed afterwards and returns one ``Outcome``
per operation.  The package is reached through ``zigzagsums`` attributes at
call time, so functions wrapped by the tracer or by an injected fault are
the ones called.

References are the benchmark's own wherever the workload is not itself a
route-agreement check: closed-form S(2..4), the eigenvalues 1/(4k+1), the
zigzag convolution recurrence, and the verify-all golden captured at the
seed commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import zigzagsums as zz
from zigzagsums import cli

GOLDEN = Path(__file__).resolve().parent / "verify_golden.json"


# Monte Carlo gates sit at 6 standard errors: a correct estimator misses one
# with probability 2.0e-9 (two-sided normal tail), 3.6e-8 per mc-geometry child
# of 18 estimates.
MC_SIGMAS = 6


@dataclass
class Outcome:
    op: str
    status: str  # "ok", "raised" or "wrong"
    detail: str = ""


def _attempt(fn, *args):
    """(value, None) or (None, exception) for one operation."""
    try:
        return fn(*args), None
    except Exception as exc:  # each op is a unit of failure; the check records it
        return None, exc


def _outcome(op: str, result, ok) -> Outcome:
    value, exc = result
    if exc is not None:
        return Outcome(op, "raised", f"{type(exc).__name__}: {exc}")
    try:
        passed = bool(ok(value))
    except Exception as exc:  # a malformed output is a wrong output
        return Outcome(op, "wrong", f"check raised {type(exc).__name__}: {exc}")
    return Outcome(op, "ok" if passed else "wrong", "" if passed else repr(value)[:200])


def known_defect(workload: str, outcome: "Outcome") -> bool:
    """True for a failure the seed commit is known to have.

    Known failures still count as failed ops; they only leave the run
    ``correct``.  Any other raise or wrong value makes the run incorrect.
    """
    kind, _, arg = outcome.op.partition(".")
    if workload == "exact-deep":
        # PiMultiple.to_float computes float(coeff) * pi**n, and pi**n overflows for n >= 620.
        return kind == "to_float" and int(arg) >= 620 and outcome.detail.startswith("OverflowError")
    if workload == "spectral-sweep":
        # At N = 3000, 1042 cells on the boundary i + j + 1 = N round to inside the open triangle.
        return kind == "boundary" and arg == "3000" and outcome.status == "wrong"
    return False


# ---------------------------------------------------------------- verify-all


def _same_as_golden(check: dict, golden: dict) -> bool:
    """Byte-for-byte equality, except the last bits of LAPACK-derived values.

    The golden was captured with 2 OpenBLAS threads.  With 1 thread, 7 of the
    15 spectral checks report an ``actual`` that differs by at most 3e-15
    relative; LAPACK results depend on thread count and CPU kernel.
    """
    if json.dumps(check) == json.dumps(golden):
        return True
    if not check["id"].startswith("spectral.") or {**check, "actual": golden["actual"]} != golden:
        return False
    try:
        actual, wanted = float(check["actual"]), float(golden["actual"])
    except ValueError:
        return False
    return abs(actual - wanted) <= 1e-12 * max(1.0, abs(wanted))


def build_verify_all(seed: int, tiny: bool):
    """``zigzagsums verify all --json`` in process; each report check is one op."""
    suite = "numeric" if tiny else "all"
    argv = ["verify", suite, "--json", "--seed", str(seed)]
    golden = {c["id"]: c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    if tiny:
        golden = {k: v for k, v in golden.items() if k.startswith("numeric.")}
    mc_expected = 0 if tiny else 7

    def body():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            result = _attempt(cli.main, argv)
        return result, buffer.getvalue()

    def check(outputs):
        # Exit code 1 (a failed check) still prints the report, which is compared;
        # with no report at all, every op counts as raised.
        (code, exc), stdout = outputs
        try:
            checks = json.loads(stdout)["checks"] if exc is None else []
        except (ValueError, KeyError):
            checks = []
        missing_status = "wrong" if checks else "raised"
        detail = f"exit code {code}" if exc is None else f"{type(exc).__name__}: {exc}"
        reported = {c["id"]: c for c in checks}
        outcomes = []
        for op, expected in golden.items():
            if op not in reported:
                outcomes.append(Outcome(op, missing_status, f"missing from the report ({detail})"))
            else:
                same = _same_as_golden(reported[op], expected)
                outcomes.append(Outcome(op, "ok" if same else "wrong", "" if same else "differs from golden"))
        montecarlo = [c for c in checks if c["id"].startswith("montecarlo.")]
        for c in montecarlo:
            outcomes.append(Outcome(c["id"], "ok" if c["status"] == "pass" else "wrong", c["actual"]))
        for missing in range(len(montecarlo), mc_expected):
            outcomes.append(Outcome(f"montecarlo.missing.{missing}", missing_status, detail))
        for op in reported.keys() - golden.keys():
            if not op.startswith("montecarlo."):
                outcomes.append(Outcome(op, "wrong", "not in the golden"))
        return outcomes

    return body, check


# ---------------------------------------------------------------- exact-deep


def build_exact_deep(seed: int, tiny: bool):
    """A shuffled batch of large-n exact queries; no brute force."""
    even_max, zigzag_max, operator_ns, float_ns = (
        (40, 200, (4, 8), (100, 700)) if tiny else (400, 1500, (8, 16, 24, 32, 40), range(50, 1001, 50))
    )
    ops = [("bernoulli_route", n) for n in range(2, even_max + 1, 2)]
    ops += [("cyclic_bernoulli", n) for n in range(2, even_max + 1, 2)]
    ops += [("zigzag", n) for n in range(100, zigzag_max + 1, 100)]
    ops += [("operator", n) for n in operator_ns]
    ops += [("to_float", n) for n in float_ns]
    random.Random(seed).shuffle(ops)

    calls = {
        "bernoulli_route": lambda n: (zz.s_coeff(n), zz.s_coeff_via_bernoulli(n)),
        "cyclic_bernoulli": lambda n: (zz.cyclic_zigzag(n), zz.bernoulli(n)),
        "zigzag": lambda n: zz.zigzag(n),
        "operator": lambda n: zz.inner_product_one(n),
        "to_float": lambda n: (zz.s_value(n).to_float(), zz.s_numeric(n, 1000)),
    }

    def body():
        return [_attempt(calls[kind], n) for kind, n in ops]

    def zigzag_ok(n, value):
        # 2 A(n) = sum_k C(n-1, k) A(k) A(n-1-k), over the package's own lower
        # terms; the sum is symmetric in k <-> n-1-k, so half of it is summed.
        lower = [zz.zigzag(k) for k in range(n)]
        m = n - 1
        half = sum(math.comb(m, k) * lower[k] * lower[m - k] for k in range((m + 1) // 2))
        middle = math.comb(m, m // 2) * lower[m // 2] ** 2 if m % 2 == 0 else 0
        return 2 * value == 2 * half + middle

    def operator_ok(n, value):
        coeff = Fraction(zz.zigzag(n), math.factorial(n) * 2**n)
        return value.terms == ((n, coeff),)

    def float_ok(value):
        approx, (numeric, tail) = value
        return abs(approx - numeric) <= tail + 1e-9

    checks = {
        "bernoulli_route": lambda n, v: v[0] == v[1],
        "cyclic_bernoulli": lambda n, v: v[0] == 2 ** (n - 1) * (2**n - 1) * abs(v[1]),
        "zigzag": zigzag_ok,
        "operator": operator_ok,
        "to_float": lambda n, v: float_ok(v),
    }

    def check(outputs):
        return [
            _outcome(f"{kind}.{n}", result, lambda v, kind=kind, n=n: checks[kind](n, v))
            for (kind, n), result in zip(ops, outputs)
        ]

    return body, check


# ---------------------------------------------------------------- spectral-sweep

S_EXACT = {2: math.pi**2 / 8, 3: math.pi**3 / 32, 4: math.pi**4 / 96}


def _eigenvalue(rank: int) -> float:
    k = (rank + 1) // 2 * (1 if rank % 2 == 0 else -1)
    return 1.0 / (4 * k + 1)


def build_spectral_sweep(seed: int, tiny: bool):
    """Dense Nystrom assembly, eigen-solve, power traces and residuals over grids."""
    # Grids run in ascending order: the order moves peak RSS (255 MB when 1000
    # precedes 3000, 277 MB when 2000 does), which would only widen the spread.
    grids = [400, 500] if tiny else [1000, 2000, 3000]
    rng = random.Random(seed)
    modes = [rng.choice((0, -1, 1)) for _ in grids]

    def assemble_and_solve(N):
        # The matrix is dropped here, as a caller would; only a summary is kept.
        matrix = zz.nystrom_matrix(N)
        entries = matrix.entries
        summary = (matrix.N, float(entries[0, 0]), float(entries[-1, -1]), int(np.count_nonzero(entries)))
        return summary, zz.sym_eigenvalues(matrix, 5)

    def body():
        outputs = []
        for N, k in zip(grids, modes):
            value, exc = _attempt(assemble_and_solve, N)
            for kind, part in (("nystrom", 0), ("boundary", 0), ("eigenvalues", 1)):
                outputs.append((kind, N, (value and value[part], exc)))
            for n in (2, 3, 4):
                outputs.append((f"trace{n}", N, _attempt(zz.trace_power_nystrom, N, n)))
            outputs.append((f"residual{k}", N, _attempt(zz.eigenfunction_residual, k, N)))
        return outputs

    def ok(kind: str, N: int, value) -> bool:
        if kind == "nystrom":
            size, first, last, _ = value
            return size == N and first == math.pi / 2 / N and last == 0.0
        if kind == "boundary":
            # The open triangle i + j + 1 < N has N(N-1)/2 cells; boundary cells count as 0.
            return value[3] == N * (N - 1) // 2
        if kind == "eigenvalues":
            return len(value) == 5 and all(
                abs(v - _eigenvalue(r)) <= 0.01 * abs(_eigenvalue(r)) for r, v in enumerate(value)
            )
        if kind.startswith("trace"):
            exact = S_EXACT[int(kind[5:])]
            return abs(value - exact) <= 0.01 * exact
        return 0.0 <= value < 1e-4

    def check(outputs):
        return [_outcome(f"{kind}.{N}", result, lambda v, kind=kind, N=N: ok(kind, N, v)) for kind, N, result in outputs]

    return body, check


# ---------------------------------------------------------------- mc-geometry


def build_mc_geometry(seed: int, tiny: bool):
    """Vectorised Monte Carlo volumes and cube integrals, plus scalar map round trips."""
    rng = random.Random(seed)
    samples = 20_000 if tiny else 2_000_000
    estimates = [("volume", "cyclic", n) for n in range(2, 4 if tiny else 9)]
    estimates += [("volume", "chain", n) for n in range(3, 4 if tiny else 9)]
    estimates += [("cube", "cyclic", n) for n in range(2, 3 if tiny else 7)]
    estimates = [(what, kind, n, rng.randrange(2**32)) for what, kind, n in estimates]
    round_trips, jacobians = (50, 20) if tiny else (10_000, 2_000)
    # Coordinates stay in [0.05, 0.95]: inverse_map raises by design near the
    # all-ones corner, where its contraction rate approaches 1 (7 of 20000
    # uniform points in (0, 1)^n raise; none of 100000 in this box).
    points = []
    for _ in range(round_trips):
        n = rng.randint(2, 8)
        points.append(tuple(rng.uniform(0.05, 0.95) for _ in range(n)))

    def estimate(what, kind, n, mc_seed):
        if what == "volume":
            spec = zz.PolytopeSpec(kind, n, "half_pi")
            return zz.mc_volume(spec, samples, mc_seed), zz.volume_formula(spec).to_float()
        return zz.mc_cube_integral(n, samples, mc_seed), zz.s_value(n).to_float()

    def round_trip(x, with_jacobian):
        u = zz.inverse_map(x)
        image = zz.forward_map(u)
        if not with_jacobian:
            return image, None
        return image, (zz.jacobian_fd(u), zz.jacobian_formula(x))

    def body():
        mc = [_attempt(estimate, *case) for case in estimates]
        maps = [_attempt(round_trip, x, i < jacobians) for i, x in enumerate(points)]
        return mc, maps

    def estimate_ok(value):
        est, exact = value
        return abs(est.mean - exact) <= MC_SIGMAS * est.std_error and est.samples == samples

    def check(outputs):
        mc, maps = outputs
        outcomes = [
            _outcome(f"{what}.{kind}.{n}", result, estimate_ok) for (what, kind, n, _), result in zip(estimates, mc)
        ]
        for i, (x, result) in enumerate(zip(points, maps)):
            outcomes.append(
                _outcome(f"round_trip.{i}", result, lambda v, x=x: max(abs(a - b) for a, b in zip(v[0], x)) <= 1e-9)
            )
            if i < jacobians:
                outcomes.append(_outcome(f"jacobian.{i}", result, lambda v: abs(v[1][0] - v[1][1]) <= 1e-6))
        return outcomes

    return body, check


WORKLOADS = {
    "verify-all": build_verify_all,
    "exact-deep": build_exact_deep,
    "spectral-sweep": build_spectral_sweep,
    "mc-geometry": build_mc_geometry,
}
