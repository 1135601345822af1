"""In-memory span tracing of the zigzagsums public functions, installed from outside.

The tracer replaces each traced function with a wrapper in every loaded
``zigzagsums`` module namespace that binds it, so calls made through
``from .x import y`` bindings in ``report`` and ``cli`` are traced as well as
calls through the defining module.  Each call records a span (name, start,
end, parent span index); spans stay in memory until ``layer_metrics`` turns
them into self times, call counts, failure counts and work counters.

Per-element helpers (``is_alternating`` runs about 7.7M times in ``verify
all``) are deliberately left unwrapped: a wrapper there would measure the
tracer, not the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "special_numbers",
    "euler_sums",
    "exact_arith",
    "spectral_operator",
    "polytope_lab",
    "report",
    "cli",
)

# Public functions called once per element of a loop, never wrapped.
PER_ELEMENT = {
    "special_numbers.is_alternating",
    "special_numbers.is_cyclically_alternating",
    "spectral_operator.k1",
    "spectral_operator.fourier_coeff_const",
    "polytope_lab.contraction_map",
    "polytope_lab.cube_integrand",
}

# Methods traced in addition to the module-level functions.
METHODS = (
    ("euler_sums", "PiMultiple", "to_float"),
    ("exact_arith", "VPiPoly", "integral_to_reflection"),
    ("report", "VerificationReport", "to_json"),
)


def _matmuls(power: int) -> int:
    """Matrix products numpy.linalg.matrix_power spends on a positive power."""
    return power.bit_length() - 1 + bin(power).count("1") - 1


def _trace_work(N: int, n: int) -> dict:
    a = n // 2
    products = _matmuls(a) + (_matmuls(n - a) if n - a != a else 0)
    return {"flop": products * 2 * N**3 + 2 * N**2, "bytes": (products + 1) * 8 * N**2}


# Work done by one call, as a model computed from the call's arguments.
# The dense spectral kernels count floating-point operations and the bytes
# of the N x N float64 arrays they materialise; Monte Carlo counts samples.
WORK = {
    "spectral_operator.nystrom_matrix": lambda a: {"flop": 2 * a["N"] ** 2, "bytes": 9 * a["N"] ** 2},
    "spectral_operator.sym_eigenvalues": lambda a: {
        "flop": 4 * a["matrix"].N ** 3 // 3,
        "bytes": 8 * a["matrix"].N ** 2,
    },
    "spectral_operator.trace_power_nystrom": lambda a: _trace_work(a["N"], a["n"]),
    "spectral_operator.eigenfunction_residual": lambda a: {"flop": 3 * a["N"] ** 2, "bytes": 16 * a["N"] ** 2},
    "polytope_lab.mc_volume": lambda a: {"samples": a["samples"]},
    "polytope_lab.mc_cube_integral": lambda a: {"samples": a["samples"]},
}

SPECTRAL_KERNELS = tuple(k for k in WORK if k.startswith("spectral_operator."))
MC_KERNELS = ("polytope_lab.mc_volume", "polytope_lab.mc_cube_integral")


def rebind(original, replacement) -> None:
    """Replace ``original`` in every loaded zigzagsums module namespace that binds it."""
    for name, module in list(sys.modules.items()):
        if name == "zigzagsums" or name.startswith("zigzagsums."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    """Records one span per call of each wrapped function while ``enabled``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.failed: Counter = Counter()
        self.work: Counter = Counter()
        self.enabled = True

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in WORK else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.work.update(WORK[name](bound.arguments))
            if name == "report.run_suite":
                self.work.update(checks=len(result.checks), retried=int(result.metadata["montecarlo_retried"]))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a zigzagsums module binds it."""
        for short in MODULES:
            module = sys.modules[f"zigzagsums.{short}"]
            for attr, value in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in PER_ELEMENT
                ):
                    rebind(value, self.wrap(name, value))
        for short, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"zigzagsums.{short}"], cls_name)
            setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", getattr(cls, method)))

    def self_times(self) -> tuple[dict, Counter]:
        """Self seconds and call count per span name."""
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            name, start, end, parent = span
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return self_s, calls

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, for one workload run."""
        self_s, calls = self.self_times()
        metrics = {}
        for name in (
            "special_numbers.zigzag_bruteforce",
            "special_numbers.cyclic_zigzag_bruteforce",
            "exact_arith.VPiPoly.integral_to_reflection",
            "polytope_lab.inverse_map",
            "polytope_lab.forward_map",
            "polytope_lab.jacobian_fd",
        ):
            metrics[f"{name}.calls"] = calls[name]
        for name in (
            "special_numbers.zigzag_bruteforce",
            "special_numbers.cyclic_zigzag_bruteforce",
            "special_numbers.zigzag",
            "special_numbers.bernoulli",
            "euler_sums.s_coeff",
            "euler_sums.s_coeff_via_bernoulli",
            "euler_sums.s_value",
            "exact_arith.VPiPoly.integral_to_reflection",
            "spectral_operator.inner_product_one",
            *SPECTRAL_KERNELS,
            *MC_KERNELS,
            "polytope_lab.inverse_map",
            "polytope_lab.forward_map",
            "polytope_lab.jacobian_fd",
            "report.run_suite",
            "cli.main",
        ):
            metrics[f"{name}.s"] = self_s.get(name, 0.0)
        metrics["euler_sums.to_float.failed"] = self.failed["euler_sums.PiMultiple.to_float"]
        metrics["polytope_lab.inverse_map.failed"] = self.failed["polytope_lab.inverse_map"]
        spectral_s = sum(self_s.get(name, 0.0) for name in SPECTRAL_KERNELS)
        metrics["spectral_operator.flop_computed"] = self.work["flop"]
        metrics["spectral_operator.bytes_computed"] = self.work["bytes"]
        metrics["spectral_operator.gflop_per_s"] = self.work["flop"] / spectral_s / 1e9 if spectral_s else 0.0
        mc_s = sum(self_s.get(name, 0.0) for name in MC_KERNELS)
        metrics["polytope_lab.mc_samples_per_s"] = self.work["samples"] / mc_s if mc_s else 0.0
        for module in ("report", "cli"):
            metrics[f"{module}.self_s"] = sum(s for n, s in self_s.items() if n.startswith(module + "."))
        metrics["report.checks"] = self.work["checks"]
        metrics["report.montecarlo_retried"] = self.work["retried"]
        return metrics
