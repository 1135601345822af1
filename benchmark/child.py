"""One benchmark child: a fresh interpreter that runs one workload once.

    python3 benchmark/child.py --workload W --seed S --spawned-at T [--trace] [--tiny] [--inject F]
    python3 benchmark/child.py --setup-only --spawned-at T
    python3 benchmark/child.py --environment

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s``
covers interpreter start-up and ``import zigzagsums``.  The last stdout line
is a JSON object with the child's timings, outcome counts and, when traced,
its per-layer metrics.
"""

import sys
import time

import zigzagsums  # noqa: F401  (this import is what setup_s measures)
import zigzagsums.cli  # noqa: F401

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

from spans import Tracer, rebind  # noqa: E402
from workloads import WORKLOADS, known_defect  # noqa: E402

# Wrong answers the self-test injects to prove that checks catch them.
INJECTIONS = {
    "zigzag+1": ("special_numbers", "zigzag", lambda value: value + 1),
    "trace*1.02": ("spectral_operator", "trace_power_nystrom", lambda value: value * 1.02),
    "mc_volume*1.1": ("polytope_lab", "mc_volume", lambda est: dataclasses.replace(est, mean=est.mean * 1.1)),
}


def inject(name: str) -> None:
    """Rebind one package function to a copy that perturbs its result."""
    module_name, attr, perturb = INJECTIONS[name]
    original = getattr(sys.modules[f"zigzagsums.{module_name}"], attr)
    rebind(original, lambda *args, **kwargs: perturb(original(*args, **kwargs)))


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject", choices=sorted(INJECTIONS))
    parser.add_argument("--environment", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.environment:
        print(json.dumps({"environment": environment()}))
        return
    if args.setup_only:
        print(json.dumps({"setup_s": IMPORTED_AT - args.spawned_at}))
        return

    if args.inject:
        inject(args.inject)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    body, check = WORKLOADS[args.workload](args.seed, args.tiny)
    cpu_start = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outputs = body()
    wall_s = time.perf_counter() - start
    cpu_end = resource.getrusage(resource.RUSAGE_SELF)
    tracer.enabled = False
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    outcomes = check(outputs)

    counts = Counter(o.status for o in outcomes)
    unexpected = [o for o in outcomes if o.status != "ok" and not known_defect(args.workload, o)]
    result = {
        "setup_s": IMPORTED_AT - args.spawned_at,
        "wall_s": wall_s,
        # RUSAGE_SELF covers every thread of the process, BLAS workers included.
        "cpu_s": (cpu_end.ru_utime - cpu_start.ru_utime) + (cpu_end.ru_stime - cpu_start.ru_stime),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threads,
        "attempted": len(outcomes),
        "failed": counts["raised"] + counts["wrong"],
        "unexpected": len(unexpected),
        "examples": [f"{o.op} {o.status}: {o.detail}" for o in unexpected[:5]],
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
