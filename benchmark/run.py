"""Benchmark of the zigzagsums package: cold-process workloads, end to end and per layer.

    python3 benchmark/run.py --workload verify-all --seed 1 --seconds 32 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
Each run starts fresh interpreters one at a time with ``PYTHONPATH=src``,
each running one workload once (``child.py``), until a child of median
duration would end after ``--seconds``.  Workloads (see BENCHMARK.json for why each exists):

  verify-all      cli.main(["verify", "all", "--json", "--seed", S]); each
                  report check is one op, compared with verify_golden.json
  exact-deep      large-n exact queries: Bernoulli route, cyclic-Bernoulli
                  identity, zigzag(n) to 1500, operator iterates to n = 40,
                  s_value(n).to_float() to n = 1000
  spectral-sweep  Nystrom assembly, eigen-solve, traces, residuals at
                  N = 1000, 2000, 3000 (seeded residual modes)
  mc-geometry     Monte Carlo volumes and cube integrals at 2e6 samples,
                  inverse/forward map round trips and Jacobian checks

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the run's children: wall_s (workload body), setup_s (spawn until
``import zigzagsums`` returns; five extra import-only children add samples),
cpu_s (user+sys CPU of the child over the same body, BLAS threads
included), peak_rss_mb (the child's ru_maxrss).
With ``--trace 1`` children alternate traced/untraced; the metrics are the
per-layer ones from spans.py (medians over traced children) and
trace.overhead_s, the traced minus untraced median wall_s.

A line before the result line holds the environment, the per-child samples
and fail_ratio.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.  ``failed`` counts ops that
raised or returned a wrong value; ``correct`` is false if any op returned a
wrong value or raised, other than a workloads.known_defect.

Exit code 0 when the run was measured, 2 when it cannot run (no package
source next to the benchmark, a child that crashed or overran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "zigzagsums"
WORKLOADS = ("verify-all", "exact-deep", "spectral-sweep", "mc-geometry")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170


class BenchmarkError(Exception):
    """The benchmark cannot produce a measurement."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Start one child, wait for it, and return its result."""
    spawned = time.monotonic()
    command = [sys.executable, str(HERE / "child.py"), *args, "--spawned-at", repr(spawned)]
    timeout = min(CHILD_TIMEOUT_S, deadline - spawned)
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args} overran {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"child {args} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["duration_s"] = time.monotonic() - spawned
    return result


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def layer_units() -> dict:
    """Per-layer metric names and units, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1], "runs": len(values)}
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for selftest.py")
    parser.add_argument("--inject", help="perturb one package function (see child.INJECTIONS), for selftest.py")
    args = parser.parse_args()

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: package source not found at {SOURCE}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = child_env()
    try:
        environment = run_child(["--environment"], env, deadline)["environment"]
        environment.update(source_record())
        probes = [run_child(["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        common += ["--tiny"] * args.tiny + (["--inject", args.inject] if args.inject else [])
        children = []
        measure_until = started + args.seconds
        while True:
            traced = bool(args.trace) and len(children) % 2 == 0
            children.append(run_child(common + ["--trace"] * traced, env, deadline))
            children[-1]["traced"] = traced
            typical = statistics.median(c["duration_s"] for c in children)
            if len(children) >= 1 + args.trace and time.monotonic() + typical > measure_until:
                break
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if args.trace:
        metrics = {
            name: {"value": statistics.median([c["layers"][name] for c in traced]), "unit": unit}
            for name, unit in layer_units().items()
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median([c["wall_s"] for c in traced]) - statistics.median([c["wall_s"] for c in plain]),
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median([c["wall_s"] for c in plain]), "unit": "s"},
            "setup_s": {"value": statistics.median([c["setup_s"] for c in probes + plain]), "unit": "s"},
            "cpu_s": {"value": statistics.median([c["cpu_s"] for c in plain]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([c["peak_rss_mb"] for c in plain]), "unit": "MB"},
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment,
        "children": len(children),
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "samples": {
            key: [c[key] for c in children]
            for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "threads", "traced")
        },
        "wall_s_tail": tail_percentile([c["wall_s"] for c in plain]),
        "setup_probe_s": [p["setup_s"] for p in probes],
        "unexpected_failures": [e for c in children for e in c["examples"]][:10],
    }
    print(json.dumps({"details": details}))
    result = {
        "correct": all(c["unexpected"] == 0 for c in children),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
