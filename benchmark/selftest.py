"""Self-test of the benchmark at tiny sizes (about 30 s on 2 cores).

    python3 benchmark/selftest.py

Checks, for every workload in BENCHMARK.json:
  * the result line has exactly the contract keys, and every end-to-end
    (``--trace 0``) or per-layer (``--trace 1``) metric with its unit;
  * an injected wrong answer (child.INJECTIONS) counts as a failed op and
    makes the run incorrect instead of passing;
and that run.py exits non-zero, printing no result, when only BENCHMARK.json
and the benchmark directory are present.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
INJECT = {
    "verify-all": "zigzag+1",
    "exact-deep": "zigzag+1",
    "spectral-sweep": "trace*1.02",
    "mc-geometry": "mc_volume*1.1",
}


def run(root: Path, workload: str, trace: int, *extra: str) -> tuple[int, str]:
    command = [sys.executable, str(root / "benchmark" / "run.py"), "--workload", workload]
    command += ["--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int, failures: list[str]) -> None:
    code, stdout = run(ROOT, workload, trace)
    if code != 0:
        failures.append(f"{workload} trace={trace}: exit {code}")
        return
    result = result_line(stdout)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{workload} trace={trace}: keys {sorted(result)}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        failures.append(f"{workload} trace={trace}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        failures.append(f"{workload} trace={trace}: non-numeric metric value")
    if not (result["correct"] and result["attempted"] >= 1):
        failures.append(f"{workload} trace={trace}: correct={result['correct']} attempted={result['attempted']}")


def check_injection(workload: str, failures: list[str]) -> None:
    code, stdout = run(ROOT, workload, 0, "--inject", INJECT[workload])
    result = result_line(stdout) if code == 0 else {}
    if result.get("correct", True) or result.get("failed", 0) < 1:
        failures.append(f"{workload}: injected {INJECT[workload]} was not caught: {result}")


def check_refuses_without_source(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_selftest_", dir=ROOT) as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run(root, SPEC["workloads"][0]["name"], 0)
    if code == 0 or stdout.strip():
        failures.append(f"without the package source: exit {code}, stdout {stdout[:200]!r}")


def main() -> int:
    failures: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace, failures)
        check_injection(workload, failures)
    check_refuses_without_source(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
