import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from zigzagsums import cli, polytope_lab, report as report_module, spectral_operator
from zigzagsums.polytope_lab import (
    CHUNK_SAMPLES,
    PolytopeSpec,
    mc_cube_integral,
    mc_volume,
    volume_formula,
)
from zigzagsums.report import (
    CheckResult,
    SUITES,
    VerificationReport,
    run_suite,
)


class TestReportStructure:
    def test_exact_suite_passes(self):
        report = run_suite("exact")
        assert report.all_passed()
        assert report.summary["failed"] == 0
        assert report.summary["passed"] == len(report.checks)

    def test_check_ids_unique(self):
        report = run_suite("exact")
        ids = [c.id for c in report.checks]
        assert len(ids) == len(set(ids))

    def test_metadata_carries_parameters_and_notes(self):
        report = run_suite("numeric", seed=5, samples=12345, grid=321)
        assert report.metadata["seed"] == 5
        assert report.metadata["samples"] == 12345
        assert report.metadata["grid"] == 321
        assert len(report.metadata["notes"]) == 3
        assert any("Bernoulli" in note for note in report.metadata["notes"])
        assert any("power-sum" in note for note in report.metadata["notes"])

    def test_unknown_suite(self):
        import pytest

        with pytest.raises(ValueError):
            run_suite("everything")

    def test_suite_names(self):
        assert SUITES == ("exact", "numeric", "montecarlo", "spectral", "all")


class TestSerialization:
    def test_deterministic_bytes(self):
        first = run_suite("numeric", seed=4)
        second = run_suite("numeric", seed=4)
        assert first.to_json() == second.to_json()

    def test_summary_counts_fail(self):
        report = VerificationReport(
            checks=[
                CheckResult("a", "ok", "pass", "1", "1", "exact"),
                CheckResult("b", "broken", "fail", "1", "2", "exact"),
            ]
        )
        assert not report.all_passed()
        assert report.summary == {"passed": 1, "failed": 1}
        text = report.render_text()
        assert "[FAIL] b" in text and text.endswith("1 passed, 1 failed")
        assert report.render_text(quiet=True) == "1 passed, 1 failed"

    def test_parsed_json_shape(self):
        payload = json.loads(run_suite("numeric").to_json())
        assert set(payload) == {"checks", "summary", "metadata"}
        for check in payload["checks"]:
            assert set(check) == {
                "id",
                "description",
                "status",
                "expected",
                "actual",
                "tolerance",
            }

    @staticmethod
    def _golden(*prefixes):
        golden = Path(__file__).resolve().parents[1] / "benchmark" / "verify_golden.json"
        return [
            check for check in json.loads(golden.read_text(encoding="utf-8"))
            if check["id"].startswith(prefixes)
        ]

    def test_exact_and_numeric_checks_match_benchmark_golden(self):
        # The Monte Carlo checks depend on the seed; the spectral checks
        # follow below.
        wanted = self._golden("exact.", "numeric.")
        got = [dataclasses.asdict(c) for suite in ("exact", "numeric") for c in run_suite(suite).checks]
        assert got == wanted

    def test_spectral_checks_outside_blas_match_benchmark_golden(self):
        # The benchmark's rule: every field equal, but the actual within
        # 1e-12 relative.  spectral.trace.* and spectral.spectral_sum.* are
        # left out, as their bits come from BLAS and vary by CPU kernel and
        # thread count.
        wanted = self._golden(
            "spectral.eigenvalue.", "spectral.multiplicity", "spectral.residual."
        )
        got = {c.id: dataclasses.asdict(c) for c in run_suite("spectral").checks}
        assert len(wanted) == 9
        for check in wanted:
            mine = got[check["id"]]
            assert {**mine, "actual": check["actual"]} == check
            if mine["actual"] != check["actual"]:
                golden = float(check["actual"])
                assert abs(float(mine["actual"]) - golden) <= 1e-12 * max(1.0, abs(golden))


class TestMonteCarloSuite:
    def test_small_run_passes_without_retry(self):
        report = run_suite("montecarlo", seed=0, samples=50000)
        assert report.all_passed()
        assert report.metadata["montecarlo_retried"] is False

    def test_false_fail_bounds(self):
        # 7 checks at 4 standard errors, each missed with probability
        # P(|Z| > 4) = 6.3e-5; the report fails only if the retry fails too
        metadata = run_suite("numeric").metadata
        assert metadata["montecarlo_false_fail"] == {"per_pass": 4.4e-4, "report": 2e-7}
        per_pass = 7 * math.erfc(4 / math.sqrt(2))
        assert metadata["montecarlo_false_fail"]["per_pass"] == pytest.approx(per_pass, rel=0.01)
        assert metadata["montecarlo_false_fail"]["report"] == pytest.approx(per_pass**2, rel=0.02)

    @staticmethod
    def _miss_volumes(monkeypatch, missed_seeds):
        # every volume estimate at a missed seed lands 10 standard errors off
        real = report_module._mc_estimates

        def estimator(volumes, cubes, samples, seed):
            estimates = real(volumes, cubes, samples, seed)
            if seed not in missed_seeds:
                return estimates
            missed = [
                dataclasses.replace(estimate, mean=volume_formula(spec).to_float() + 10 * estimate.std_error)
                for spec, estimate in zip(volumes, estimates)
            ]
            return missed + estimates[len(volumes):]

        monkeypatch.setattr(report_module, "_mc_estimates", estimator)

    def test_miss_at_seed_retries_on_next_seed(self, monkeypatch):
        samples = 50000
        seed_one = run_suite("montecarlo", seed=1, samples=samples).checks
        self._miss_volumes(monkeypatch, {0})
        report = run_suite("montecarlo", seed=0, samples=samples)
        assert report.metadata["montecarlo_retried"] is True
        assert len(report.checks) == 7
        assert all(c.id.endswith(".retry") for c in report.checks)
        assert report.checks == [
            dataclasses.replace(c, id=c.id + ".retry") for c in seed_one
        ]
        assert report.all_passed()

    def test_timings_include_the_discarded_pass(self, monkeypatch):
        self._miss_volumes(monkeypatch, {0})
        report = run_suite("montecarlo", seed=0, samples=50000)
        ids = [entry.get("id") for entry in report.timings]
        first = [c.id.removesuffix(".retry") for c in report.checks]
        assert ids == first + [c.id for c in report.checks] + [None]
        assert report.timings[-1]["suite"] == "montecarlo"

    @staticmethod
    def _volume_specs():
        return [PolytopeSpec(kind, n, "half_pi") for kind, n in report_module.MC_VOLUME_CASES]

    def _lone_estimates(self, samples, seed):
        """verify's Monte Carlo estimates, each from its own run."""
        return [mc_volume(spec, samples, seed) for spec in self._volume_specs()] + [
            mc_cube_integral(n, samples, seed) for n in report_module.MC_CUBE_DIMENSIONS
        ]

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("samples", [50000, 3 * CHUNK_SAMPLES + 100], ids=["50000", "partial-chunk"])
    def test_shared_run_equals_lone_runs(self, monkeypatch, workers, samples):
        # 3 * CHUNK_SAMPLES + 100 ends in a partial chunk of one partial block
        monkeypatch.setattr(polytope_lab, "_worker_count", lambda: workers)
        lone = self._lone_estimates(samples, 5)
        shared = polytope_lab._mc_estimates(self._volume_specs(), report_module.MC_CUBE_DIMENSIONS, samples, 5)
        assert [(e.mean, e.std_error) for e in shared] == [(e.mean, e.std_error) for e in lone]
        checks = list(report_module._montecarlo_checks(5, samples, ""))
        assert [c.actual for c in checks] == [str(e.mean) for e in lone]
        assert [c.tolerance for c in checks] == [str(4 * e.std_error) for e in lone]

    def test_forced_retry_equals_lone_runs_on_next_seed(self, monkeypatch):
        self._miss_volumes(monkeypatch, {0})
        report = run_suite("montecarlo", seed=0, samples=50000)
        assert report.metadata["montecarlo_retried"] is True
        lone = self._lone_estimates(50000, 1)
        assert [c.actual for c in report.checks] == [str(e.mean) for e in lone]
        assert [c.tolerance for c in report.checks] == [str(4 * e.std_error) for e in lone]

    def test_lone_estimate_draws_no_whole_chunk(self, monkeypatch):
        # a lone estimate draws block by block: at n = 3 its buffers are one
        # 3 x BLOCK_ROWS block and the chunk's summands, under the
        # 3 x CHUNK_SAMPLES doubles a shared run's stream takes
        monkeypatch.setattr(polytope_lab, "_worker_count", lambda: 1)
        stream = 3 * CHUNK_SAMPLES * 8
        tracemalloc.start()
        try:
            mc_cube_integral(3, CHUNK_SAMPLES, 0)
            lone_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            polytope_lab._mc_estimates((), (3, 3), CHUNK_SAMPLES, 0)
            shared_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lone_peak < stream < shared_peak

    def test_miss_at_both_seeds_fails_verify(self, capsys, monkeypatch):
        self._miss_volumes(monkeypatch, {0, 1})
        assert cli.main(["verify", "montecarlo", "--samples", "50000", "--quiet"]) == 1
        assert capsys.readouterr().out == "2 passed, 5 failed\n"

    def test_repeated_check_id_refused(self, monkeypatch):
        # run_suite refuses a repeated id over the whole report: within one
        # suite, within the Monte Carlo pass, and between an earlier suite
        # and the Monte Carlo checks.
        def stub(check_id):
            return CheckResult(check_id, "stub", "pass", "1", "1", "exact")

        monkeypatch.setattr(report_module, "_numeric_checks", lambda *args: iter(()))
        monkeypatch.setattr(report_module, "_spectral_checks", lambda *args: iter(()))
        cases = [
            ("exact", ["a", "a"], report_module.MC_VOLUME_CASES),
            ("montecarlo", [], (("cyclic", 2), ("chain", 3), ("cyclic", 2))),
            ("all", ["montecarlo.cube.3"], report_module.MC_VOLUME_CASES),
        ]
        for suite, exact_ids, volume_cases in cases:
            monkeypatch.setattr(report_module, "_exact_checks", lambda *args: map(stub, exact_ids))
            monkeypatch.setattr(report_module, "MC_VOLUME_CASES", volume_cases)
            repeated = exact_ids[-1] if exact_ids else "montecarlo.volume.cyclic.2"
            with pytest.raises(ValueError, match=f"^duplicate check id {repeated}$"):
                run_suite(suite, samples=10**4)


class TestTimings:
    def test_each_check_then_its_suite(self):
        report = run_suite("all", samples=10**4, grid=400)
        checks = iter(report.checks)
        entries = report.timings
        suites = [i for i, entry in enumerate(entries) if "suite" in entry]
        assert [entries[i]["suite"] for i in suites] == list(SUITES[:-1])
        start = 0
        for i in suites:
            name = entries[i]["suite"]
            own = entries[start:i]
            assert [entry["id"] for entry in own] == [next(checks).id for _ in own]
            assert all(entry["id"].startswith(name + ".") for entry in own)
            # the checks' intervals are disjoint parts of the suite's
            assert 0 <= sum(entry["s"] for entry in own) <= entries[i]["s"] + 1e-9
            start = i + 1
        assert next(checks, None) is None

    def test_not_serialized_and_not_compared(self):
        report = run_suite("numeric")
        assert report.timings
        assert report == dataclasses.replace(report, timings=[])
        assert "timings" not in json.loads(report.to_json())


class TestSpectralSuite:
    def test_passes_at_reduced_grid(self):
        report = run_suite("spectral", grid=400)
        assert report.all_passed()
        ids = {c.id for c in report.checks}
        assert "spectral.multiplicity" in ids
        assert "spectral.spectral_sum.3" in ids

    def test_traces_share_one_square(self, monkeypatch):
        # every grid spreads its one square from one BLAS row block: the
        # default, 2000, a multiple of 8, and 401, whose kernel is padded
        # to 408
        real = spectral_operator._square_row
        calls = []

        def counting(x):
            calls.append(x.shape)
            return real(x)

        monkeypatch.setattr(spectral_operator, "_square_row", counting)
        assert run_suite("spectral").all_passed()
        assert calls == [(2000, 2000)]
        calls.clear()
        assert run_suite("spectral", grid=401).all_passed()
        assert calls == [(408, 408)]
