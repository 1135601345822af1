import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zigzagsums import cli, polytope_lab, report, special_numbers, spectral_operator
from zigzagsums.polytope_lab import PolytopeSpec, volume_formula
from zigzagsums.special_numbers import bernoulli, cyclic_zigzag, euler_number, zigzag
from zigzagsums.report import CheckResult, VerificationReport

GOLDEN_TABLES = """\
coefficients of pi^n in S(n) and zeta(n), n = 1..10
   n  pi^-n S(n)   pi^-n zeta(n)
   1  1/4          -
   2  1/8          1/6
   3  1/32         -
   4  1/96         1/90
   5  5/1536       -
   6  1/960        1/945
   7  61/184320    -
   8  17/161280    1/9450
   9  277/8257536  -
  10  31/2903040   1/93555

Bernoulli and Euler numbers of even order
   n  B_n    E_n
   0  1      1
   2  1/6    -1
   4  -1/30  5
   6  1/42   -61
   8  -1/30  1385
  10  5/66   -

alternating permutation counts A(n) and cyclic counts A0(n), n = 1..10
   n  A(n)   A0(n)
   1  1      -
   2  1      1
   3  2      -
   4  5      4
   5  16     -
   6  61     48
   7  272    -
   8  1385   1088
   9  7936   -
  10  50521  39680
"""

# Exit code, stdout and stderr of deterministic invocations, byte for byte.
# verify spectral is left out: the last digits of its dense traces vary with
# the BLAS thread count.  volume ... spectral counts lattice points exactly.
GOLDEN_INVOCATIONS = [
    (("sums", "4"),
     0, "S(4) = 1/96 · pi^4 ≈ 1.0146780316\nzeta(4) = 1/90 · pi^4 ≈ 1.08232323371\n", ""),
    (("sums", "5", "--json"),
     0, '{"n": 5, "s": {"coeff": "5/1536", "pi_power": 5, "float": 0.996157828077088}, "l4": {"coeff": "5/1536", "pi_power": 5, "float": 0.996157828077088}}\n', ""),
    (("tables", "--json"),
     0, '{"s_coeff": {"1": "1/4", "2": "1/8", "3": "1/32", "4": "1/96", "5": "5/1536", "6": "1/960", "7": "61/184320", "8": "17/161280", "9": "277/8257536", "10": "31/2903040"}, "zeta_coeff": {"2": "1/6", "4": "1/90", "6": "1/945", "8": "1/9450", "10": "1/93555"}, "bernoulli": {"0": "1", "2": "1/6", "4": "-1/30", "6": "1/42", "8": "-1/30", "10": "5/66"}, "euler": {"0": "1", "2": "-1", "4": "5", "6": "-61", "8": "1385"}, "zigzag": {"1": "1", "2": "1", "3": "2", "4": "5", "5": "16", "6": "61", "7": "272", "8": "1385", "9": "7936", "10": "50521"}, "cyclic_zigzag": {"2": "1", "4": "4", "6": "48", "8": "1088", "10": "39680"}}\n', ""),
    (("volume", "cyclic", "3", "exact"),
     0, "Vol = 1/32 · pi^3 ≈ 0.968946146259\nnote: no permutation-count route exists in odd cyclic dimension; the value is the series-coefficient route\n", ""),
    (("volume", "cyclic", "3", "exact", "--quiet"),
     0, "Vol = 1/32 · pi^3 ≈ 0.968946146259\n", ""),
    (("volume", "cyclic", "4", "exact", "--json"),
     0, '{"coeff": "1/96", "pi_power": 4, "float": 1.0146780316041917}\n', ""),
    (("volume", "chain", "4", "extensions"),
     0, "Vol = 5/24 ≈ 0.208333333333\n", ""),
    (("volume", "cyclic", "4", "extensions", "--json"),
     0, '{"coeff": "1/96", "pi_power": 4, "float": 1.0146780316041917}\n', ""),
    (("volume", "cyclic", "3", "montecarlo", "--samples", "20000", "--seed", "7"),
     0, "Vol ≈ 0.954311236927 ± 0.00785533705484 (samples=20000, seed=7)\n", ""),
    (("volume", "chain", "3", "montecarlo", "--samples", "20000", "--seed", "3", "--json"),
     0, '{"mean": 0.32949260964769483, "std_error": 0.0016737730905456766, "samples": 20000, "seed": 3}\n', ""),
    (("volume", "cyclic", "2", "cube-integral", "--samples", "20000", "--seed", "1"),
     0, "Vol ≈ 1.23069679838 ± 0.00563121329108 (samples=20000, seed=1)\n", ""),
    (("volume", "cyclic", "2", "cube-integral", "--samples", "20000", "--seed", "1", "--scale", "unit", "--json"),
     0, '{"mean": 0.4987826252659553, "std_error": 0.002282244783979149, "samples": 20000, "seed": 1}\n', ""),
    (("ratio-limit", "4", "--digits", "6"),
     0, "ratio of cyclic to plain alternating counts; the limit is pi/4\n  m  A0(2m)/A(2m)  ratio     |ratio - pi/4|  decay\n  1  1             1         0.215           -\n  2  4/5           0.8       0.0146          0.068\n  3  48/61         0.786885  0.00149         0.102\n  4  1088/1385     0.78556   0.000161        0.109\n  pi/4 ≈ 0.785398 (decay column reported, not asserted)\n", ""),
    (("ratio-limit", "4", "--quiet"),
     0, "ratio of cyclic to plain alternating counts; the limit is pi/4\n  m  A0(2m)/A(2m)  ratio           |ratio - pi/4|  decay\n  1  1             1               0.215           -\n  2  4/5           0.8             0.0146          0.068\n  3  48/61         0.786885245902  0.00149         0.102\n  4  1088/1385     0.785559566787  0.000161        0.109\n", ""),
    (("ratio-limit", "3", "--json"),
     0, '[{"m": 1, "ratio": "1", "ratio_float": 1.0, "abs_error": 0.21460183660255172}, {"m": 2, "ratio": "4/5", "ratio_float": 0.8, "abs_error": 0.014601836602551765}, {"m": 3, "ratio": "48/61", "ratio_float": 0.7868852459016393, "abs_error": 0.0014870825041910507}]\n', ""),
    (("zigzag", "10", "--cyclic", "--json"),
     0, '{"n": 10, "cyclic": true, "count": 39680}\n', ""),
    (("bernoulli", "10", "--json"),
     0, '{"n": 10, "value": "5/66"}\n', ""),
    (("euler", "8", "--json"),
     0, '{"n": 8, "value": 1385}\n', ""),
    (("volume", "cyclic", "3", "spectral", "--grid", "50", "--json"),
     0, '{"trace": 0.940265340330092, "grid": 50}\n', ""),
    (("volume", "cyclic", "5", "spectral", "--grid", "1000", "--scale", "unit"),
     0, "Vol ≈ 0.103906562292 (matrix trace at grid N=1000)\n", ""),
    (("g-eval", "0.5"),
     0, "closed = 0.948059448969\nseries = 0.948059448969 (80 terms)\n|closed - series| = 0\n", ""),
    (("g-eval", "-0.5", "--terms", "60", "--json"),
     0, '{"z": -0.5, "terms": 60, "closed": -0.16266128557107162, "series": -0.16266128557107162, "abs_diff": 0.0}\n', ""),
    (("verify", "numeric", "--quiet"),
     0, "17 passed, 0 failed\n", ""),
    (("sums", "0"),
     2, "", "error: the sum diverges for n < 1; need n >= 1\n"),
    (("volume", "chain", "3", "spectral"),
     2, "", "error: the spectral trace route applies to the cyclic polytope only\n"),
    (("ratio-limit", "0"),
     2, "", "error: m_max must be at least 1\n"),
    (("spectrum", "--grid", "50", "--top", "0"),
     2, "", "error: top must be at least 1\n"),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,code,out,err", GOLDEN_INVOCATIONS, ids=[" ".join(case[0]) for case in GOLDEN_INVOCATIONS]
)
def test_golden_invocation(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    assert run(capsys, *argv) == (code, out, err)


# Domain rules the library functions own; the CLI passes their ValueError on.
LIBRARY_RULES = [
    (("sums", "0"), "the sum diverges for n < 1; need n >= 1"),
    (("volume", "chain", "0", "montecarlo"), "dimension must be positive"),
    (("volume", "cyclic", "1", "spectral"), "the cyclic polytope requires n >= 2"),
    (("volume", "cyclic", "3", "extensions"), "the cyclic zigzag order requires even n >= 2"),
    (("zigzag", "5", "--cyclic"), "cyclically alternating permutations require even n >= 2"),
    (("bernoulli", "-1"), "Bernoulli numbers are indexed by n >= 0"),
    (("euler", "7"), "only even-order Euler numbers are supported"),
    (("euler", "-2"), "Euler numbers are indexed by n >= 0"),
    (("g-eval", "1.0"), "the series has radius 1 (pole at z = 1); need |z| < 1"),
    (("spectrum", "--grid", "50", "--top", "0"), "top must be at least 1"),
    (("spectrum", "--grid", "50", "--top", "51"), "top cannot exceed the grid size"),
]


class _Refused:
    """Stands in for the sequence cache: any use of it means work started."""

    def __getattr__(self, name):
        raise AssertionError(f"computation started ({name})")


@pytest.mark.parametrize("argv,message", LIBRARY_RULES, ids=[" ".join(a) for a, _ in LIBRARY_RULES])
def test_library_rule_exits_2_before_computing(capsys, monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(special_numbers, "_CACHE", _Refused())
    monkeypatch.setattr(spectral_operator.KernelMatrix, "entries", property(refuse))
    for name in ("volume_formula", "order_polytope_volume", "mc_volume", "mc_cube_integral",
                 "trace_power_nystrom", "exact_eigenvalue"):
        monkeypatch.setattr(cli, name, refuse)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestSums:
    def test_even(self, capsys):
        code, out, _ = run(capsys, "sums", "4")
        assert code == 0
        assert "1/96 · pi^4 ≈ 1.0146780316" in out
        assert "zeta(4) = 1/90 · pi^4" in out

    def test_odd(self, capsys):
        code, out, _ = run(capsys, "sums", "1")
        assert code == 0
        assert "1/4 · pi ≈ 0.785398163397" in out
        assert "L(1, chi4)" in out

    def test_divergent(self, capsys):
        code, _, err = run(capsys, "sums", "0")
        assert code == 2
        assert "diverges" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sums", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == {
            "coeff": "5/1536",
            "pi_power": 5,
            "float": pytest.approx(0.9961578280770234),
        }
        assert payload["l4"]["coeff"] == "5/1536"

    def test_digits_flag(self, capsys):
        _, out, _ = run(capsys, "sums", "4", "--digits", "4")
        assert "≈ 1.015" in out

    def test_large_n(self, capsys):
        # pi^700 overflows a float, S(700) itself is about 1
        code, out, _ = run(capsys, "sums", "700")
        assert code == 0
        assert "≈ 1\n" in out


class TestTables:
    def test_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert out == GOLDEN_TABLES
        # spot rows called out in the contract
        assert "61/184320" in out and "1385" in out and "7936" in out

    def test_stable_across_runs(self, capsys):
        _, first, _ = run(capsys, "tables")
        _, second, _ = run(capsys, "tables")
        assert first == second

    def test_json(self, capsys):
        _, out, _ = run(capsys, "tables", "--json")
        payload = json.loads(out)
        assert payload["s_coeff"]["7"] == "61/184320"
        assert payload["euler"]["8"] == "1385"
        assert payload["zigzag"]["9"] == "7936"

    def test_tables_and_verify_exact_read_one_copy(self, capsys, monkeypatch):
        # Moving the zigzag entry from n = 1..10 to n = 2..11 moves the rows
        # tables prints and the exact.zigzag.* checks of verify alike.
        tables = list(report.TABLES)
        index = [entry[0] for entry in tables].index("zigzag")
        name, description, route, values = tables[index]
        values = {n: values[n] for n in range(2, 11)} | {11: 353792}
        tables[index] = (name, description, route, values)
        monkeypatch.setattr(report, "TABLES", tuple(tables))
        code, out, _ = run(capsys, "tables", "--json")
        assert code == 0
        assert json.loads(out)["zigzag"] == {str(n): str(v) for n, v in values.items()}
        code, out, _ = run(capsys, "verify", "exact", "--json")
        assert code == 0
        checks = [c for c in json.loads(out)["checks"] if c["id"].startswith("exact.zigzag.")]
        assert [(c["id"], c["expected"], c["actual"]) for c in checks] == [
            (f"exact.zigzag.{n}", str(v), str(v)) for n, v in values.items()
        ]


class TestVolume:
    def test_exact_cyclic(self, capsys):
        code, out, _ = run(capsys, "volume", "cyclic", "2", "exact")
        assert code == 0
        assert "1/8 · pi^2" in out

    def test_exact_cyclic_large_n(self, capsys):
        code, _, _ = run(capsys, "volume", "cyclic", "700", "exact")
        assert code == 0

    def test_extensions_chain(self, capsys):
        code, out, _ = run(capsys, "volume", "chain", "4", "extensions")
        assert code == 0
        assert "5/24" in out

    def test_exact_cyclic_odd_notes(self, capsys):
        code, out, _ = run(capsys, "volume", "cyclic", "3", "exact")
        assert code == 0
        assert "1/32 · pi^3" in out
        assert "note" in out
        code, out, _ = run(capsys, "volume", "cyclic", "3", "exact", "--quiet")
        assert code == 0 and "note" not in out

    def test_montecarlo(self, capsys):
        code, out, _ = run(
            capsys, "volume", "cyclic", "3", "montecarlo",
            "--samples", "20000", "--seed", "7",
        )
        assert code == 0
        assert "±" in out and "seed=7" in out

    def test_montecarlo_json_matches_estimate(self, capsys):
        from zigzagsums.polytope_lab import PolytopeSpec, mc_volume

        code, out, _ = run(
            capsys, "volume", "chain", "3", "montecarlo", "--json",
            "--samples", "20000", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        direct = mc_volume(PolytopeSpec("chain", 3, "unit"), 20000, 3)
        assert payload == direct.as_json_dict()

    def test_spectral(self, capsys):
        code, out, _ = run(capsys, "volume", "cyclic", "2", "spectral", "--grid", "300")
        assert code == 0
        value = float(out.split("≈ ")[1].split()[0])
        # the midpoint trace converges to pi^2/8 = 1.2337 at rate O(1/N)
        assert abs(value - math.pi**2 / 8) < (math.pi / 2) / 300

    def test_cube_integral(self, capsys):
        code, out, _ = run(
            capsys, "volume", "cyclic", "2", "cube-integral",
            "--samples", "20000", "--seed", "1",
        )
        assert code == 0
        assert "±" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("volume", "chain", str(polytope_lab.EXTENSION_LIMIT + 1), "extensions"),
            ("volume", "cyclic", "3", "extensions"),
            ("volume", "chain", "3", "spectral"),
            ("volume", "cyclic", "1", "spectral"),
            ("volume", "chain", "2", "cube-integral"),
            ("volume", "cyclic", "1", "exact"),
        ],
    )
    def test_invalid_combinations(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err

    def test_extensions_at_limit(self, capsys):
        n = polytope_lab.EXTENSION_LIMIT
        code, out, err = run(capsys, "volume", "chain", str(n), "extensions", "--json")
        assert (code, err) == (0, "")
        assert Fraction(json.loads(out)["coeff"]) == Fraction(zigzag(n), math.factorial(n))

    @pytest.mark.parametrize("kind", ["chain", "cyclic"])
    @pytest.mark.parametrize("scale", ["unit", "half_pi"])
    def test_extensions_match_exact(self, capsys, kind, scale):
        dimensions = range(2, 13, 2) if kind == "cyclic" else range(1, 13)
        for n in dimensions:
            argv = ("volume", kind, str(n))
            extensions = run(capsys, *argv, "extensions", "--scale", scale, "--json")
            assert extensions[0] == 0
            assert extensions == run(capsys, *argv, "exact", "--scale", scale, "--json")

    def test_extensions_above_limit_build_no_poset(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("a poset was built for a refused n")

        for name in ("chain_poset", "cyclic_poset"):
            monkeypatch.setattr(cli, name, refuse)
        for kind, n in (("chain", polytope_lab.EXTENSION_LIMIT + 1), ("chain", 10**9),
                        ("cyclic", polytope_lab.EXTENSION_LIMIT + 2)):
            code, out, err = run(capsys, "volume", kind, str(n), "extensions")
            assert (code, out) == (2, "")
            assert err == f"error: extension counting supports n <= {polytope_lab.EXTENSION_LIMIT}\n"

    def test_unknown_method_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["volume", "cyclic", "2", "quadrature"])
        assert excinfo.value.code == 2


class TestRatioLimit:
    def test_reported_rows(self, capsys):
        code, out, _ = run(capsys, "ratio-limit", "5", "--digits", "6")
        assert code == 0
        assert "39680/50521" in out
        assert "0.785416" in out

    def test_first_row_is_one(self, capsys):
        _, out, _ = run(capsys, "ratio-limit", "1")
        row = [line for line in out.splitlines() if line.strip().startswith("1 ")][0]
        assert " 1 " in row

    def test_json(self, capsys):
        _, out, _ = run(capsys, "ratio-limit", "3", "--json")
        payload = json.loads(out)
        assert payload[-1]["ratio"] == "48/61"

    def test_bad_argument(self, capsys):
        code, _, _ = run(capsys, "ratio-limit", "0")
        assert code == 2


class TestSequences:
    def test_zigzag(self, capsys):
        assert run(capsys, "zigzag", "10") == (0, "50521\n", "")

    def test_zigzag_cyclic(self, capsys):
        assert run(capsys, "zigzag", "10", "--cyclic")[1] == "39680\n"
        assert run(capsys, "zigzag", "5", "--cyclic")[0] == 2

    def test_bernoulli(self, capsys):
        assert run(capsys, "bernoulli", "10") == (0, "5/66\n", "")

    def test_euler(self, capsys):
        assert run(capsys, "euler", "8") == (0, "1385\n", "")
        assert run(capsys, "euler", "7")[0] == 2


class TestGEval:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "g-eval", "0.5")
        assert code == 0
        assert "closed = 0.948059448969" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "g-eval", "-0.5", "--terms", "60", "--json")
        payload = json.loads(out)
        assert payload["abs_diff"] < 1e-12

    def test_pole(self, capsys):
        assert run(capsys, "g-eval", "1.0")[0] == 2

    def test_terms_at_cap(self, capsys):
        code, out, err = run(capsys, "g-eval", "0.5", "--terms", str(cli.TERMS_LIMIT), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["terms"] == cli.TERMS_LIMIT
        assert payload["abs_diff"] < 1e-12

    def test_terms_above_cap_exit_2_before_summing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("summation started for refused terms")

        monkeypatch.setattr(cli, "g_eval", refuse)
        for terms in (cli.TERMS_LIMIT + 1, 10**8):
            code, out, err = run(capsys, "g-eval", "0.5", "--terms", str(terms))
            assert (code, out) == (2, "")
            assert err == f"error: terms {terms} exceeds the limit of {cli.TERMS_LIMIT}\n"


class TestSpectrum:
    def test_report_lists_exact_values(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--grid", "200", "--top", "3")
        assert code == 0
        assert "exact 1/(4k+1)" in out
        assert "-0.333333333333" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--grid", "200", "--top", "2", "--json")
        payload = json.loads(out)
        assert [e["k"] for e in payload["eigenvalues"]] == [0, -1]
        assert payload["eigenvalues"][0]["abs_error"] < 0.01


class TestVerify:
    def test_exact_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "exact", "--quiet")
        assert code == 0
        assert out.strip().endswith("0 failed")

    def test_json_round_trip_and_determinism(self, capsys):
        code, first, _ = run(capsys, "verify", "numeric", "--json", "--seed", "42")
        assert code == 0
        _, second, _ = run(capsys, "verify", "numeric", "--json", "--seed", "42")
        assert first == second
        payload = json.loads(first)
        parsed = VerificationReport(
            [CheckResult(**c) for c in payload["checks"]], payload["metadata"]
        )
        assert parsed.to_json() == first.rstrip("\n")

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = VerificationReport(
            checks=[CheckResult("x", "broken", "fail", "1", "2", "exact")]
        )
        monkeypatch.setattr(report, "run_suite", lambda **kwargs: failing)
        code, out, _ = run(capsys, "verify", "all")
        assert code == 1
        assert "[FAIL]" in out

    def test_defaults_match_run_suite(self, capsys, monkeypatch):
        # without flags or a config file, verify runs the report run_suite() runs
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        code, out, _ = run(capsys, "verify", "numeric", "--json")
        assert code == 0
        assert out.rstrip("\n") == report.run_suite("numeric").to_json()
        assert json.loads(out)["metadata"]["grid"] == 2000

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_timings_go_to_stderr_and_leave_stdout_alone(self, capsys, flags):
        code, plain, plain_err = run(capsys, "verify", "numeric", *flags)
        timed_code, out, err = run(capsys, "verify", "numeric", *flags, "--timings")
        assert (timed_code, out, plain_err) == (code, plain, "")
        entries = [json.loads(line) for line in err.splitlines()]
        checks = report.run_suite("numeric").checks
        assert [sorted(entry) for entry in entries] == [["id", "s"]] * len(checks) + [["s", "suite"]]
        assert [entry.get("id") for entry in entries[:-1]] == [c.id for c in checks]
        assert entries[-1]["suite"] == "numeric"

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "bogus"])
        assert excinfo.value.code == 2


class TestConfigFile:
    def test_config_sets_defaults_and_flags_override(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "settings.cfg"
        config.write_text("# comment\ndigits=4\nseed=9\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        _, out, _ = run(capsys, "sums", "4")
        assert "≈ 1.015" in out
        _, out, _ = run(capsys, "sums", "4", "--digits", "7")
        assert "≈ 1.014678" in out

    def test_unknown_keys_warn_on_stderr_and_are_ignored(self, capsys, tmp_path, monkeypatch):
        _, plain, _ = run(capsys, "sums", "4")
        config = tmp_path / "settings.cfg"
        config.write_text("bogus=1\ndigits=12\n colour = red\n# note=1\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        code, out, err = run(capsys, "sums", "4")
        assert code == 0
        assert out == plain
        warnings = err.splitlines()
        assert len(warnings) == 2
        assert warnings[0].startswith("warning: unknown key 'bogus'")
        assert warnings[1].startswith("warning: unknown key 'colour'")
        assert all(str(config) in line for line in warnings)

    def test_missing_config_is_fatal(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "absent.cfg"
        monkeypatch.setenv(cli.CONFIG_ENV, str(path))
        code, out, err = run(capsys, "sums", "4")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {path}: ")

    def test_non_integer_config_value_is_fatal(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "settings.cfg"
        config.write_text("seed=1\ndigits = four\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        code, out, err = run(capsys, "sums", "4")
        assert (code, out) == (2, "")
        assert err == f"error: config file {config}: digits must be an integer, not 'four'\n"


class TestGridLimit:
    @pytest.fixture
    def no_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matrix was built for a refused grid")

        for name in ("nystrom_matrix", "trace_power_nystrom"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.report, "run_suite", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume", "cyclic", "2", "spectral", "--grid", "100000"],
            ["spectrum", "--grid", str(cli.GRID_LIMIT + 1)],
            ["verify", "spectral", "--grid", "100000"],
        ],
    )
    def test_large_grid_exits_2_before_allocating(self, capsys, no_matrix, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid ") and f"limit of {cli.GRID_LIMIT}" in err

    def test_limit_applies_to_config_file(self, capsys, tmp_path, monkeypatch, no_matrix):
        config = tmp_path / "settings.cfg"
        config.write_text("grid=100000\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        code, _, err = run(capsys, "spectrum")
        assert code == 2
        assert "limit" in err

    def test_flag_overrides_config_and_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "settings.cfg"
        config.write_text("grid=100000\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        grids = []
        monkeypatch.setattr(cli, "trace_power_nystrom", lambda N, n: grids.append(N) or 1.0)
        code, _, _ = run(capsys, "volume", "cyclic", "2", "spectral", "--grid", str(cli.GRID_LIMIT))
        assert code == 0
        assert grids == [cli.GRID_LIMIT]

    def test_unused_grid_is_not_checked(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "settings.cfg"
        config.write_text("grid=100000\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        code, out, _ = run(capsys, "sums", "2")
        assert code == 0
        assert out.startswith("S(2) = ")


class TestSamplesLimit:
    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started for refused samples")

        for name in ("mc_volume", "mc_cube_integral"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.report, "run_suite", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume", "cyclic", "3", "montecarlo"],
            ["volume", "cyclic", "2", "cube-integral"],
            ["verify", "montecarlo"],
        ],
    )
    def test_large_samples_exit_2_before_sampling(self, capsys, no_sampling, argv):
        code, out, err = run(capsys, *argv, "--samples", str(10**12))
        assert code == 2
        assert out == ""
        assert err == f"error: samples {10**12} exceeds the limit of {cli.SAMPLES_LIMIT}\n"

    def test_limit_applies_to_config_file(self, capsys, tmp_path, monkeypatch, no_sampling):
        config = tmp_path / "settings.cfg"
        config.write_text(f"samples={cli.SAMPLES_LIMIT + 1}\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        code, _, err = run(capsys, "volume", "chain", "3", "montecarlo")
        assert code == 2
        assert f"limit of {cli.SAMPLES_LIMIT}" in err

    def test_flag_overrides_config_and_limit_is_inclusive(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "settings.cfg"
        config.write_text(f"samples={cli.SAMPLES_LIMIT + 1}\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        seen = []

        def fake_cube_integral(n, samples, seed):
            seen.append(samples)
            return polytope_lab.McEstimate(1.0, 0.1, samples, seed)

        monkeypatch.setattr(cli, "mc_cube_integral", fake_cube_integral)
        argv = ["volume", "cyclic", "2", "cube-integral", "--samples", str(cli.SAMPLES_LIMIT)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert seen == [cli.SAMPLES_LIMIT]

    def test_unused_samples_are_not_checked(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "settings.cfg"
        config.write_text(f"samples={10**12}\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        code, out, _ = run(capsys, "volume", "cyclic", "2", "exact")
        assert code == 0
        assert out.startswith("Vol = 1/8 · pi^2")


class TestNegativeOptions:
    def test_negative_digits_exit_2_before_computing(self, capsys, tmp_path, monkeypatch):
        def refuse(n):
            raise AssertionError("computation started for refused digits")

        monkeypatch.setattr(cli, "s_value", refuse)
        assert run(capsys, "sums", "3", "--digits", "-1") == (
            2, "", "error: digits must be nonnegative, not -1\n"
        )
        config = tmp_path / "settings.cfg"
        config.write_text("digits=-2\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        assert run(capsys, "sums", "3") == (2, "", "error: digits must be nonnegative, not -2\n")

    def test_zero_digits_accepted(self, capsys):
        assert run(capsys, "sums", "2", "--digits", "0")[0] == 0

    @pytest.mark.parametrize("method", ["montecarlo", "cube-integral"])
    def test_negative_seed_exits_2_before_sampling(self, capsys, monkeypatch, method):
        def refuse(*args):
            raise AssertionError("a chunk was submitted for a refused seed")

        monkeypatch.setattr(polytope_lab, "_chunk_sums", refuse)
        argv = ["volume", "cyclic", "3", method, "--samples", "10000", "--seed", "-1"]
        assert run(capsys, *argv) == (2, "", "error: seed must be nonnegative, not -1\n")

    @pytest.mark.parametrize(
        "flags,message",
        [(("--seed", "-1"), "seed must be nonnegative, not -1"),
         (("--samples", "5"), "use at least 10^4 samples")],
        ids=["seed", "samples"],
    )
    @pytest.mark.parametrize("suite", ["all", "montecarlo"])
    def test_verify_refuses_bad_run_before_any_suite(self, capsys, monkeypatch, suite, flags, message):
        def refuse(*args):
            raise AssertionError("a suite ran for a refused Monte Carlo run")

        for name in ("_exact_checks", "_numeric_checks", "_montecarlo_checks", "_spectral_checks"):
            monkeypatch.setattr(report, name, refuse)
        assert run(capsys, "verify", suite, *flags) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("suite", ["all", "spectral"])
    def test_verify_refuses_small_grid_before_any_suite(self, capsys, monkeypatch, suite):
        def refuse(*args):
            raise AssertionError("a suite ran for a refused grid")

        for name in ("_exact_checks", "_numeric_checks", "_montecarlo_checks", "_spectral_checks"):
            monkeypatch.setattr(report, name, refuse)
        for grid in (2, 3, 4):
            assert run(capsys, "verify", suite, "--grid", str(grid)) == (
                2, "", f"error: the spectral checks need a grid of at least 5, not {grid}\n"
            )

    def test_verify_spectral_answers_grid_5(self, capsys):
        code, out, err = run(capsys, "verify", "spectral", "--grid", "5", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["metadata"]["grid"] == 5


class TestNoDenseMatrixForSpectrum:
    """spectrum and verify read the closed-form spectrum, never a dense matrix's entries."""

    @pytest.fixture(autouse=True)
    def no_entries(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a dense Nystrom matrix was assembled")

        monkeypatch.setattr(spectral_operator.KernelMatrix, "entries", property(refuse))

    def test_spectrum_at_grid_limit(self, capsys):
        code, out, err = run(capsys, "spectrum", "--grid", str(cli.GRID_LIMIT), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["grid"] == cli.GRID_LIMIT

    def test_verify_spectral(self, capsys):
        code, out, err = run(capsys, "verify", "spectral", "--quiet")
        assert (code, out, err) == (0, "15 passed, 0 failed\n", "")


class TestMonteCarloDimensionLimit:
    @pytest.mark.parametrize("method", ["montecarlo", "cube-integral"])
    def test_dimension_at_cap(self, capsys, method):
        n = str(cli.MC_DIMENSION_LIMIT)
        code, out, err = run(capsys, "volume", "cyclic", n, method, "--samples", "10000", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["samples"] == 10000

    def test_spectral_at_cap(self, capsys):
        n = str(cli.MC_DIMENSION_LIMIT)
        code, out, err = run(capsys, "volume", "cyclic", n, "spectral", "--grid", "50", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["grid"] == 50

    @pytest.mark.parametrize("kind", ["cyclic", "chain"])
    @pytest.mark.parametrize(
        "method,route",
        [("montecarlo", "Monte Carlo"), ("cube-integral", "Monte Carlo"),
         ("spectral", "the spectral trace route")],
        ids=["montecarlo", "cube-integral", "spectral"],
    )
    def test_dimension_above_cap_exits_2_before_sampling(
        self, capsys, monkeypatch, kind, method, route
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("work started for a refused dimension")

        for name in ("mc_volume", "mc_cube_integral", "trace_power_nystrom"):
            monkeypatch.setattr(cli, name, refuse)
        for n in (cli.MC_DIMENSION_LIMIT + 1, 10**6, 10**50):
            code, out, err = run(capsys, "volume", kind, str(n), method)
            assert (code, out) == (2, "")
            assert err == f"error: {route} supports n <= {cli.MC_DIMENSION_LIMIT}\n"


def _fits(value):
    """True iff every integer printed for value converts to text under Python's 4300-digit limit."""
    if isinstance(value, Fraction):
        return _fits(value.numerator) and _fits(value.denominator)
    return abs(value) < 10**4300


class TestExactCaps:
    """sums, zigzag, bernoulli and euler answer up to their cap and refuse cap + 1 at once."""

    @pytest.fixture
    def no_exact_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computation started for a refused n")

        for name in ("s_value", "zigzag", "cyclic_zigzag", "bernoulli", "euler_number"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (["sums"], cli.SUMS_LIMIT),
            (["zigzag"], cli.ZIGZAG_LIMIT),
            (["zigzag", "--cyclic"], cli.ZIGZAG_LIMIT),
            (["bernoulli"], cli.BERNOULLI_LIMIT),
            (["euler"], cli.EULER_LIMIT),
        ],
    )
    def test_above_cap_exits_2_before_computing(self, capsys, no_exact_work, argv, limit):
        for n in (limit + 1, limit + 2, 10**6):
            code, out, err = run(capsys, *argv, str(n))
            assert code == 2
            assert out == ""
            if n % 2 == 0 or argv[0] != "euler":
                assert err.startswith(f"error: n {n} exceeds the limit of {limit}: ")
                assert "4300 decimal digits" in err

    def test_sums_at_cap(self, capsys):
        n = cli.SUMS_LIMIT
        code, out, err = run(capsys, "sums", str(n))
        assert (code, err) == (0, "")
        assert out.startswith(f"S({n}) = ")
        code, out, _ = run(capsys, "sums", str(n), "--json")
        assert code == 0
        assert json.loads(out)["n"] == n

    def test_zigzag_at_cap(self, capsys):
        n = cli.ZIGZAG_LIMIT
        code, out, err = run(capsys, "zigzag", str(n))
        assert (code, err) == (0, "")
        assert int(out) == zigzag(n)
        code, out, _ = run(capsys, "zigzag", str(n), "--json")
        assert code == 0
        assert json.loads(out)["count"] == zigzag(n)
        code, out, _ = run(capsys, "zigzag", str(n - 1), "--cyclic", "--json")
        assert code == 0
        assert json.loads(out)["count"] == cyclic_zigzag(n - 1)

    def test_euler_at_cap(self, capsys):
        n = cli.EULER_LIMIT
        code, out, err = run(capsys, "euler", str(n))
        assert (code, err) == (0, "")
        assert int(out) == euler_number(n)
        code, out, _ = run(capsys, "euler", str(n), "--json")
        assert json.loads(out)["value"] == euler_number(n)

    @pytest.mark.parametrize("kind", ["chain", "cyclic"])
    @pytest.mark.parametrize("scale", ["unit", "half_pi"])
    def test_volume_exact_at_cap(self, capsys, kind, scale):
        n = cli.VOLUME_LIMIT
        code, out, err = run(capsys, "volume", kind, str(n), "exact", "--scale", scale, "--quiet")
        assert (code, err) == (0, "")
        assert out.startswith("Vol = ")
        code, out, _ = run(capsys, "volume", kind, str(n), "exact", "--scale", scale, "--json")
        assert code == 0
        assert json.loads(out)["coeff"] == str(volume_formula(PolytopeSpec(kind, n, scale)).coeff)

    @pytest.mark.parametrize("kind", ["chain", "cyclic"])
    def test_volume_exact_above_cap_exits_2_before_computing(self, capsys, monkeypatch, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("computation started for a refused n")

        monkeypatch.setattr(cli, "volume_formula", refuse)
        for n in (cli.VOLUME_LIMIT + 1, 10**6):
            code, out, err = run(capsys, "volume", kind, str(n), "exact")
            assert (code, out) == (2, "")
            assert err.startswith(f"error: n {n} exceeds the limit of {cli.VOLUME_LIMIT}: ")
            assert "4300 decimal digits" in err

    def test_bernoulli_cap_is_accepted(self, capsys):
        n = cli.BERNOULLI_LIMIT
        assert n % 2 == 1
        assert run(capsys, "bernoulli", str(n)) == (0, "0\n", "")
        code, out, err = run(capsys, "bernoulli", str(n - 1), "--json")
        assert (code, err) == (0, "")
        assert Fraction(json.loads(out)["value"]) == bernoulli(n - 1) != 0

    def test_ratio_limit_cap(self, capsys, monkeypatch):
        m = cli.RATIO_LIMIT
        code, out, err = run(capsys, "ratio-limit", str(m), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)[-1]["m"] == m
        code, out, err = run(capsys, "ratio-limit", str(m), "--quiet")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].lstrip().startswith(f"{m}  ")

        def refuse(*args, **kwargs):
            raise AssertionError("computation started for a refused m_max")

        for name in ("zigzag", "cyclic_zigzag"):
            monkeypatch.setattr(cli, name, refuse)
        for m in (cli.RATIO_LIMIT + 1, 10**6):
            code, out, err = run(capsys, "ratio-limit", str(m))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: m_max {m} exceeds the limit of {cli.RATIO_LIMIT}: ")

    def test_caps_are_the_largest_n_that_print(self):
        from zigzagsums.euler_sums import l4_coeff, s_coeff, zeta_coeff

        def sums_values(n):
            return [s_coeff(n), zeta_coeff(n) if n % 2 == 0 else l4_coeff(n)]

        assert all(_fits(v) for v in sums_values(cli.SUMS_LIMIT))
        assert not all(_fits(v) for v in sums_values(cli.SUMS_LIMIT + 1))
        assert _fits(zigzag(cli.ZIGZAG_LIMIT)) and not _fits(zigzag(cli.ZIGZAG_LIMIT + 1))
        assert not _fits(cyclic_zigzag(cli.ZIGZAG_LIMIT + 1))
        assert cli.EULER_LIMIT % 2 == 0 and cli.EULER_LIMIT + 1 == cli.ZIGZAG_LIMIT
        assert _fits(euler_number(cli.EULER_LIMIT))
        assert not _fits(euler_number(cli.EULER_LIMIT + 2))

        # |B_n| = A0(n) / (2^(n-1) (2^n - 1)) for even n, from the cyclic counts.
        def bernoulli_magnitude(n):
            return Fraction(cyclic_zigzag(n), 2 ** (n - 1) * (2**n - 1))

        assert _fits(bernoulli_magnitude(cli.BERNOULLI_LIMIT - 1))
        assert not _fits(bernoulli_magnitude(cli.BERNOULLI_LIMIT + 1))

        def ratio(m):
            return Fraction(cyclic_zigzag(2 * m), zigzag(2 * m))

        assert _fits(ratio(cli.RATIO_LIMIT)) and not _fits(ratio(cli.RATIO_LIMIT + 1))

        def volumes(n):
            return [
                volume_formula(PolytopeSpec(kind, n, scale)).coeff
                for kind in ("chain", "cyclic")
                for scale in ("unit", "half_pi")
            ]

        assert all(_fits(v) for v in volumes(cli.VOLUME_LIMIT))
        assert not all(_fits(v) for v in volumes(cli.VOLUME_LIMIT + 1))


class TestErrorMapping:
    @pytest.mark.parametrize("error", [RuntimeError, OverflowError, MemoryError])
    def test_runtime_failures_exit_2(self, capsys, monkeypatch, error):
        def fail(n):
            raise error("no answer")

        monkeypatch.setattr(cli, "s_value", fail)
        code, out, err = run(capsys, "sums", "4")
        assert code == 2
        assert out == ""
        assert err == "error: no answer\n"

    def test_closed_pipe_exits_141_quietly(self, capsys, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(["sums", "5"]) == 141
            # stdout now writes to the null device, so the flush at shutdown succeeds
            assert os.fstat(write_end).st_rdev == os.stat(os.devnull).st_rdev
            monkeypatch.undo()
        assert capsys.readouterr().err == ""


class TestParser:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0


class TestModuleEntryPoint:
    """``python -m zigzagsums`` runs the same main as the console script."""

    @staticmethod
    def _env():
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["PYTHONIOENCODING"] = "utf-8"
        env.pop(cli.CONFIG_ENV, None)
        return env

    @classmethod
    def _run_module(cls, *argv):
        return subprocess.run([sys.executable, "-m", "zigzagsums", *argv], env=cls._env(),
                              capture_output=True, encoding="utf-8", timeout=60)

    def test_timings_mark_the_check_that_imported_numpy(self, capsys):
        # a fresh process loads numpy inside one exact check; once numpy is
        # loaded, no check is marked
        proc = self._run_module("verify", "exact", "--timings")
        assert proc.returncode == 0
        entries = [json.loads(line) for line in proc.stderr.splitlines()]
        marked = [entry for entry in entries if "imports" in entry]
        assert len(marked) == 1 and marked[0]["imports"] == ["numpy"] and "id" in marked[0]
        import numpy  # noqa: F401

        code, _, err = run(capsys, "verify", "exact", "--timings")
        assert code == 0
        assert not any("imports" in json.loads(line) for line in err.splitlines())

    def test_usage_error_exits_2(self):
        proc = self._run_module("sums", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: the sum diverges for n < 1; need n >= 1\n")

    def test_answer_exits_0(self):
        proc = self._run_module("sums", "2")
        assert proc.returncode == 0
        assert proc.stdout.startswith("S(2) = 1/8 · pi^2")

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("argv", [["tables"], ["sums", "5"]])
    def test_closed_pipe_exits_141_quietly(self, argv, unbuffered):
        # block-buffered, the output would meet the closed pipe only in the
        # flush at shutdown, which exits 120 with "Exception ignored"
        env = self._env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "zigzagsums", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")
        finally:
            proc.kill()
            proc.stderr.close()
