"""Command-line interface.

Subcommands: sums, tables, volume, ratio-limit, verify, zigzag, bernoulli,
euler, g-eval, spectrum.  Exact values always print as a lowest-terms
rational times an explicit pi power; floats are formatted with --digits
significant digits.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 141 (128 + SIGPIPE) when the reader of stdout has closed the pipe.

Each handler ``cmd_x(args, opts)`` prints nothing and returns ``(payload,
text)``, both built from values it computes once.  ``main`` resolves the
options once, prints ``json.dumps(payload)`` under --json and the text
otherwise, and reports ValueError, OSError, RuntimeError, OverflowError and
MemoryError as ``error: ...`` on stderr with exit code 2.  The payload of
verify is its VerificationReport, printed by its own to_json; a failed check
exits 1.  ``verify --timings`` first writes the report's timings to stderr,
one JSON object per line: {"id", "s"} for each check and {"suite", "s"} for
each suite, so stdout stays byte-identical; the check during which numpy was
first imported also carries "imports": ["numpy"], and the first check of a
Monte Carlo pass carries the sampling of all seven of its estimates, which
come from one run.  The output is flushed inside
``main``, so a closed pipe surfaces there as BrokenPipeError: stdout is
pointed at os.devnull, so that the flush at shutdown fails no more, and
``main`` returns 141 with no message.

The rules on what a value may be (n >= 1 for sums, even n for cyclic
counts, |z| < 1 for g-eval, 1 <= top <= grid for spectrum, ...) belong to
the library functions the handlers call, which raise ValueError before any
work.  A handler checks only the caps below and the rules no library
function has: zigzag n >= 1, ratio-limit m_max >= 1, and the cyclic kind for
volume ... spectral|cube-integral.

Defaults (grid 2000, samples 10^6, seed 0, digits 12) may be overridden by a
flat key=value config file named by the ZIGZAGSUMS_CONFIG environment
variable, and by command-line flags, in that order of precedence; unknown
config keys and non-comment lines without '=' are ignored with a warning on
stderr, and an unreadable file, a non-integer value or a resolved digits
below 0 exits 2.  The grid-using
commands (volume ... spectral, spectrum, verify) refuse a resolved grid above
GRID_LIMIT, and the sampling commands (volume ... montecarlo, volume ...
cube-integral, verify) resolved samples above SAMPLES_LIMIT.  sums, zigzag,
bernoulli, euler and ratio-limit refuse n (m_max) above SUMS_LIMIT,
ZIGZAG_LIMIT, BERNOULLI_LIMIT, EULER_LIMIT and RATIO_LIMIT, volume ... exact
above VOLUME_LIMIT, volume ... extensions above EXTENSION_LIMIT, volume ...
montecarlo|spectral|cube-integral above MC_DIMENSION_LIMIT, and g-eval
refuses --terms above TERMS_LIMIT.  Each cap refusal exits 2 before any
computation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import __version__, report
from .euler_sums import PiMultiple, g_eval, s_coeff_via_euler, s_value, zeta_coeff
from .polytope_lab import (
    EXTENSION_LIMIT,
    McEstimate,
    PolytopeSpec,
    chain_poset,
    cyclic_poset,
    mc_cube_integral,
    mc_volume,
    order_polytope_volume,
    volume_formula,
)
from .special_numbers import bernoulli, cyclic_zigzag, euler_number, zigzag
from .spectral_operator import (
    _rank_mode,
    exact_eigenvalue,
    nystrom_matrix,
    sym_eigenvalues,
    trace_power_nystrom,
)

CONFIG_ENV = "ZIGZAGSUMS_CONFIG"

DEFAULTS = {"digits": 12, **report.run_suite.__kwdefaults__}

# Largest Nystrom grid accepted.  It bounds verify's dense traces
# (nystrom_traces): one N x N matrix takes 8 N^2 bytes (134 MB at N = 4096).
# They pad the kernel with zeros to a multiple of 8, and their square costs
# one 8-row BLAS block and is spread into the kernel's own buffer, so they
# hold one array on every grid.  At the cap, and at N = 4095, nystrom_traces
# takes 0.23-0.27 s of CPU time, 0.11-0.22 s wall and 158-159 MiB peak RSS
# (medians of 10 calls in process, two runs at each grid; Xeon, 2 CPUs).
# The spectrum and the lattice-count trace of volume ... spectral build no
# array, and the kernel's entries are a view of 2N - 1 doubles.
GRID_LIMIT = 4096

# Largest Monte Carlo sample count accepted.  Run time is linear in the count
# and grows with the dimension: on 2 CPUs an estimate at the cap takes about
# 1.2 s (volume) and 1.7 s (cube integral) at n = 8, and 5.2 s and 7.6 s at
# n = 32, the dimension cap.
SAMPLES_LIMIT = 10**8

# Largest n each exact command answers.  Above it, some exact value the
# command prints has more than 4300 decimal digits, Python's default limit on
# int-to-string conversion: the numerator or denominator of pi^-n S(n) or of
# its zeta/L partner from n = 1425, A(n) and A0(n) from n = 1660 (so also
# E_n), the numerator of B_n from n = 2064, the ratio A0(2m)/A(2m) from
# m = 830, and the exact volume of chain/half_pi, A(n)/(2^n n!), from
# n = 1424 (cyclic/half_pi from 1425, chain/unit from 1562, cyclic/unit
# from 1563).  B_n and E_n are rounded from Euler products, so their caps
# cost little: in process, a cold B_2062 takes 0.03 s and E_1658 0.035 s,
# and a whole cold `zigzagsums bernoulli 2062`, `bernoulli 2063` or
# `euler 1658` about 0.2 s, mostly interpreter start and import (Xeon,
# 2 CPUs).
SUMS_LIMIT = 1424
ZIGZAG_LIMIT = 1659
BERNOULLI_LIMIT = 2063
EULER_LIMIT = 1658
RATIO_LIMIT = 829
VOLUME_LIMIT = 1423

# Largest g-eval --terms: each term is an exact S(k) rounded to a float.
# g_eval computes only the terms that can change its double, 66 at |z| = 1/2,
# so the cap costs time only as |z| -> 1: at |z| = 0.99 all 1424 terms (the
# largest n that sums answers) take about 0.6 s cold on 2 CPUs, and the cost
# grows about cubically in the terms computed.
TERMS_LIMIT = 1424

# Largest dimension of the Monte Carlo and spectral trace routes.  Each
# Monte Carlo pool worker draws blocks of BLOCK_ROWS float64 per drawn
# coordinate, 131 kB each: ceil(n/2) coordinates for a volume, n for the
# cube integral, so at most 4.2 MB at n = 32.  A run of several estimates
# holds each chunk's first max dim * 65536 doubles per worker instead:
# 1.5 MB for verify's seven, whose widest has dim 3.  10^6 samples take
# about 0.012 s (volume) and 0.017 s (cube integral) at n = 8, and 0.05 s
# and 0.076 s at n = 32 on 2 CPUs.  The spectral trace counts lattice points in
# O(n^4) integer operations, whatever the grid: at GRID_LIMIT it takes
# 0.07 s at n = 29 and 0.10 s at n = 32 in process, and a whole
# `volume cyclic 32 spectral --grid 4096` 0.15-0.19 s and 16 MB peak RSS
# (Xeon, 2 CPUs).
MC_DIMENSION_LIMIT = 32

VOLUME_METHODS = ("exact", "extensions", "montecarlo", "spectral", "cube-integral")


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            print(f"warning: line {line!r} without '=' in config file {path} ignored", file=sys.stderr)
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in DEFAULTS:
            print(f"warning: unknown key {key!r} in config file {path} ignored", file=sys.stderr)
            continue
        try:
            values[key] = int(raw)
        except ValueError:
            raise ValueError(f"config file {path}: {key} must be an integer, not {raw!r}") from None
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags."""
    merged = dict(DEFAULTS)
    merged.update(_load_config())
    for key in DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    _require(merged["digits"] >= 0, f"digits must be nonnegative, not {merged['digits']}")
    merged["quiet"] = args.quiet
    merged["json"] = args.json
    return merged


def _require(condition: bool, message: str) -> None:
    """Refuse the invocation as a usage error unless condition holds."""
    if not condition:
        raise ValueError(message)


def _bounded(opts: dict, key: str, limit: int) -> int:
    """A resolved grid or sample count, refused before any work if above its limit."""
    value = opts[key]
    _require(value <= limit, f"{key} {value} exceeds the limit of {limit}")
    return value


def _check_n(n: int, limit: int, name: str = "n") -> None:
    """Refuse an n whose exact output would exceed the int-to-string digit limit."""
    _require(
        n <= limit,
        f"{name} {n} exceeds the limit of {limit}: the exact value would have more "
        "than 4300 decimal digits",
    )


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _format_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        first = row[0].rjust(widths[0])
        rest = [cell.ljust(widths[col + 1]) for col, cell in enumerate(row[1:])]
        lines.append(("  " + first + "  " + "  ".join(rest)).rstrip())
    return "\n".join(lines)


def _exact(label: str, value: PiMultiple, digits: int) -> tuple[dict, str]:
    """An exact pi multiple as its JSON dict with the float, and as one text line."""
    number = value.to_float()
    return (
        {**value.as_json_dict(), "float": number},
        f"{label} = {value.text()} ≈ {_fmt(number, digits)}",
    )


def _estimate(estimate: McEstimate, factor: float, digits: int) -> tuple[dict, str]:
    """A Monte Carlo volume estimate scaled by factor, as a JSON dict and a text line."""
    scaled = replace(estimate, mean=estimate.mean * factor, std_error=estimate.std_error * factor)
    return (
        scaled.as_json_dict(),
        f"Vol ≈ {_fmt(scaled.mean, digits)} ± {_fmt(scaled.std_error, digits)} "
        f"(samples={scaled.samples}, seed={scaled.seed})",
    )


def cmd_sums(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    n = args.n
    _check_n(n, SUMS_LIMIT)
    s_json, s_text = _exact(f"S({n})", s_value(n), opts["digits"])
    if n % 2 == 0:
        name, label, coeff = "zeta", f"zeta({n})", zeta_coeff(n)
    else:
        name, label, coeff = "l4", f"L({n}, chi4)", s_coeff_via_euler(n)
    partner_json, partner_text = _exact(label, PiMultiple(coeff, n), opts["digits"])
    return {"n": n, "s": s_json, name: partner_json}, f"{s_text}\n{partner_text}"


def cmd_tables(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    # Each column is its route's value at the n that verify exact checks.
    columns = [
        {str(n): str(getattr(report, route)(n)) for n in values} for _, _, route, values in report.TABLES
    ]
    titles = (
        ("coefficients of pi^n in S(n) and zeta(n), n = 1..10", "pi^-n S(n)", "pi^-n zeta(n)"),
        ("Bernoulli and Euler numbers of even order", "B_n", "E_n"),
        ("alternating permutation counts A(n) and cyclic counts A0(n), n = 1..10", "A(n)", "A0(n)"),
    )
    blocks = []
    for (title, *header), first, second in zip(titles, columns[::2], columns[1::2]):
        rows = [[n, v, second.get(n, "-")] for n, v in first.items()]
        blocks.append(title + "\n" + _format_table([["n", *header], *rows]))
    payload = {entry[0]: column for entry, column in zip(report.TABLES, columns)}
    return payload, "\n\n".join(blocks)


def cmd_volume(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    kind, n, method = args.kind, args.n, args.method
    scale = args.scale or ("half_pi" if kind == "cyclic" else "unit")
    digits = opts["digits"]
    spec = PolytopeSpec(kind, n, scale)

    if method == "exact":
        _check_n(n, VOLUME_LIMIT)
        payload, text = _exact("Vol", volume_formula(spec), digits)
        if kind == "cyclic" and n % 2 == 1 and not opts["quiet"]:
            text += (
                "\nnote: no permutation-count route exists in odd cyclic dimension; "
                "the value is the series-coefficient route"
            )
        return payload, text

    if method == "extensions":
        _require(n <= EXTENSION_LIMIT, f"extension counting supports n <= {EXTENSION_LIMIT}")
        unit_volume = order_polytope_volume(cyclic_poset(n) if kind == "cyclic" else chain_poset(n))
        return _exact("Vol", spec.exact_volume(unit_volume), digits)

    route = "the spectral trace route" if method == "spectral" else "Monte Carlo"
    _require(n <= MC_DIMENSION_LIMIT, f"{route} supports n <= {MC_DIMENSION_LIMIT}")

    if method == "montecarlo":
        samples = _bounded(opts, "samples", SAMPLES_LIMIT)
        return _estimate(mc_volume(spec, samples, opts["seed"]), 1.0, digits)

    # The spectral trace and the cube integral compute the cyclic volume only.
    if method == "cube-integral":
        route = "the cube integral route"
    _require(kind == "cyclic", f"{route} applies to the cyclic polytope only")
    factor = (2 / math.pi) ** n if scale == "unit" else 1.0
    if method == "spectral":
        grid = _bounded(opts, "grid", GRID_LIMIT)
        value = trace_power_nystrom(grid, n) * factor
        text = f"Vol ≈ {_fmt(value, digits)} (matrix trace at grid N={grid})"
        return {"trace": value, "grid": grid}, text

    samples = _bounded(opts, "samples", SAMPLES_LIMIT)
    return _estimate(mc_cube_integral(n, samples, opts["seed"]), factor, digits)


def cmd_ratio_limit(args: argparse.Namespace, opts: dict) -> tuple[list, str]:
    m_max = args.m_max
    _require(m_max >= 1, "m_max must be at least 1")
    _check_n(m_max, RATIO_LIMIT, "m_max")
    digits = opts["digits"]
    target = math.pi / 4
    payload = []
    rows = [["m", "A0(2m)/A(2m)", "ratio", "|ratio - pi/4|", "decay"]]
    previous_error = None
    for m in range(1, m_max + 1):
        ratio = Fraction(cyclic_zigzag(2 * m), zigzag(2 * m))
        exact, approx = str(ratio), float(ratio)
        error = abs(approx - target)
        payload.append({"m": m, "ratio": exact, "ratio_float": approx, "abs_error": error})
        decay = "-" if not previous_error else _fmt(error / previous_error, 3)
        rows.append([str(m), exact, _fmt(approx, digits), _fmt(error, 3), decay])
        previous_error = error
    text = "ratio of cyclic to plain alternating counts; the limit is pi/4\n" + _format_table(rows)
    if not opts["quiet"]:
        text += f"\n  pi/4 ≈ {_fmt(target, digits)} (decay column reported, not asserted)"
    return payload, text


def cmd_verify(args: argparse.Namespace, opts: dict) -> tuple[report.VerificationReport, str]:
    result = report.run_suite(
        suite=args.suite,
        seed=opts["seed"],
        samples=_bounded(opts, "samples", SAMPLES_LIMIT),
        grid=_bounded(opts, "grid", GRID_LIMIT),
    )
    return result, result.render_text(quiet=opts["quiet"])


def cmd_zigzag(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    n = args.n
    _require(n >= 1, "n must be positive")
    _check_n(n, ZIGZAG_LIMIT)
    value = cyclic_zigzag(n) if args.cyclic else zigzag(n)
    return {"n": n, "cyclic": bool(args.cyclic), "count": value}, str(value)


def cmd_bernoulli(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    _check_n(args.n, BERNOULLI_LIMIT)
    value = str(bernoulli(args.n))
    return {"n": args.n, "value": value}, value


def cmd_euler(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    _check_n(args.n, EULER_LIMIT)
    value = euler_number(args.n)
    return {"n": args.n, "value": value}, str(value)


def cmd_g_eval(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    _require(args.terms <= TERMS_LIMIT, f"terms {args.terms} exceeds the limit of {TERMS_LIMIT}")
    closed, series = g_eval(args.z, args.terms)
    diff, digits = abs(closed - series), opts["digits"]
    payload = {
        "z": args.z, "terms": args.terms, "closed": closed, "series": series, "abs_diff": diff
    }
    text = (
        f"closed = {_fmt(closed, digits)}\n"
        f"series = {_fmt(series, digits)} ({args.terms} terms)\n"
        f"|closed - series| = {_fmt(diff, 3)}"
    )
    return payload, text


def cmd_spectrum(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    top = args.top
    grid = _bounded(opts, "grid", GRID_LIMIT)
    digits = opts["digits"]
    eigenvalues = []
    rows = [["k", "approx", "exact 1/(4k+1)", "abs error"]]
    for rank, approx in enumerate(sym_eigenvalues(nystrom_matrix(grid), top)):
        k = _rank_mode(rank)
        exact_value = exact_eigenvalue(rank)
        err = abs(approx - exact_value)
        eigenvalues.append({"k": k, "approx": approx, "exact": exact_value, "abs_error": err})
        rows.append([str(k), _fmt(approx, digits), _fmt(exact_value, digits), _fmt(err, 3)])
    text = f"largest-magnitude matrix eigenvalues at grid N={grid}\n" + _format_table(rows)
    return {"grid": grid, "eigenvalues": eigenvalues}, text


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--digits", type=int, help="significant digits for floats (default 12)")
    common.add_argument("--seed", type=int, help="Monte Carlo seed (default 0)")
    common.add_argument(
        "--samples", type=int, help="Monte Carlo samples (default 10^6, at most 10^8)"
    )
    common.add_argument(
        "--grid",
        type=int,
        help=f"Nystrom grid size (default 2000, at most {GRID_LIMIT}); verify's dense traces"
        " pad it to a multiple of 8 and take their square from one BLAS row block",
    )
    common.add_argument("--quiet", action="store_true", help="suppress secondary output")

    parser = argparse.ArgumentParser(
        prog="zigzagsums",
        description="Exact and cross-verified computation of the sums over 4k+1 "
        "and their zeta, Bernoulli, permutation, polytope, and spectral relatives.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sums", parents=[common], help="exact S(n) with its zeta or L partner")
    p.add_argument("n", type=int, help=f"1 <= n <= {SUMS_LIMIT}")
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("tables", parents=[common], help="reprint the reference tables")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("volume", parents=[common], help="polytope volume by a chosen route")
    p.add_argument("kind", choices=("cyclic", "chain"))
    p.add_argument("n", type=int)
    p.add_argument("method", choices=VOLUME_METHODS)
    p.add_argument("--scale", choices=("unit", "half_pi"))
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("ratio-limit", parents=[common], help="cyclic-to-plain count ratios")
    p.add_argument("m_max", type=int, help=f"1 <= m_max <= {RATIO_LIMIT}")
    p.set_defaults(func=cmd_ratio_limit)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=report.SUITES)
    p.add_argument(
        "--timings",
        action="store_true",
        help="write per-check and per-suite seconds to stderr as JSON lines",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zigzag", parents=[common], help="alternating permutation counts")
    p.add_argument("n", type=int, help=f"1 <= n <= {ZIGZAG_LIMIT}")
    p.add_argument("--cyclic", action="store_true")
    p.set_defaults(func=cmd_zigzag)

    p = sub.add_parser("bernoulli", parents=[common], help="Bernoulli numbers")
    p.add_argument("n", type=int, help=f"0 <= n <= {BERNOULLI_LIMIT}")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("euler", parents=[common], help="Euler numbers of even order")
    p.add_argument("n", type=int, help=f"even, 0 <= n <= {EULER_LIMIT}")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("g-eval", parents=[common], help="generating function, closed vs series")
    p.add_argument("z", type=float)
    p.add_argument("--terms", type=int, default=80, help=f"1 <= terms <= {TERMS_LIMIT}")
    p.set_defaults(func=cmd_g_eval)

    p = sub.add_parser("spectrum", parents=[common], help="matrix eigenvalues vs 1/(4k+1)")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _resolve(args)
        payload, text = args.func(args, opts)
        verified = isinstance(payload, report.VerificationReport)
        if verified and args.timings:
            for entry in payload.timings:
                print(json.dumps(entry), file=sys.stderr)
        if opts["json"]:
            text = payload.to_json() if verified else json.dumps(payload)
        print(text, flush=True)
        return 1 if verified and not payload.all_passed() else 0
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError, RuntimeError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
