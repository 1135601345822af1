"""Command-line interface.

Subcommands: sums, tables, volume, ratio-limit, verify, zigzag, bernoulli,
euler, g-eval, spectrum.  Exact values always print as a lowest-terms
rational times an explicit pi power; floats are formatted with --digits
significant digits.  Exit codes: 0 success, 1 verification failure, 2 usage
error.

Defaults (grid 2000, samples 10^6, seed 0, digits 12) may be overridden by a
flat key=value config file named by the ZIGZAGSUMS_CONFIG environment
variable, and by command-line flags, in that order of precedence; unknown
config keys are ignored with a warning on stderr.  The grid-using commands
(volume ... spectral, spectrum, verify) refuse a resolved grid above
GRID_LIMIT, and the sampling commands (volume ... montecarlo, volume ...
cube-integral, verify) refuse resolved samples above SAMPLES_LIMIT, with exit
code 2.  sums, zigzag, bernoulli and euler refuse n above SUMS_LIMIT,
ZIGZAG_LIMIT, BERNOULLI_LIMIT and EULER_LIMIT with exit code 2, before any
computation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, report
from .euler_sums import PiMultiple, g_eval, l4_coeff, s_coeff, s_value, zeta_coeff
from .polytope_lab import (
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
    exact_eigenvalue,
    nystrom_matrix,
    sym_eigenvalues,
    trace_power_nystrom,
)

CONFIG_ENV = "ZIGZAGSUMS_CONFIG"

DEFAULTS = {"digits": 12, "seed": 0, "samples": 10**6, "grid": 2000}

# Largest Nystrom grid accepted: the dense N x N matrix takes 8 N^2 bytes
# (134 MB at N = 4096) and the trace route holds several such arrays.
GRID_LIMIT = 4096

# Largest Monte Carlo sample count accepted: about 6 s per estimate at the
# 1.7e7 samples/s measured on 2 CPUs; run time is linear in the count.
SAMPLES_LIMIT = 10**8

# Largest n each exact command answers.  Above it, some exact value the
# command prints has more than 4300 decimal digits, Python's default limit on
# int-to-string conversion: the numerator or denominator of pi^-n S(n) or of
# its zeta/L partner from n = 1425, A(n) and A0(n) from n = 1660 (so also
# E_n), and the numerator of B_n from n = 2064.
SUMS_LIMIT = 1424
ZIGZAG_LIMIT = 1659
BERNOULLI_LIMIT = 2063
EULER_LIMIT = 1658

VOLUME_METHODS = ("exact", "extensions", "montecarlo", "spectral", "cube-integral")


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, _, raw = line.partition("=")
                key = key.strip()
                if key in DEFAULTS:
                    values[key] = int(raw.strip())
                else:
                    print(f"warning: unknown key {key!r} in config file {path} ignored",
                          file=sys.stderr)
    except OSError as exc:
        raise SystemExit(f"cannot read config file {path}: {exc}")
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags."""
    merged = dict(DEFAULTS)
    merged.update(_load_config())
    for key in DEFAULTS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    merged["quiet"] = bool(getattr(args, "quiet", False))
    merged["json"] = bool(getattr(args, "json", False))
    return merged


def _bounded(opts: dict, key: str, limit: int) -> int:
    """A resolved grid or sample count, refused before any work if above its limit."""
    value = opts[key]
    if value > limit:
        raise ValueError(f"{key} {value} exceeds the limit of {limit}")
    return value


def _check_n(n: int, limit: int) -> None:
    """Refuse an n whose exact output would exceed the int-to-string digit limit."""
    if n > limit:
        raise ValueError(
            f"n {n} exceeds the limit of {limit}: the exact value would have more "
            "than 4300 decimal digits"
        )


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _format_table(rows: list[list[str]]) -> str:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for row in rows:
        first = row[0].rjust(widths[0])
        rest = [cell.ljust(widths[col + 1]) for col, cell in enumerate(row[1:])]
        lines.append(("  " + first + "  " + "  ".join(rest)).rstrip())
    return "\n".join(lines)


def cmd_sums(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    n = args.n
    if n < 1:
        return _usage_error("the sum diverges for n < 1; need n >= 1")
    _check_n(n, SUMS_LIMIT)
    value = s_value(n)
    digits = opts["digits"]
    if n % 2 == 0:
        partner_name, partner = "zeta", PiMultiple(zeta_coeff(n), n)
        partner_label = f"zeta({n})"
    else:
        partner_name, partner = "l4", PiMultiple(l4_coeff(n), n)
        partner_label = f"L({n}, chi4)"
    if opts["json"]:
        payload = {
            "n": n,
            "s": {**value.as_json_dict(), "float": value.to_float()},
            partner_name: {**partner.as_json_dict(), "float": partner.to_float()},
        }
        print(json.dumps(payload))
    else:
        print(f"S({n}) = {value.text()} ≈ {_fmt(value.to_float(), digits)}")
        print(f"{partner_label} = {partner.text()} ≈ {_fmt(partner.to_float(), digits)}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    s_rows = {n: str(s_coeff(n)) for n in range(1, 11)}
    zeta_rows = {n: str(zeta_coeff(n)) for n in range(2, 11, 2)}
    bern_rows = {n: str(bernoulli(n)) for n in range(0, 11, 2)}
    euler_rows = {n: str(euler_number(n)) for n in range(0, 9, 2)}
    zig_rows = {n: str(zigzag(n)) for n in range(1, 11)}
    cyc_rows = {n: str(cyclic_zigzag(n)) for n in range(2, 11, 2)}
    if opts["json"]:
        payload = {
            "s_coeff": {str(n): v for n, v in s_rows.items()},
            "zeta_coeff": {str(n): v for n, v in zeta_rows.items()},
            "bernoulli": {str(n): v for n, v in bern_rows.items()},
            "euler": {str(n): v for n, v in euler_rows.items()},
            "zigzag": {str(n): v for n, v in zig_rows.items()},
            "cyclic_zigzag": {str(n): v for n, v in cyc_rows.items()},
        }
        print(json.dumps(payload))
        return 0
    blocks = []
    rows = [["n", "pi^-n S(n)", "pi^-n zeta(n)"]]
    for n in range(1, 11):
        rows.append([str(n), s_rows[n], zeta_rows.get(n, "-")])
    blocks.append("coefficients of pi^n in S(n) and zeta(n), n = 1..10\n" + _format_table(rows))
    rows = [["n", "B_n", "E_n"]]
    for n in range(0, 11, 2):
        rows.append([str(n), bern_rows[n], euler_rows.get(n, "-")])
    blocks.append("Bernoulli and Euler numbers of even order\n" + _format_table(rows))
    rows = [["n", "A(n)", "A0(n)"]]
    for n in range(1, 11):
        rows.append([str(n), zig_rows[n], cyc_rows.get(n, "-")])
    blocks.append(
        "alternating permutation counts A(n) and cyclic counts A0(n), n = 1..10\n"
        + _format_table(rows)
    )
    print("\n\n".join(blocks))
    return 0


def _scaled_estimate(estimate, factor: float):
    return {
        "mean": estimate.mean * factor,
        "std_error": estimate.std_error * factor,
        "samples": estimate.samples,
        "seed": estimate.seed,
    }


def cmd_volume(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    kind, n, method = args.kind, args.n, args.method
    scale = args.scale or ("half_pi" if kind == "cyclic" else "unit")
    digits = opts["digits"]
    if n < 1:
        return _usage_error("dimension must be positive")
    if kind == "cyclic" and n < 2:
        return _usage_error("the cyclic polytope requires n >= 2")
    spec = PolytopeSpec(kind, n, scale)

    if method == "exact":
        value = volume_formula(spec)
        if opts["json"]:
            print(json.dumps({**value.as_json_dict(), "float": value.to_float()}))
        else:
            print(f"Vol = {value.text()} ≈ {_fmt(value.to_float(), digits)}")
            if kind == "cyclic" and n % 2 == 1 and not opts["quiet"]:
                print(
                    "note: no permutation-count route exists in odd cyclic dimension; "
                    "the value is the series-coefficient route"
                )
        return 0

    if method == "extensions":
        if n > 10:
            return _usage_error("extension counting supports n <= 10")
        if kind == "cyclic" and n % 2 != 0:
            return _usage_error("the cyclic zigzag order requires even n")
        poset = cyclic_poset(n) if kind == "cyclic" else chain_poset(n)
        unit_volume = order_polytope_volume(poset)
        if scale == "half_pi":
            value = PiMultiple(unit_volume / 2**n, n)
        else:
            value = PiMultiple(unit_volume, 0)
        if opts["json"]:
            print(json.dumps({**value.as_json_dict(), "float": value.to_float()}))
        else:
            print(f"Vol = {value.text()} ≈ {_fmt(value.to_float(), digits)}")
        return 0

    if method == "montecarlo":
        samples = _bounded(opts, "samples", SAMPLES_LIMIT)
        estimate = mc_volume(spec, samples, opts["seed"])
        if opts["json"]:
            print(json.dumps(estimate.as_json_dict()))
        else:
            print(
                f"Vol ≈ {_fmt(estimate.mean, digits)} ± {_fmt(estimate.std_error, digits)} "
                f"(samples={estimate.samples}, seed={estimate.seed})"
            )
        return 0

    if method == "spectral":
        if kind != "cyclic":
            return _usage_error("the spectral trace route applies to the cyclic polytope only")
        if n < 2:
            return _usage_error("the spectral trace route requires n >= 2")
        grid = _bounded(opts, "grid", GRID_LIMIT)
        factor = (2 / math.pi) ** n if scale == "unit" else 1.0
        value = trace_power_nystrom(grid, n) * factor
        if opts["json"]:
            print(json.dumps({"trace": value, "grid": grid}))
        else:
            print(f"Vol ≈ {_fmt(value, digits)} (matrix trace at grid N={grid})")
        return 0

    if method == "cube-integral":
        if kind != "cyclic":
            return _usage_error("the cube integral equals the cyclic volume; use kind=cyclic")
        if n < 2:
            return _usage_error("the cube integral route requires n >= 2")
        samples = _bounded(opts, "samples", SAMPLES_LIMIT)
        estimate = mc_cube_integral(n, samples, opts["seed"])
        factor = (2 / math.pi) ** n if scale == "unit" else 1.0
        payload = _scaled_estimate(estimate, factor)
        if opts["json"]:
            print(json.dumps(payload))
        else:
            print(
                f"Vol ≈ {_fmt(payload['mean'], digits)} ± {_fmt(payload['std_error'], digits)} "
                f"(samples={payload['samples']}, seed={payload['seed']})"
            )
        return 0

    return _usage_error(f"unknown method {method!r}")


def cmd_ratio_limit(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    m_max = args.m_max
    if m_max < 1:
        return _usage_error("m_max must be at least 1")
    digits = opts["digits"]
    target = math.pi / 4
    entries = []
    for m in range(1, m_max + 1):
        ratio = Fraction(cyclic_zigzag(2 * m), zigzag(2 * m))
        error = abs(float(ratio) - target)
        entries.append((m, ratio, error))
    if opts["json"]:
        payload = [
            {"m": m, "ratio": str(r), "ratio_float": float(r), "abs_error": e}
            for m, r, e in entries
        ]
        print(json.dumps(payload))
        return 0
    rows = [["m", "A0(2m)/A(2m)", "ratio", "|ratio - pi/4|", "decay"]]
    previous_error = None
    for m, ratio, error in entries:
        decay = "-" if not previous_error else _fmt(error / previous_error, 3)
        rows.append([str(m), str(ratio), _fmt(float(ratio), digits), _fmt(error, 3), decay])
        previous_error = error
    print("ratio of cyclic to plain alternating counts; the limit is pi/4")
    print(_format_table(rows))
    if not opts["quiet"]:
        print(f"  pi/4 ≈ {_fmt(target, digits)} (decay column reported, not asserted)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    result = report.run_suite(
        suite=args.suite,
        seed=opts["seed"],
        samples=_bounded(opts, "samples", SAMPLES_LIMIT),
        grid=_bounded(opts, "grid", GRID_LIMIT),
    )
    if opts["json"]:
        print(result.to_json())
    else:
        print(result.render_text(quiet=opts["quiet"]))
    return 0 if result.all_passed() else 1


def cmd_zigzag(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    n = args.n
    if n < 1:
        return _usage_error("n must be positive")
    _check_n(n, ZIGZAG_LIMIT)
    if args.cyclic:
        if n % 2 != 0:
            return _usage_error("cyclic counts require even n")
        value = cyclic_zigzag(n)
    else:
        value = zigzag(n)
    if opts["json"]:
        print(json.dumps({"n": n, "cyclic": bool(args.cyclic), "count": value}))
    else:
        print(value)
    return 0


def cmd_bernoulli(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    if args.n < 0:
        return _usage_error("n must be nonnegative")
    _check_n(args.n, BERNOULLI_LIMIT)
    value = bernoulli(args.n)
    if opts["json"]:
        print(json.dumps({"n": args.n, "value": str(value)}))
    else:
        print(value)
    return 0


def cmd_euler(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    if args.n < 0 or args.n % 2 != 0:
        return _usage_error("Euler numbers are reported for even n >= 0")
    _check_n(args.n, EULER_LIMIT)
    value = euler_number(args.n)
    if opts["json"]:
        print(json.dumps({"n": args.n, "value": value}))
    else:
        print(value)
    return 0


def cmd_g_eval(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    if not -1.0 < args.z < 1.0:
        return _usage_error("need |z| < 1; the generating function has a pole at z = 1")
    closed, series = g_eval(args.z, args.terms)
    digits = opts["digits"]
    if opts["json"]:
        print(
            json.dumps(
                {
                    "z": args.z,
                    "terms": args.terms,
                    "closed": closed,
                    "series": series,
                    "abs_diff": abs(closed - series),
                }
            )
        )
    else:
        print(f"closed = {_fmt(closed, digits)}")
        print(f"series = {_fmt(series, digits)} ({args.terms} terms)")
        print(f"|closed - series| = {_fmt(abs(closed - series), 3)}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    opts = _resolve(args)
    top = args.top
    grid = _bounded(opts, "grid", GRID_LIMIT)
    if top < 1:
        return _usage_error("top must be at least 1")
    if top > grid:
        return _usage_error("top cannot exceed the grid size")
    digits = opts["digits"]
    approximations = sym_eigenvalues(nystrom_matrix(grid), top)
    entries = []
    for rank, approx in enumerate(approximations):
        k = (rank + 1) // 2 * (1 if rank % 2 == 0 else -1)
        exact_value = exact_eigenvalue(rank)
        entries.append((k, approx, exact_value, abs(approx - exact_value)))
    if opts["json"]:
        payload = [
            {"k": k, "approx": a, "exact": e, "abs_error": err}
            for k, a, e, err in entries
        ]
        print(json.dumps({"grid": grid, "eigenvalues": payload}))
        return 0
    rows = [["k", "approx", "exact 1/(4k+1)", "abs error"]]
    for k, approx, exact_value, err in entries:
        rows.append([str(k), _fmt(approx, digits), _fmt(exact_value, digits), _fmt(err, 3)])
    print(f"largest-magnitude matrix eigenvalues at grid N={grid}")
    print(_format_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--digits", type=int, help="significant digits for floats (default 12)")
    common.add_argument("--seed", type=int, help="Monte Carlo seed (default 0)")
    common.add_argument(
        "--samples", type=int, help="Monte Carlo samples (default 10^6, at most 10^8)"
    )
    common.add_argument(
        "--grid", type=int, help=f"Nystrom grid size (default 2000, at most {GRID_LIMIT})"
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
    p.add_argument("m_max", type=int)
    p.set_defaults(func=cmd_ratio_limit)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=report.SUITES)
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
    p.add_argument("--terms", type=int, default=80)
    p.set_defaults(func=cmd_g_eval)

    p = sub.add_parser("spectrum", parents=[common], help="matrix eigenvalues vs 1/(4k+1)")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, OverflowError, MemoryError) as exc:
        return _usage_error(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
