"""Command-line front end.

Subcommands: compute (single point), sweep (parameter grid to CSV), figure
(regenerate the data behind the standard plots), conjecture (ensemble
sweep of gd >= negativity^2) and oracle-compare (closed forms against the
matrix-based oracle). Output is CSV or JSON with floats at 12 significant
digits; every stochastic path is seeded, so identical flags give
byte-identical output.

Exit codes: 0 success, 2 usage, 3 domain or capability error,
4 conjecture violation, 1 oracle-compare mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from functools import cached_property, reduce
from typing import Callable, NamedTuple

from . import closed_forms as cf
from . import oracle
from .states import (
    PseudoPureParams,
    WernerParams,
    build_pseudo_pure,
    build_werner,
    isotropic_params,
    normalized_schmidt,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VIOLATION = 4

# Largest parameter grid sweep and oracle-compare accept, checked before building it.
MAX_GRID_POINTS = 10**6

CSV_HEADER = "family,d,param_name,param_value,measure,value,method"


class OraclePoint:
    """One state and optimizer setting; discord and mutual information run at most once."""

    def __init__(self, rho, cfg: oracle.OptimizerConfig):
        self.rho = rho
        self.cfg = cfg

    @cached_property
    def discord(self) -> float:
        return oracle.discord_numeric(self.rho, self.cfg)

    @cached_property
    def mi(self) -> float:
        return oracle.mutual_information_numeric(self.rho)


class Measure(NamedTuple):
    """The routes to one measure; a route the measure lacks is None.

    `werner` takes a WernerParams, `pp` a PseudoPureParams (isotropic states
    included) and `oracle` an OraclePoint. Each route looks its library
    function up when called, so wrapped or patched functions are the ones run.
    """

    werner: Callable[[WernerParams], float] | None
    pp: Callable[[PseudoPureParams], float] | None
    oracle: Callable[[OraclePoint], float] | None
    tolerance: float = 1e-6  # largest closed-vs-oracle gap oracle-compare accepts


MEASURES = {
    "discord": Measure(
        lambda p: cf.werner_discord(p.d, p.lam),
        lambda p: cf.pp_discord(p),
        lambda pt: pt.discord,
    ),
    "cc": Measure(
        lambda p: cf.werner_classical_correlations(p.d, p.lam),
        lambda p: cf.pp_classical_correlations(p),
        lambda pt: pt.mi - pt.discord,
    ),
    "mi": Measure(
        lambda p: cf.werner_mutual_information(p.d, p.lam),
        lambda p: cf.pp_mutual_information(p),
        lambda pt: pt.mi,
    ),
    "gd": Measure(None, lambda p: cf.pp_gd(p), lambda pt: oracle.gd_numeric(pt.rho, pt.cfg)),
    "negativity": Measure(
        None, lambda p: cf.pp_negativity(p), lambda pt: oracle.negativity_numeric(pt.rho),
        tolerance=1e-9,
    ),
    "eof": Measure(lambda p: cf.werner_eof(p.lam), None, None),
    "asymptote": Measure(
        lambda p: cf.werner_discord_asymptote(p.lam),
        lambda p: cf.pp_discord_asymptote(p.alpha, p.schmidt),
        None,
    ),
}


def _closed_fn(family: str, measure: str):
    """The closed form of `measure` for `family`, or None if it has none."""
    entry = MEASURES[measure]
    return entry.werner if family == "werner" else entry.pp


def _params(family: str, d: int, value: float, u):
    """The validated parameter record of one (d, value) point."""
    if family == "werner":
        return WernerParams(d, value)
    if family == "isotropic":
        return isotropic_params(d, value)
    return PseudoPureParams(d, value, u)


def _state(family: str, params):
    return build_werner(params) if family == "werner" else build_pseudo_pure(params)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _parse_measures(text: str) -> list[str]:
    names = [m.strip() for m in text.split(",") if m.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no measures given")
    for name in names:
        if name not in MEASURES:
            raise argparse.ArgumentTypeError(
                f"unknown measure {name!r}; choose from {', '.join(MEASURES)}"
            )
    return names


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _schmidt_vector(args):
    if args.schmidt is None or not args.normalize:
        return args.schmidt
    return normalized_schmidt(args.schmidt)


def _grid(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if start > stop:
        raise ValueError("grid start must not exceed stop")
    intervals = (stop - start) / step + 1e-9
    if intervals >= MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
    points = [min(start + i * step, stop) for i in range(int(intervals) + 1)]
    if stop - points[-1] <= 1e-9 * step:
        points[-1] = stop  # admitted by the slack above, so it stands for stop
    return points


def _check_measures(family: str, measures: list[str]) -> None:
    bad = [m for m in measures if _closed_fn(family, m) is None]
    if bad:
        raise ValueError(f"measure(s) {', '.join(bad)} have no closed form "
                         f"for family {family!r}")


def _param_name(family: str) -> str:
    return "lambda" if family == "werner" else "alpha"


def _param_value(args) -> float:
    value = args.lam if args.family == "werner" else args.alpha
    if value is None:
        raise ValueError(f"family {args.family} requires --{_param_name(args.family)}")
    return value


def _require_schmidt(parser: argparse.ArgumentParser, args) -> None:
    if args.family == "pp" and args.schmidt is None:
        parser.error("family pp requires --schmidt")
    if args.family != "pp" and args.schmidt is not None:
        parser.error("--schmidt is only valid for family pp")


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _record(family: str, d: int, value: float, measure: str, result: float, method: str):
    """One output row, its fields in CSV_HEADER order."""
    return (family, d, _param_name(family), value, measure, result, method)


def _records_csv(records: list[tuple]) -> str:
    lines = [CSV_HEADER] + [
        ",".join([family, str(d), name, _fmt(value), measure, _fmt(result), method])
        for family, d, name, value, measure, result, method in records
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compute(parser, args) -> int:
    _require_schmidt(parser, args)
    family, value = args.family, _param_value(args)
    _check_measures(family, args.measures)
    params = _params(family, args.d, value, _schmidt_vector(args))
    records = [_record(family, args.d, value, m, _closed_fn(family, m)(params), "closed")
               for m in args.measures]
    if args.numeric:
        cfg = oracle.OptimizerConfig(restarts=args.restarts, seed=args.seed)
        point = OraclePoint(_state(family, params), cfg)
        records += [_record(family, args.d, value, m, MEASURES[m].oracle(point), "numeric")
                    for m in args.measures if MEASURES[m].oracle is not None]
    if args.format == "json":
        payload = [dict(zip(CSV_HEADER.split(","), rec)) for rec in records]
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _write(_records_csv(records), args.out)
    return EXIT_OK


def cmd_sweep(parser, args) -> int:
    _require_schmidt(parser, args)
    family = args.family
    _check_measures(family, args.measures)
    u = _schmidt_vector(args)
    grid = _grid(args.start, args.stop, args.step)
    fns = [(m, _closed_fn(family, m)) for m in args.measures]
    records = []
    for d in args.d:
        for value in grid:
            params = _params(family, d, value, u)
            records += [_record(family, d, value, m, fn(params), "closed") for m, fn in fns]
    _write(_records_csv(records), args.out)
    return EXIT_OK


# Figure name -> (family, column label, measures, extra column). Each
# dimension gets a column holding the closed form of the first measure minus
# those of the others; the optional extra column is a function of the grid
# value alone.
_FIGURES = {
    "fig1": ("werner", "discord", ("discord",), None),
    "fig2": ("werner", "cc", ("cc",), None),
    "fig3": ("werner", "discord", ("discord",), ("eof", lambda lam: cf.werner_eof(lam))),
    "fig4": ("isotropic", "discord", ("discord",), None),
    "fig5": ("isotropic", "cc", ("cc",), None),
    "fig6": ("isotropic", "diff", ("discord", "cc"),
             ("binary_entropy", lambda alpha: cf.binary_entropy(alpha))),
}


def cmd_figure(parser, args) -> int:
    family, label, measures, extra = _FIGURES[args.name]
    dims = args.dims or ([2, 50] if args.name == "fig3" else [2, 3, 10, 50])
    fns = [_closed_fn(family, m) for m in measures]
    header = [_param_name(family)] + [f"{label}_d{d}" for d in dims]
    lines = [",".join(header + ([extra[0]] if extra else []))]
    for x in (i / 100.0 for i in range(101)):
        params = [_params(family, d, x, None) for d in dims]
        row = [x] + [reduce(operator.sub, (fn(p) for fn in fns)) for p in params]
        if extra is not None:
            row.append(extra[1](x))
        lines.append(",".join(map(_fmt, row)))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_conjecture(parser, args) -> int:
    report = oracle.conjecture_sweep(args.samples, (args.dmin, args.dmax), args.seed)
    payload = {
        "samples": report.samples,
        "min_gap": report.min_gap,
        "violations": report.violations,
        "worst_case": {
            "d": report.worst_case.d,
            "alpha": report.worst_case.alpha,
            "schmidt": [float(x) for x in report.worst_case.schmidt],
        },
        "checked": report.checked,
        "max_gd_gap": report.max_gd_gap,
        "max_negativity_gap": report.max_negativity_gap,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_oracle_compare(parser, args) -> int:
    _require_schmidt(parser, args)
    family, measure = args.family, args.measure
    closed_fn = _closed_fn(family, measure)
    if closed_fn is None:
        raise ValueError(f"measure {measure!r} has no closed form for family {family!r}")
    u = _schmidt_vector(args)
    tolerance = MEASURES[measure].tolerance
    cfg = oracle.OptimizerConfig(restarts=args.restarts, seed=args.seed)
    lines = ["family,d,measure,param_name,param_value,closed,numeric,abs_gap"]
    max_gap = 0.0
    for value in _grid(args.start, args.stop, args.step):
        params = _params(family, args.d, value, u)
        closed = closed_fn(params)
        numeric = MEASURES[measure].oracle(OraclePoint(_state(family, params), cfg))
        gap = abs(closed - numeric)
        max_gap = max(max_gap, gap)
        lines.append(",".join([family, str(args.d), measure, _param_name(family),
                               *map(_fmt, (value, closed, numeric, gap))]))
    _write("\n".join(lines) + "\n", args.out)
    status = "ok" if max_gap <= tolerance else "fail"
    print(
        f"oracle-compare {family} d={args.d} {measure}: "
        f"max_gap={max_gap:.3e} tolerance={tolerance:.0e} {status}",
        file=sys.stderr,
    )
    return EXIT_OK if status == "ok" else EXIT_FAILURE


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_family_options(sub: argparse.ArgumentParser, sweep: bool) -> None:
    sub.add_argument("--family", required=True, choices=("werner", "pp", "isotropic"))
    if sweep:
        sub.add_argument("--d", required=True, type=_parse_int_list, metavar="D1,D2,...")
    else:
        sub.add_argument("--d", required=True, type=int)
    sub.add_argument("--schmidt", type=_parse_float_list, metavar="U1,U2,...",
                     help="Schmidt amplitudes (family pp only)")
    sub.add_argument("--normalize", action="store_true",
                     help="rescale and sort the Schmidt amplitudes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation measures for Werner, pseudo-pure and isotropic states.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compute = commands.add_parser("compute", help="closed forms at a single parameter point")
    _add_family_options(compute, sweep=False)
    compute.add_argument("--lambda", dest="lam", type=float, help="Werner mixing parameter")
    compute.add_argument("--alpha", type=float, help="pseudo-pure / isotropic mixing parameter")
    compute.add_argument("--measures", required=True, type=_parse_measures, metavar="M1,M2,...")
    compute.add_argument("--numeric", action="store_true", help="add matrix-oracle rows")
    compute.add_argument("--restarts", type=int, default=oracle.OptimizerConfig.restarts)
    compute.add_argument("--seed", type=int, default=oracle.OptimizerConfig.seed)
    compute.add_argument("--format", choices=("csv", "json"), default="csv")
    compute.add_argument("--out")
    compute.set_defaults(func=cmd_compute)

    sweep = commands.add_parser("sweep", help="closed forms over a parameter grid (CSV)")
    _add_family_options(sweep, sweep=True)
    sweep.add_argument("--start", required=True, type=float)
    sweep.add_argument("--stop", required=True, type=float)
    sweep.add_argument("--step", required=True, type=float)
    sweep.add_argument("--measures", required=True, type=_parse_measures, metavar="M1,M2,...")
    sweep.add_argument("--out")
    sweep.set_defaults(func=cmd_sweep)

    figure = commands.add_parser("figure", help="regenerate the data behind a standard figure")
    figure.add_argument("name", choices=sorted(_FIGURES))
    figure.add_argument("--dims", type=_parse_int_list, metavar="D1,D2,...")
    figure.add_argument("--out")
    figure.set_defaults(func=cmd_figure)

    conjecture = commands.add_parser(
        "conjecture", help="ensemble check of gd >= negativity^2 on pseudo-pure states"
    )
    conjecture.add_argument("--samples", required=True, type=int)
    conjecture.add_argument("--dmin", type=int, default=2)
    conjecture.add_argument("--dmax", type=int, default=6)
    conjecture.add_argument("--seed", type=int, default=42)
    conjecture.add_argument("--out")
    conjecture.set_defaults(func=cmd_conjecture)

    compare = commands.add_parser("oracle-compare", help="closed form vs matrix oracle over a grid")
    _add_family_options(compare, sweep=False)
    compare.add_argument("--measure", required=True,
                         choices=sorted(m for m, entry in MEASURES.items() if entry.oracle))
    compare.add_argument("--start", required=True, type=float)
    compare.add_argument("--stop", required=True, type=float)
    compare.add_argument("--step", required=True, type=float)
    compare.add_argument("--restarts", type=int, default=oracle.OptimizerConfig.restarts)
    compare.add_argument("--seed", type=int, default=oracle.OptimizerConfig.seed)
    compare.add_argument("--out")
    compare.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ValueError as exc:
        print(f"qcorr: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
