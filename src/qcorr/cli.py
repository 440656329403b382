"""Command-line front end.

Subcommands: compute (single point), sweep (parameter grid to CSV), figure
(regenerate the data behind the standard plots), conjecture (ensemble
sweep of gd >= negativity^2) and oracle-compare (closed forms against the
matrix-based oracle). CSV floats carry 12 significant digits; JSON floats
(compute --format json, conjecture) are Python's shortest repr, which reads
back as the same float. Every stochastic path is seeded, so identical flags
give byte-identical output. sweep checks its whole request first, then writes
its rows one grid chunk at a time; the other commands write bounded output.

Exit codes: 0 success, 2 usage, 3 domain, capability, memory or output-file
error, 4 conjecture violation, 1 oracle-compare mismatch, 141 (128 + SIGPIPE)
when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from functools import cache, cached_property, reduce
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import closed_forms as cf
from . import linalg, oracle
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell gives a writer that SIGPIPE ended

# sweep, figure and oracle-compare call each closed form on
# max(1, _CHUNK_FLOATS // d) grid values at a time: an array call holds
# O(values * d), so memory stays O(d + chunk) at any d.
_CHUNK_FLOATS = 1 << 16

CSV_HEADER = "family,d,param_name,param_value,measure,value,method"
# The flags of oracle.OptimizerConfig, in the parsed args only when given.
_OPTIMIZER_FLAGS = ("restarts", "seed")


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
    included) and `oracle` an OraclePoint. A closed-form route given a record
    that holds an array of parameter values returns an array of results.
    Each route looks its library function up when called, so wrapped or
    patched functions are the ones run.
    """

    werner: Callable[[WernerParams], float] | None
    pp: Callable[[PseudoPureParams], float] | None
    oracle: Callable[[OraclePoint], float] | None
    tolerance: float = 1e-6  # largest closed-vs-oracle gap oracle-compare accepts
    optimizes: bool = False  # the oracle route minimizes over measurement bases


MEASURES = {
    "discord": Measure(
        lambda p: cf.werner_discord(p.d, p.lam),
        lambda p: cf.pp_discord(p),
        lambda pt: pt.discord,
        optimizes=True,
    ),
    "cc": Measure(
        lambda p: cf.werner_classical_correlations(p.d, p.lam),
        lambda p: cf.pp_classical_correlations(p),
        lambda pt: pt.mi - pt.discord,
        optimizes=True,
    ),
    "mi": Measure(
        lambda p: cf.werner_mutual_information(p.d, p.lam),
        lambda p: cf.pp_mutual_information(p),
        lambda pt: pt.mi,
    ),
    "gd": Measure(None, lambda p: cf.pp_gd(p), lambda pt: oracle.gd_numeric(pt.rho, pt.cfg),
                  optimizes=True),
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


class Family(NamedTuple):
    """One state family. `params` maps (d, a value or a 1-D array of them,
    Schmidt vector) to the validated parameter record, and `state` the record
    of one value to its DensityMatrix; like the MEASURES routes, each looks
    its library function up when called."""

    param: str  # the mixing parameter: the compute flag and the CSV param_name
    params: Callable
    state: Callable
    route: str  # the Measure field holding the family's closed forms


FAMILIES = {
    "werner": Family("lambda", lambda d, x, u: WernerParams(d, x),
                     lambda p: build_werner(p), "werner"),
    "pp": Family("alpha", lambda d, x, u: PseudoPureParams(d, x, u),
                 lambda p: build_pseudo_pure(p), "pp"),
    "isotropic": Family("alpha", lambda d, x, u: isotropic_params(d, x),
                        lambda p: build_pseudo_pure(p), "pp"),
}


def _closed_fns(family: str, measures: list[str]) -> list[Callable]:
    """The closed form of each of `measures` for `family`; raises if one has none."""
    fns = [getattr(MEASURES[m], FAMILIES[family].route) for m in measures]
    bad = [m for m, fn in zip(measures, fns) if fn is None]
    if bad:
        raise ValueError(f"measure(s) {', '.join(bad)} have no closed form "
                         f"for family {family!r}")
    return fns


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
    return normalized_schmidt(args.schmidt) if args.normalize else args.schmidt


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if start > stop:
        raise ValueError("grid start must not exceed stop")
    intervals = (stop - start) / step + 1e-9
    linalg.check_envelope("grid points", np.floor(intervals) + 1)  # inf when the span overflows
    points = np.minimum(start + np.arange(int(intervals) + 1) * step, stop)
    if stop - points[-1] <= 1e-9 * step:
        points[-1] = stop  # admitted by the slack above, so it stands for stop
    return points


def _check_envelope(d: int, measures: list[str], cfg: oracle.OptimizerConfig) -> None:
    """Raise the error the oracle raises for `measures` at dimension d, before
    any state is built or start drawn: every state is a dense d^2 x d^2 matrix,
    and a measure that optimizes runs the basis search that oracle.check_search bounds."""
    linalg.check_envelope("state side", d * d)
    if any(MEASURES[m].optimizes for m in measures):
        oracle.check_search((d, d), cfg)


def _require_schmidt(parser: argparse.ArgumentParser, args) -> None:
    if args.family == "pp" and args.schmidt is None:
        parser.error("family pp requires --schmidt")
    if args.family != "pp" and args.schmidt is not None:
        parser.error("--schmidt is only valid for family pp")
    if args.normalize and args.schmidt is None:
        parser.error("--normalize is only valid with --schmidt")


def _check_compute_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject another family's mixing parameter, and optimizer flags without --numeric."""
    own = FAMILIES[args.family].param
    for name in (f.param for f in FAMILIES.values() if f.param != own):
        if getattr(args, name) is not None:
            parser.error(f"--{name} is not valid for family {args.family}")
    given = [name for name in _OPTIMIZER_FLAGS if name in vars(args)]
    if given and not args.numeric:
        parser.error(f"--{given[0]} is only valid with --numeric")


def _optimizer_config(args) -> oracle.OptimizerConfig:
    """The basis search setting of the flags given; the others keep their defaults."""
    return oracle.OptimizerConfig(**{k: v for k, v in vars(args).items() if k in _OPTIMIZER_FLAGS})


def _check_out(path: str | None) -> None:
    """Raise the OSError that opening path for writing would raise, before
    any work starts. Creates and truncates nothing, so a run that fails
    later leaves no file behind."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _write(parts: Iterable[str], path: str | None) -> None:
    """Write each text part as it comes, to path or to stdout."""
    if path is None:
        sys.stdout.writelines(parts)
    else:
        with open(path, "w") as handle:
            handle.writelines(parts)


def _closed_chunks(family: str, d: int, grid: np.ndarray, u, fns):
    """Yield (grid values, one array of results per closed form in `fns`) at
    dimension d, one chunk of max(1, _CHUNK_FLOATS // d) grid values at a time."""
    size = max(1, _CHUNK_FLOATS // d)
    for lo in range(0, len(grid), size):
        values = grid[lo:lo + size]
        params = FAMILIES[family].params(d, values, u)
        yield values, [fn(params) for fn in fns]


def _render(template: str, cells: np.ndarray) -> str:
    """`template` once per row of the 2-D float array `cells`, its %.12g slots
    filled with that row's floats in order."""
    return template * len(cells) % tuple(cells.ravel().tolist())


def _value_rows(family: str, d: int, values, results, method: str) -> str:
    """The CSV_HEADER rows of the parameter values `values`: for each value, one
    row per (measure, column) pair in `results`, a column holding one result
    per value."""
    measures, columns = zip(*results)
    head = f"{family},{d},{FAMILIES[family].param},%.12g,"
    template = "".join(f"{head}{measure},%.12g,{method}\n" for measure in measures)
    cells = np.empty((len(values), 2 * len(columns)))
    cells[:, 0::2] = np.asarray(values, dtype=float)[:, None]
    cells[:, 1::2] = np.transpose(columns)
    return _render(template, cells)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compute(parser, args) -> int:
    _require_schmidt(parser, args)
    _check_compute_flags(parser, args)
    cfg = _optimizer_config(args) if args.numeric else None
    _check_out(args.out)
    family = FAMILIES[args.family]
    value = getattr(args, family.param)
    if value is None:
        raise ValueError(f"family {args.family} requires --{family.param}")
    fns = _closed_fns(args.family, args.measures)
    params = family.params(args.d, value, _schmidt_vector(args))
    if args.numeric:
        _check_envelope(args.d, args.measures, cfg)
    results = {"closed": [(m, fn(params)) for m, fn in zip(args.measures, fns)]}
    numeric = [m for m in args.measures if args.numeric and MEASURES[m].oracle is not None]
    if numeric:  # a state is built only for a measure with an oracle route
        point = OraclePoint(family.state(params), cfg)
        results["numeric"] = [(m, MEASURES[m].oracle(point)) for m in numeric]
    if args.format == "json":
        head = (args.family, args.d, family.param, value)
        payload = [dict(zip(CSV_HEADER.split(","), (*head, m, result, method)))
                   for method, pairs in results.items() for m, result in pairs]
        _write([json.dumps(payload, indent=2) + "\n"], args.out)
    else:
        _write([CSV_HEADER + "\n"] + [
            _value_rows(args.family, args.d, [value], [(m, [r]) for m, r in pairs], method)
            for method, pairs in results.items()], args.out)
    return EXIT_OK


def cmd_sweep(parser, args) -> int:
    _require_schmidt(parser, args)
    _check_out(args.out)
    family = args.family
    fns = _closed_fns(family, args.measures)
    u = _schmidt_vector(args)
    grid = _grid(args.start, args.stop, args.step)
    for d in args.d:  # the whole request, before the first row: a bad one writes nothing
        FAMILIES[family].params(d, grid, u)

    def parts():  # one part per chunk, so no more than a chunk of rows is held
        yield CSV_HEADER + "\n"
        for d in args.d:
            for values, columns in _closed_chunks(family, d, grid, u, fns):
                yield _value_rows(family, d, values, zip(args.measures, columns), "closed")

    _write(parts(), args.out)
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
    _check_out(args.out)
    family, label, measures, extra = _FIGURES[args.name]
    dims = args.dims or ([2, 50] if args.name == "fig3" else [2, 3, 10, 50])
    fns = _closed_fns(family, measures)
    grid = np.arange(101) / 100.0
    for d in dims:  # every dimension, before the first chunk
        FAMILIES[family].params(d, grid, None)
    header = [FAMILIES[family].param] + [f"{label}_d{d}" for d in dims]
    columns = [grid] + [np.concatenate([reduce(np.subtract, results) for _, results in
                                        _closed_chunks(family, d, grid, None, fns)]) for d in dims]
    if extra is not None:
        header.append(extra[0])
        columns.append(extra[1](grid))
    template = ",".join(["%.12g"] * len(columns)) + "\n"
    _write([",".join(header) + "\n", _render(template, np.column_stack(columns))], args.out)
    return EXIT_OK


def cmd_conjecture(parser, args) -> int:
    _check_out(args.out)
    report = oracle.conjecture_sweep(args.samples, (args.dmin, args.dmax), args.seed)
    payload = json.dumps(dataclasses.asdict(report), indent=2, default=np.ndarray.tolist)
    _write([payload + "\n"], args.out)
    return EXIT_VIOLATION if report.violations else EXIT_OK


def cmd_oracle_compare(parser, args) -> int:
    _require_schmidt(parser, args)
    _check_out(args.out)
    family, measure, d = FAMILIES[args.family], args.measure, args.d
    fns = _closed_fns(args.family, [measure])
    u = _schmidt_vector(args)
    tolerance = MEASURES[measure].tolerance
    cfg = _optimizer_config(args)
    grid = _grid(args.start, args.stop, args.step)
    family.params(d, grid, u)  # every grid value, before the first point
    _check_envelope(d, [measure], cfg)
    closed = np.concatenate([r for _, (r,) in _closed_chunks(args.family, d, grid, u, fns)])
    points = (OraclePoint(family.state(family.params(d, x, u)), cfg) for x in grid.tolist())
    numeric = np.array([MEASURES[measure].oracle(point) for point in points])
    gaps = np.abs(closed - numeric)
    max_gap = max(0.0, *gaps.tolist())  # passes over a nan gap, where np.max would return nan
    head = f"{args.family},{d},{measure},{family.param},"
    _write(["family,d,measure,param_name,param_value,closed,numeric,abs_gap\n",
            _render(head + "%.12g,%.12g,%.12g,%.12g\n",
                    np.column_stack([grid, closed, numeric, gaps]))], args.out)
    status = "ok" if max_gap <= tolerance else "fail"
    print(
        f"oracle-compare {args.family} d={d} {measure}: "
        f"max_gap={max_gap:.3e} tolerance={tolerance:.0e} {status}",
        file=sys.stderr,
    )
    return EXIT_OK if status == "ok" else EXIT_FAILURE


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_family_options(sub: argparse.ArgumentParser, sweep: bool) -> None:
    sub.add_argument("--family", required=True, choices=list(FAMILIES))
    if sweep:
        sub.add_argument("--d", required=True, type=_parse_int_list, metavar="D1,D2,...")
    else:
        sub.add_argument("--d", required=True, type=int)
    sub.add_argument("--schmidt", type=_parse_float_list, metavar="U1,U2,...",
                     help="Schmidt amplitudes (family pp only)")
    sub.add_argument("--normalize", action="store_true",
                     help="rescale and sort the Schmidt amplitudes")


def _add_optimizer_options(sub: argparse.ArgumentParser) -> None:
    for name in _OPTIMIZER_FLAGS:
        sub.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation measures for Werner, pseudo-pure and isotropic states.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compute = commands.add_parser("compute", help="closed forms at a single parameter point")
    _add_family_options(compute, sweep=False)
    compute.add_argument("--lambda", type=float, metavar="LAM", help="Werner mixing parameter")
    compute.add_argument("--alpha", type=float, help="pseudo-pure / isotropic mixing parameter")
    compute.add_argument("--measures", required=True, type=_parse_measures, metavar="M1,M2,...")
    compute.add_argument("--numeric", action="store_true", help="add matrix-oracle rows")
    _add_optimizer_options(compute)
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
    _add_optimizer_options(compare)
    compare.add_argument("--out")
    compare.set_defaults(func=cmd_oracle_compare)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses, built on its first call and not at import."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except BrokenPipeError:
        # the reader has all it wants: say nothing, and send what stdout still buffers
        # to os.devnull, so that the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError raised without text, as the interpreter's own are, gets a fixed one
        print(f"qcorr: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
