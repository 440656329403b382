"""Seeded inputs, batches and output checks for the three benchmark workloads.

A batch is a fixed list of qcorr CLI invocations built from the workload
seed alone. Checking needs qcorr itself (the closed forms are the
reference), so the check functions import it lazily; building a batch
needs only the standard library.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("oracle-small-d", "oracle-large-d", "closed-forms")
ORACLE_DIMS = {"oracle-small-d": (2, 3, 4), "oracle-large-d": (5, 6)}

# Restarts per optimisation, taken from the repo's own use of the oracle:
# - 32, the CLI and OptimizerConfig default, is what acceptance criteria 3
#   and 12 use for discord (tests/test_acceptance.py:69, :272);
# - 6 is what criteria 5 and 12 use for gd (:104, :280);
# - 8 is criterion 11's count for the discord minimisation (:222). Discord
#   on pseudo-pure states at d = 3 and up uses it: at 32 restarts one such
#   point took 2.5-7.5 s at d = 3, and restarts run one after another, so
#   a d = 6 point (5-8 s at 8 restarts) would take four times as long and
#   a batch would no longer fit a run;
# - 4 is what `conjecture_sweep` uses for gd at every d up to 6
#   (src/qcorr/oracle.py:397), so gd at d = 5 and 6 uses it.
RESTARTS_DEFAULT = 32
RESTARTS_GD = 6
RESTARTS_DISCORD = 8
RESTARTS_GD_LARGE = 4

# Acceptance tolerances for closed form against the matrix oracle.
ORACLE_TOL = {"discord": 1e-6, "cc": 1e-6, "mi": 1e-6, "gd": 1e-6, "negativity": 1e-9}
# CLI floats carry 12 significant digits; a wrong formula misses by far more.
CLOSED_REL_TOL = 1e-9
CLOSED_ABS_TOL = 1e-12

PP_MEASURES = ("discord", "cc", "mi", "gd", "negativity", "asymptote")
WERNER_MEASURES = ("discord", "cc", "mi", "eof", "asymptote")
NUMERIC_ALL = ("discord", "cc", "mi", "gd", "negativity")

SWEEP_POINTS = 2048          # grid points per (family, d); 50 rows per point
SWEEP_STEP = 1.0 / 4096      # dyadic, so start + i * step is exact
# Sizes are fixed, so every seed does the same amount of closed-form work;
# the seed sets grid offsets, Schmidt vectors and parameters.
SWEEP_DIMS = (2, 4, 8, 12)
SWEEP_PP_DIM = 6
FIGURE_DIMS = (2, 3, 10, 50)  # the `figure` command's own defaults
FIGURE3_DIMS = (2, 50)
LARGE_DIMS = (1000, 4000, 8000)
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


@dataclass
class Invocation:
    """One CLI call, what it is for, and what its output must contain."""

    argv: list[str]
    part: str                  # workload section, used to group spans and RSS marks
    kind: str                  # compute | oracle-compare | sweep | figure
    spec: dict = field(default_factory=dict)

    @property
    def oracle_points(self) -> int:
        """Oracle points this call evaluates (each is one operation)."""
        return self.spec.get("oracle_points", 0)


def _num(x: float) -> str:
    return repr(float(x))


def _grid(rng: random.Random, lo: float, hi: float, step: float, n: int) -> list[float]:
    """n points start + i*step with a seeded start, all inside [lo, hi]."""
    start = rng.uniform(lo, hi - (n - 1) * step)
    return [start + i * step for i in range(n)]


def _grid_args(points: list[float], step: float) -> list[str]:
    return ["--start", _num(points[0]), "--stop", _num(points[-1]), "--step", _num(step)]


def _schmidt(rng: random.Random, d: int) -> list[float]:
    """Raw amplitudes |z| of complex Gaussians; the CLI normalizes and sorts them."""
    return [math.hypot(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(d)]


def _schmidt_args(raw: list[float]) -> list[str]:
    return ["--schmidt", ",".join(_num(x) for x in raw), "--normalize"]


def _oracle_compare(family, d, measure, points, step, raw=None, seed=0,
                    restarts=RESTARTS_DEFAULT) -> Invocation:
    argv = ["oracle-compare", "--family", family, "--d", str(d), "--measure", measure]
    argv += _grid_args(points, step)
    if raw is not None:
        argv += _schmidt_args(raw)
    if measure != "negativity":
        argv += ["--restarts", str(restarts), "--seed", str(seed)]
    spec = {"family": family, "d": d, "measure": measure, "points": points,
            "schmidt": raw, "oracle_points": len(points)}
    return Invocation(argv, "oracle-compare", "oracle-compare", spec)


def _compute(family, d, param, measures, raw=None, numeric=False, seed=0, part="compute",
             restarts=RESTARTS_DEFAULT):
    flag = "--lambda" if family == "werner" else "--alpha"
    argv = ["compute", "--family", family, "--d", str(d), flag, _num(param),
            "--measures", ",".join(measures)]
    if raw is not None:
        argv += _schmidt_args(raw)
    if numeric:
        argv += ["--numeric", "--restarts", str(restarts), "--seed", str(seed)]
    spec = {"family": family, "d": d, "param": param, "measures": list(measures),
            "schmidt": raw, "numeric": numeric,
            "oracle_points": len(measures) if numeric else 0}
    return Invocation(argv, part, "compute", spec)


def _oracle_small_d(rng: random.Random) -> list[Invocation]:
    seed = lambda: rng.randrange(1 << 20)  # noqa: E731 - optimizer seed per call
    # Many short items, each pseudo-pure one with its own Schmidt vector:
    # the cost of an optimisation depends on the state, so independent
    # states keep the batch cost steadier across seeds.
    batch = [_oracle_compare("werner", 2, "discord", [rng.uniform(0.0, 1.0)], 0.1,
                             seed=seed())]
    for _ in range(2):
        batch.append(_oracle_compare("pp", 3, "discord", [rng.uniform(0.1, 0.9)], 0.1,
                                     _schmidt(rng, 3), seed(), RESTARTS_DISCORD))
    for _ in range(3):
        batch.append(_oracle_compare("pp", 3, "gd", [rng.uniform(0.1, 0.9)], 0.1,
                                     _schmidt(rng, 3), seed(), RESTARTS_GD))
    for d in (2, 3, 4):
        batch.append(_oracle_compare("isotropic", d, "negativity",
                                     _grid(rng, 0.0, 1.0, 0.09, 11), 0.09))
    batch += [
        _compute("isotropic", 2, rng.uniform(0.1, 0.9), ("discord", "gd", "negativity"),
                 numeric=True, seed=seed()),
        # discord and cc both run the optimizer on the same state
        _compute("pp", 2, rng.uniform(0.1, 0.9), NUMERIC_ALL, _schmidt(rng, 2),
                 numeric=True, seed=seed()),
        # pseudo-pure discord at d = 4, where the random restarts miss
        _compute("pp", 4, rng.uniform(0.1, 0.9), ("discord", "negativity"), _schmidt(rng, 4),
                 numeric=True, seed=seed(), restarts=RESTARTS_DISCORD),
        _compute("pp", 4, rng.uniform(0.1, 0.9), ("gd",), _schmidt(rng, 4), numeric=True,
                 seed=seed(), restarts=RESTARTS_GD),
    ]
    return batch


def _oracle_large_d(rng: random.Random) -> list[Invocation]:
    batch = []
    for d, measure, restarts in ((5, "discord", RESTARTS_DISCORD),
                                 (6, "discord", RESTARTS_DISCORD),
                                 (5, "gd", RESTARTS_GD_LARGE), (6, "gd", RESTARTS_GD_LARGE)):
        batch.append(_compute("pp", d, rng.uniform(0.2, 0.9), (measure,), _schmidt(rng, d),
                              numeric=True, seed=rng.randrange(1 << 20), restarts=restarts))
    return batch


def _sweep(family, dims, points, measures, raw=None) -> Invocation:
    argv = ["sweep", "--family", family, "--d", ",".join(map(str, dims)),
            "--measures", ",".join(measures)] + _grid_args(points, SWEEP_STEP)
    if raw is not None:
        argv += _schmidt_args(raw)
    spec = {"family": family, "dims": dims, "points": points, "measures": list(measures),
            "schmidt": raw}
    return Invocation(argv, "sweep", "sweep", spec)


def _closed_forms(rng: random.Random) -> list[Invocation]:
    def points():
        start = rng.randrange(0, 4096 - SWEEP_POINTS + 2) * SWEEP_STEP
        return [start + i * SWEEP_STEP for i in range(SWEEP_POINTS)]

    batch = [
        _sweep("werner", list(SWEEP_DIMS), points(), WERNER_MEASURES),
        _sweep("isotropic", list(SWEEP_DIMS), points(), PP_MEASURES),
        _sweep("pp", [SWEEP_PP_DIM], points(), PP_MEASURES, _schmidt(rng, SWEEP_PP_DIM)),
    ]
    for name in FIGURES:
        dims = list(FIGURE3_DIMS if name == "fig3" else FIGURE_DIMS)
        argv = ["figure", name, "--dims", ",".join(map(str, dims))]
        batch.append(Invocation(argv, "figure", "figure", {"name": name, "dims": dims}))
    for d in LARGE_DIMS:
        batch.append(_compute("pp", d, rng.uniform(0.05, 0.95), NUMERIC_ALL, _schmidt(rng, d),
                              part=f"large-d.d{d}"))
    return batch


def build_batch(workload: str, seed: int) -> list[Invocation]:
    """The workload's fixed batch for `seed`; equal seeds give equal batches."""
    make = {"oracle-small-d": _oracle_small_d, "oracle-large-d": _oracle_large_d,
            "closed-forms": _closed_forms}[workload]
    return make(random.Random(f"{workload}/{seed}"))


def build_warmup(workload: str) -> list[Invocation]:
    """A few tiny calls through the same code paths, run before timing."""
    rng = random.Random(f"warmup/{workload}")
    if workload == "closed-forms":
        pts = [i * SWEEP_STEP for i in range(8)]
        return [_sweep("werner", [2], pts, WERNER_MEASURES),
                _sweep("isotropic", [3], pts, PP_MEASURES),
                _sweep("pp", [3], pts, PP_MEASURES, _schmidt(rng, 3)),
                Invocation(["figure", "fig6", "--dims", "2"], "figure", "figure",
                           {"name": "fig6", "dims": [2]}),
                _compute("pp", 50, 0.5, NUMERIC_ALL, _schmidt(rng, 50))]
    return [_oracle_compare("werner", 2, "discord", [0.3], 0.1, restarts=4),
            _oracle_compare("isotropic", 2, "negativity", [0.5], 0.1),
            _compute("pp", 2, 0.5, NUMERIC_ALL, _schmidt(rng, 2), numeric=True, restarts=4)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checks. Each returns (operations, failed operations, messages) for one call.
# ---------------------------------------------------------------------------

def _reference(family: str, measure: str, d: int, x: float, u, params=None):
    """Closed form called directly through qcorr's library API.

    `params` caches the validated parameter record per (d, x) across the
    measures of one grid point.
    """
    from qcorr import closed_forms as cf
    from qcorr import isotropic_params, PseudoPureParams

    if family == "werner":
        if measure == "eof":
            return cf.werner_eof(x)
        if measure == "asymptote":
            return cf.werner_discord_asymptote(x)
        return {"discord": cf.werner_discord, "cc": cf.werner_classical_correlations,
                "mi": cf.werner_mutual_information}[measure](d, x)
    p = params.get((d, x)) if params is not None else None
    if p is None:
        p = isotropic_params(d, x) if family == "isotropic" else PseudoPureParams(d, x, u)
        if params is not None:
            params[(d, x)] = p
    if measure == "asymptote":
        return cf.pp_discord_asymptote(x, p.schmidt)
    return {"discord": cf.pp_discord, "cc": cf.pp_classical_correlations,
            "mi": cf.pp_mutual_information, "gd": cf.pp_gd,
            "negativity": cf.pp_negativity}[measure](p)


def _close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=CLOSED_REL_TOL, abs_tol=CLOSED_ABS_TOL)


def _schmidt_of(spec):
    if spec.get("schmidt") is None:
        return None
    from qcorr import normalized_schmidt
    return normalized_schmidt(spec["schmidt"])


class _Rows:
    """Collects per-row verdicts and turns them into operation counts."""

    MAX_MESSAGES = 20

    def __init__(self, oracle_points: int):
        self.expected_points = oracle_points
        self.points = 0
        self.failed_points = 0
        self.call_ok = True
        self.messages: list[str] = []

    def _note(self, msg: str):
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(msg)

    def fail_call(self, msg: str):
        self.call_ok = False
        self._note(msg)

    def point(self, ok: bool, msg: str):
        self.points += 1
        if not ok:
            self.failed_points += 1
            self._note(msg)

    def result(self):
        missing = max(0, self.expected_points - self.points)
        if missing:
            self.fail_call(f"{missing} oracle point(s) missing from the output")
        ops = 1 + self.expected_points
        failed = (0 if self.call_ok else 1) + min(self.failed_points + missing,
                                                 self.expected_points)
        return ops, failed, self.messages


def _csv_rows(text: str, header: str, rows: _Rows) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        rows.fail_call(f"bad header {lines[0] if lines else '<empty>'!r}")
        return []
    return [line.split(",") for line in lines[1:]]


def _check_oracle_compare(spec, text, rows: _Rows):
    header = "family,d,measure,param_name,param_value,closed,numeric,abs_gap"
    u = _schmidt_of(spec)
    body = _csv_rows(text, header, rows)
    if len(body) != len(spec["points"]):
        rows.fail_call(f"expected {len(spec['points'])} rows, got {len(body)}")
    tol = ORACLE_TOL[spec["measure"]]
    for cells, x in zip(body, spec["points"]):
        try:
            closed, numeric = float(cells[5]), float(cells[6])
        except (IndexError, ValueError):
            rows.point(False, f"unparseable row {cells!r}")
            continue
        ref = _reference(spec["family"], spec["measure"], spec["d"], x, u)
        gap = abs(numeric - ref)
        rows.point(gap <= tol and _close(closed, ref),
                   f"{spec['family']} d={spec['d']} {spec['measure']} x={x!r}: "
                   f"closed={closed!r} numeric={numeric!r} reference={ref!r}")


def _check_records(spec, text, rows: _Rows, expected):
    """Check CLI record CSV against [(d, x, measure, method)] in output order."""
    from qcorr.cli import CSV_HEADER

    u = _schmidt_of(spec)
    body = _csv_rows(text, CSV_HEADER, rows)
    if len(body) != len(expected):
        rows.fail_call(f"expected {len(expected)} rows, got {len(body)}")
    family = spec["family"]
    params: dict = {}
    for cells, (d, x, measure, method) in zip(body, expected):
        try:
            ok_keys = (cells[0] == family and int(cells[1]) == d and cells[4] == measure
                       and cells[6] == method and _close(float(cells[3]), x))
            value = float(cells[5])
        except (IndexError, ValueError):
            ok_keys, value = False, math.nan
        ref = _reference(family, measure, d, x, u, params)
        if method == "numeric":
            rows.point(ok_keys and abs(value - ref) <= ORACLE_TOL[measure],
                       f"{family} d={d} {measure} numeric={value!r} reference={ref!r}")
        elif not (ok_keys and _close(value, ref)):
            rows.fail_call(f"row {cells!r}: expected {family} d={d} {measure} "
                           f"x={x!r} value {ref!r}")


def _check_figure(spec, text, rows: _Rows):
    from qcorr import closed_forms as cf
    from qcorr import isotropic_params

    name, dims = spec["name"], spec["dims"]
    lines = text.splitlines()
    if len(lines) != 102:
        rows.fail_call(f"{name}: expected 102 lines, got {len(lines)}")
        return
    for i, line in enumerate(lines[1:]):
        x = i / 100.0
        if name in ("fig1", "fig2", "fig3"):
            fn = cf.werner_classical_correlations if name == "fig2" else cf.werner_discord
            ref = [x] + [fn(d, x) for d in dims] + ([cf.werner_eof(x)] if name == "fig3" else [])
        else:
            ps = [isotropic_params(d, x) for d in dims]
            if name == "fig4":
                ref = [x] + [cf.pp_discord(p) for p in ps]
            elif name == "fig5":
                ref = [x] + [cf.pp_classical_correlations(p) for p in ps]
            else:
                ref = ([x] + [cf.pp_discord(p) - cf.pp_classical_correlations(p) for p in ps]
                       + [cf.binary_entropy(x)])
        try:
            got = [float(c) for c in line.split(",")]
        except ValueError:
            got = []
        if len(got) != len(ref) or not all(_close(a, b) for a, b in zip(got, ref)):
            rows.fail_call(f"{name} row {i}: {line!r} differs from {ref!r}")
            return


def check_output(inv: Invocation, code: int, text: str, golden: str | None):
    """Verdict for one call: (operations, failed operations, messages).

    With a recorded digest the output must match it byte for byte;
    otherwise every value is checked against the library's closed forms
    (and oracle values against them at the acceptance tolerances).
    """
    rows = _Rows(inv.oracle_points)
    if code != 0:
        rows.fail_call(f"exit code {code} for {' '.join(inv.argv[:8])}")
    elif golden is not None:
        if digest(text) != golden:
            rows.fail_call(f"output digest differs from the recorded one: {inv.argv[:3]}")
        else:
            return 1 + inv.oracle_points, 0, []
    else:
        spec = inv.spec
        if inv.kind == "oracle-compare":
            _check_oracle_compare(spec, text, rows)
        elif inv.kind == "figure":
            _check_figure(spec, text, rows)
        elif inv.kind == "sweep":
            expected = [(d, x, m, "closed") for d in spec["dims"] for x in spec["points"]
                        for m in spec["measures"]]
            _check_records(spec, text, rows, expected)
        else:
            d, x = spec["d"], spec["param"]
            expected = [(d, x, m, "closed") for m in spec["measures"]]
            if spec["numeric"]:
                expected += [(d, x, m, "numeric") for m in spec["measures"]]
            _check_records(spec, text, rows, expected)
    return rows.result()


def output_rows(text: str) -> int:
    """Data rows in a CSV output (all lines but the header)."""
    return max(0, text.count("\n") - 1)
