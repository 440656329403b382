"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the module takes about 11 s on two cores, mostly criteria 3, 5 and 6.
"""

import json
import math

import numpy as np

from qcorr import cli
from qcorr import closed_forms as cf
from qcorr import oracle
from qcorr.oracle import (
    OptimizerConfig,
    conjecture_sweep,
    discord_numeric,
    gd_numeric,
    measured_conditional_entropy,
    negativity_numeric,
    optimal_measurement_check,
)
from qcorr.states import (
    PseudoPureParams,
    WernerParams,
    build_pseudo_pure,
    build_werner,
    isotropic_params,
    random_schmidt_vector,
    random_unitary,
)


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{label}]: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_singlet_anchors():
    gaps = [
        abs(cf.werner_discord(2, 1.0) - 1.0),
        abs(cf.werner_mutual_information(2, 1.0) - 2.0),
        abs(cf.werner_eof(1.0) - 1.0),
        abs(cf.werner_classical_correlations(2, 1.0) - 1.0),
    ]
    report(1, "singlet anchors", max(gaps) <= 1e-12, f"max deviation {max(gaps):.2e}")


def test_criterion_2_zero_anchors():
    worst = 0.0
    for d in range(2, 51):
        lam = (d - 1) / (2 * d)
        worst = max(worst, abs(cf.werner_discord(d, lam)))
        worst = max(worst, abs(cf.werner_classical_correlations(d, lam)))
    for d in range(2, 11):
        alpha = 1.0 / d**2
        for i in range(5):
            u = random_schmidt_vector(d, 1000 * d + i)
            p = PseudoPureParams(d, alpha, u)
            worst = max(worst, abs(cf.pp_discord(p)))
            worst = max(worst, abs(cf.pp_gd(p)))
            worst = max(worst, abs(cf.pp_negativity(p)))
    report(2, "zero anchors", worst <= 1e-9, f"max |value| {worst:.2e}")


def test_criterion_3_oracle_equivalence_discord():
    cfg = OptimizerConfig(restarts=32, seed=101)
    worst = 0.0
    for d in (2, 3, 4):
        for i in range(11):
            lam = i / 10
            gap = abs(
                discord_numeric(build_werner(WernerParams(d, lam)), cfg)
                - cf.werner_discord(d, lam)
            )
            worst = max(worst, gap)
    for d in (2, 3):
        for i in range(5):
            u = random_schmidt_vector(d, 300 * d + i)
            for j in range(6):
                alpha = j / 5
                p = PseudoPureParams(d, alpha, u)
                gap = abs(discord_numeric(build_pseudo_pure(p), cfg) - cf.pp_discord(p))
                worst = max(worst, gap)
    report(3, "oracle equivalence: discord", worst <= 1e-6, f"max gap {worst:.2e}")


def test_criterion_4_werner_basis_independence():
    worst = 0.0
    for d in (2, 3, 5):
        for lam in (0.1, 0.5, 0.9):
            rho = build_werner(WernerParams(d, lam))
            values = [
                measured_conditional_entropy(rho, random_unitary(d, seed))
                for seed in range(100)
            ]
            worst = max(worst, float(np.std(values)))
    report(4, "Werner basis independence", worst <= 1e-10, f"max std {worst:.2e}")


def test_criterion_5_oracle_equivalence_gd_negativity():
    cfg = OptimizerConfig(restarts=6, seed=505)
    worst_gd = 0.0
    worst_neg = 0.0
    for d in (2, 3, 4):
        for i in range(10):
            u = random_schmidt_vector(d, 700 * d + i)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                p = PseudoPureParams(d, alpha, u)
                rho = build_pseudo_pure(p)
                worst_gd = max(worst_gd, abs(gd_numeric(rho, cfg) - cf.pp_gd(p)))
                worst_neg = max(worst_neg, abs(negativity_numeric(rho) - cf.pp_negativity(p)))
    ok = worst_gd <= 1e-6 and worst_neg <= 1e-9
    report(
        5,
        "oracle equivalence: gd / negativity",
        ok,
        f"max gd gap {worst_gd:.2e}, max negativity gap {worst_neg:.2e}",
    )


def test_criterion_6_conjecture_sweep():
    rep = conjecture_sweep(1000, (2, 6), seed=42)
    ok = (
        rep.violations == 0
        and rep.min_gap >= -1e-10
        and rep.checked == 50
        and rep.max_gd_gap <= 1e-6
        and rep.max_negativity_gap <= 1e-9
    )
    report(
        6,
        "gd >= negativity^2 sweep",
        ok,
        f"min gap {rep.min_gap:.3e}, violations {rep.violations}, "
        f"checked {rep.checked}, gd gap {rep.max_gd_gap:.2e}, "
        f"negativity gap {rep.max_negativity_gap:.2e}",
    )


def test_criterion_7_werner_asymptote():
    d = 1000
    worst_d = 0.0
    worst_c = 0.0
    for i in range(1, 100):
        lam = i / 100
        worst_d = max(
            worst_d, abs(cf.werner_discord(d, lam) - cf.werner_discord_asymptote(lam))
        )
        worst_c = max(worst_c, cf.werner_classical_correlations(d, lam))
    ok = worst_d <= 0.01 and worst_c <= 0.01
    report(7, "Werner large-d asymptote", ok, f"max |D-(1-H)| {worst_d:.4f}, max CC {worst_c:.4f}")


def test_criterion_8_pp_asymptotes():
    d = 1000
    u = np.zeros(d)
    u[:2] = 1 / math.sqrt(2)
    worst_rank2 = max(
        abs(cf.pp_discord(PseudoPureParams(d, i / 10, u)) - i / 10) for i in range(11)
    )
    worst_iso = 0.0
    for alpha in np.arange(0.1, 0.9 + 1e-9, 0.05):
        p = isotropic_params(d, float(alpha))
        diff = cf.pp_discord(p) - cf.pp_classical_correlations(p)
        worst_iso = max(worst_iso, abs(diff - cf.binary_entropy(float(alpha))))
    ok = worst_rank2 <= 0.02 and worst_iso <= 0.05
    report(
        8,
        "pseudo-pure large-d asymptotes",
        ok,
        f"rank-2 max |D-alpha| {worst_rank2:.4f}, isotropic max |(D-C)-H| {worst_iso:.4f}",
    )


def test_criterion_9_second_derivative():
    h = 1e-4
    min_value = math.inf
    worst_rel = 0.0
    for d in range(2, 7):
        for i in range(10):
            u = random_schmidt_vector(d, 40 * d + i)
            for k in range(1, 20):
                alpha = 0.05 * k
                p = PseudoPureParams(d, alpha, u)
                value = cf.pp_second_derivative(p)
                min_value = min(min_value, value)
                fd = (
                    cf.pp_discord(PseudoPureParams(d, alpha + h, u))
                    - 2 * cf.pp_discord(p)
                    + cf.pp_discord(PseudoPureParams(d, alpha - h, u))
                ) / h**2
                worst_rel = max(worst_rel, abs(value - fd) / abs(fd))
    ok = min_value > 0.0 and worst_rel <= 1e-4
    report(
        9,
        "discord convexity certificate",
        ok,
        f"min second derivative {min_value:.4f}, max FD relative error {worst_rel:.2e}",
    )


def test_criterion_10_discord_eof_crossover():
    crossings = {}
    for d in (2, 50):
        grid = [0.5 + k / 1000 for k in range(1, 101)]
        crossings[d] = any(cf.werner_discord(d, lam) > cf.werner_eof(lam) for lam in grid)
    large_d_bound = cf.werner_eof(0.9) >= cf.werner_discord(50, 0.9)
    ok = crossings[2] and crossings[50] and large_d_bound
    report(
        10,
        "discord/EoF crossover",
        ok,
        f"crossover d=2 {crossings[2]}, d=50 {crossings[50]}, "
        f"EoF dominates at (50, 0.9) {large_d_bound}",
    )


def test_criterion_11_optimal_measurement():
    cfg = OptimizerConfig(restarts=8, seed=77)
    failures = []
    for d in (2, 3, 4):
        for lam in (0.1, 0.5, 0.9):
            rep = optimal_measurement_check(build_werner(WernerParams(d, lam)), cfg)
            if not rep.passed:
                failures.append(("werner", d, lam, rep.entropy_gap, rep.max_commutator))
    rng = np.random.default_rng(4242)
    for d in (2, 3):
        for _ in range(3):
            alpha = float(rng.uniform())
            u = random_schmidt_vector(d, int(rng.integers(1 << 31)))
            rep = optimal_measurement_check(build_pseudo_pure(PseudoPureParams(d, alpha, u)), cfg)
            if not rep.passed:
                failures.append(("pp", d, alpha, rep.entropy_gap, rep.max_commutator))
    report(11, "optimal-measurement structure", not failures, f"failures: {failures or 'none'}")


def test_criterion_12_cli_end_to_end(tmp_path, capsys, monkeypatch):
    def run(args):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    problems = []

    # deterministic figure data
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        if run(["figure", name, "--out", str(a)])[0] != 0:
            problems.append(f"{name} exit code")
        if run(["figure", name, "--out", str(b)])[0] != 0:
            problems.append(f"{name} rerun exit code")
        if a.read_bytes() != b.read_bytes():
            problems.append(f"{name} not deterministic")

    # conjecture sweep exits 0 and is violation-free
    code, out, _ = run(["conjecture", "--samples", "100", "--dmin", "2", "--dmax", "4",
                        "--seed", "42"])
    payload = json.loads(out)
    if code != 0 or payload["violations"] != 0:
        problems.append(f"conjecture exit {code}, violations {payload['violations']}")

    # oracle comparison under the criterion-3/5 tolerances
    code, _, err = run(
        ["oracle-compare", "--family", "werner", "--d", "2", "--measure", "discord",
         "--start", "0", "--stop", "1", "--step", "0.05", "--restarts", "32",
         "--seed", "1"]
    )
    if code != 0:
        problems.append(f"oracle-compare discord exit {code}: {err.strip()}")
    code, _, err = run(
        ["oracle-compare", "--family", "pp", "--d", "3", "--measure", "gd",
         "--schmidt", "0.8,0.6,0", "--start", "0", "--stop", "1", "--step", "0.1",
         "--restarts", "6", "--seed", "1"]
    )
    if code != 0:
        problems.append(f"oracle-compare gd exit {code}: {err.strip()}")
    code, _, err = run(
        ["oracle-compare", "--family", "isotropic", "--d", "3", "--measure", "negativity",
         "--start", "0", "--stop", "1", "--step", "0.1"]
    )
    if code != 0:
        problems.append(f"oracle-compare negativity exit {code}: {err.strip()}")

    # exit-code contract: 0 covered above; 2 usage; 3 domain; 4 violation
    if run(["compute", "--family", "nosuch", "--d", "2"])[0] != 2:
        problems.append("usage error exit code != 2")
    if run(["compute", "--family", "werner", "--d", "2", "--lambda", "1.5",
            "--measures", "discord"])[0] != 3:
        problems.append("domain error exit code != 3")
    fake = oracle.ConjectureReport(
        samples=1,
        min_gap=-1.0,
        worst_case=PseudoPureParams(2, 0.5, np.array([0.8, 0.6])),
        violations=1,
    )
    monkeypatch.setattr(oracle, "conjecture_sweep", lambda *a, **k: fake)
    if run(["conjecture", "--samples", "1"])[0] != 4:
        problems.append("violation exit code != 4")

    report(12, "CLI end-to-end", not problems, f"problems: {problems or 'none'}")
