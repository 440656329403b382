import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcorr import cli
from qcorr import closed_forms as cf
from qcorr import oracle
from qcorr.states import PseudoPureParams


def run_cli(args, capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_records(text):
    lines = text.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = []
    for line in lines[1:]:
        family, d, pname, pval, measure, value, method = line.split(",")
        rows.append(
            {
                "family": family,
                "d": int(d),
                "param_name": pname,
                "param_value": float(pval),
                "measure": measure,
                "value": float(value),
                "method": method,
            }
        )
    return rows


class TestCompute:
    def test_werner_singlet_discord(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--family", "werner", "--d", "2", "--lambda", "1",
             "--measures", "discord"],
            capsys,
        )
        assert code == 0
        rows = parse_records(out)
        assert len(rows) == 1
        assert rows[0]["value"] == pytest.approx(1.0, abs=1e-12)
        assert rows[0]["param_name"] == "lambda"

    def test_pp_white_noise_discord(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--family", "pp", "--d", "3", "--alpha", "0.111111111111",
             "--schmidt", "0.8,0.6,0", "--measures", "discord"],
            capsys,
        )
        assert code == 0
        assert abs(parse_records(out)[0]["value"]) <= 1e-9

    def test_numeric_rows_agree(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--family", "werner", "--d", "3", "--lambda", "0.5",
             "--measures", "discord", "--numeric", "--restarts", "6", "--seed", "1"],
            capsys,
        )
        assert code == 0
        rows = parse_records(out)
        closed = [r for r in rows if r["method"] == "closed"][0]
        numeric = [r for r in rows if r["method"] == "numeric"][0]
        assert abs(closed["value"] - numeric["value"]) <= 1e-6

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--family", "isotropic", "--d", "4", "--alpha", "0.5",
             "--measures", "discord,gd", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert {r["measure"] for r in rows} == {"discord", "gd"}

    def test_measure_without_closed_form_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["compute", "--family", "werner", "--d", "2", "--lambda", "0.5",
             "--measures", "gd"],
            capsys,
        )
        assert code == 3
        assert "gd" in err

    def test_eof_for_pp_is_domain_error(self, capsys):
        code, _, _ = run_cli(
            ["compute", "--family", "pp", "--d", "2", "--alpha", "0.5",
             "--schmidt", "0.8,0.6", "--measures", "eof"],
            capsys,
        )
        assert code == 3

    def test_schmidt_normalization_opt_in(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--family", "pp", "--d", "2", "--alpha", "1", "--schmidt",
             "0.6,0.8", "--normalize", "--measures", "discord"],
            capsys,
        )
        assert code == 0
        expected = cf.pp_discord(PseudoPureParams(2, 1.0, np.array([0.8, 0.6])))
        assert parse_records(out)[0]["value"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("raw, reference", [
        (["1e200,1e200", "--normalize"], ["1,1", "--normalize"]),
        (["1e-320,0", "--normalize"], ["1,0"]),
    ])
    def test_schmidt_normalization_extreme_scales(self, raw, reference, capsys):
        argv = ["compute", "--family", "pp", "--d", "2", "--alpha", "0.7",
                "--measures", "discord,gd,negativity", "--schmidt"]
        code, out, err = run_cli(argv + raw, capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(argv + reference, capsys)[1]

    def test_unnormalized_schmidt_rejected(self, capsys):
        code, _, err = run_cli(
            ["compute", "--family", "pp", "--d", "2", "--alpha", "1", "--schmidt",
             "0.6,0.8", "--measures", "discord"],
            capsys,
        )
        assert code == 3


class TestSweep:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
             "--step", "0.1", "--measures", "discord"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,d,param_name,param_value,measure,value,method"
        assert len(lines) == 12

    def test_isotropic_param_name(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "isotropic", "--d", "3", "--start", "0", "--stop", "1",
             "--step", "0.5", "--measures", "discord"],
            capsys,
        )
        assert code == 0
        assert all(r["param_name"] == "alpha" for r in parse_records(out))

    def test_deterministic_output(self, capsys):
        args = ["sweep", "--family", "werner", "--d", "2,3", "--start", "0", "--stop", "1",
                "--step", "0.25", "--measures", "discord,cc"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_row_order_d_outer_measure_inner(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "werner", "--d", "2,3", "--start", "0", "--stop", "0.5",
             "--step", "0.5", "--measures", "discord,cc"],
            capsys,
        )
        rows = parse_records(out)
        key = [(r["d"], r["param_value"], r["measure"]) for r in rows]
        assert key == [
            (2, 0.0, "discord"), (2, 0.0, "cc"), (2, 0.5, "discord"), (2, 0.5, "cc"),
            (3, 0.0, "discord"), (3, 0.0, "cc"), (3, 0.5, "discord"), (3, 0.5, "cc"),
        ]

    def test_pp_requires_schmidt(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--family", "pp", "--d", "2", "--start", "0", "--stop", "1",
             "--step", "0.5", "--measures", "discord"],
            capsys,
        )
        assert code == 2


class TestFigure:
    def test_fig1_discord_zero_at_mixed_points(self, tmp_path, capsys):
        out_file = tmp_path / "fig1.csv"
        code, _, _ = run_cli(["figure", "fig1", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["lambda", "discord_d2", "discord_d3", "discord_d10", "discord_d50"]
        assert len(lines) == 102
        table = {
            float(line.split(",")[0]): [float(x) for x in line.split(",")[1:]]
            for line in lines[1:]
        }
        # on-grid totally mixed points: d=2 at 0.25, d=10 at 0.45, d=50 at 0.49
        assert abs(table[0.25][0]) <= 1e-9
        assert abs(table[0.45][2]) <= 1e-9
        assert abs(table[0.49][3]) <= 1e-9

    def test_fig3_crossover_region(self, tmp_path, capsys):
        out_file = tmp_path / "fig3.csv"
        code, _, _ = run_cli(["figure", "fig3", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].split(",") == ["lambda", "discord_d2", "discord_d50", "eof"]
        for line in lines[1:]:
            lam, d2, d50, eof = (float(x) for x in line.split(","))
            if abs(lam - 0.55) < 1e-9:
                assert d2 > eof

    def test_fig6_reference_column(self, tmp_path, capsys):
        out_file = tmp_path / "fig6.csv"
        code, _, _ = run_cli(["figure", "fig6", "--dims", "50", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].split(",") == ["alpha", "diff_d50", "binary_entropy"]
        for line in lines[1:]:
            alpha, diff, href = (float(x) for x in line.split(","))
            if abs(alpha - 0.5) < 1e-9:
                assert href == pytest.approx(1.0, abs=1e-12)
                assert abs(diff - href) <= 0.2

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["figure", "fig4", "--out", str(a)], capsys)[0] == 0
        assert run_cli(["figure", "fig4", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_figure_is_usage_error(self, capsys):
        code, _, _ = run_cli(["figure", "fig9"], capsys)
        assert code == 2


class TestConjecture:
    def test_small_sweep_exits_zero(self, capsys):
        code, out, _ = run_cli(
            ["conjecture", "--samples", "40", "--dmin", "2", "--dmax", "4", "--seed", "42"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 40
        assert payload["violations"] == 0
        assert payload["min_gap"] >= -1e-10
        assert set(payload["worst_case"]) == {"d", "alpha", "schmidt"}

    def test_deterministic(self, capsys):
        args = ["conjecture", "--samples", "25", "--dmax", "3", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_violation_exit_code(self, capsys, monkeypatch):
        fake = oracle.ConjectureReport(
            samples=1,
            min_gap=-1.0,
            worst_case=PseudoPureParams(2, 0.5, np.array([0.8, 0.6])),
            violations=1,
        )
        monkeypatch.setattr(oracle, "conjecture_sweep", lambda *a, **k: fake)
        code, out, _ = run_cli(["conjecture", "--samples", "1"], capsys)
        assert code == 4
        assert json.loads(out)["violations"] == 1


class TestOracleCompare:
    def test_werner_discord_grid(self, capsys):
        code, out, err = run_cli(
            ["oracle-compare", "--family", "werner", "--d", "2", "--measure", "discord",
             "--start", "0", "--stop", "1", "--step", "0.25", "--restarts", "6",
             "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert "max_gap" in err and "ok" in err
        lines = out.strip().splitlines()
        assert lines[0] == "family,d,measure,param_name,param_value,closed,numeric,abs_gap"
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1e-6

    def test_pp_negativity_grid(self, capsys):
        code, out, _ = run_cli(
            ["oracle-compare", "--family", "pp", "--d", "3", "--measure", "negativity",
             "--schmidt", "0.8,0.6,0", "--start", "0", "--stop", "1", "--step", "0.2"],
            capsys,
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) <= 1e-9

    def test_envelope_exceeded_is_exit_3(self, capsys):
        code, _, _ = run_cli(
            ["oracle-compare", "--family", "isotropic", "--d", "9", "--measure", "discord",
             "--start", "0.5", "--stop", "0.5", "--step", "0.1"],
            capsys,
        )
        assert code == 3


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("qcorr")
        if exe is None:
            pytest.skip("qcorr entry point not installed")
        out_file = tmp_path / "fig1.csv"
        proc = subprocess.run(
            [exe, "figure", "fig1", "--dims", "2", "--out", str(out_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out_file.read_text().splitlines()[0] == "lambda,discord_d2"


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, _ = run_cli(["compute", "--family", "nosuch", "--d", "2"], capsys)
        assert code == 2

    def test_domain_error(self, capsys):
        code, _, _ = run_cli(
            ["compute", "--family", "werner", "--d", "2", "--lambda", "1.5",
             "--measures", "discord"],
            capsys,
        )
        assert code == 3

    def test_missing_parameter_is_domain_error(self, capsys):
        code, _, _ = run_cli(
            ["compute", "--family", "werner", "--d", "2", "--measures", "discord"],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("measure", ["discord", "cc", "mi", "eof", "asymptote"])
    def test_werner_dimension_one_is_domain_error(self, measure, capsys):
        code, out, err = run_cli(
            ["compute", "--family", "werner", "--d", "1", "--lambda", "0.5",
             "--measures", measure],
            capsys,
        )
        assert (code, out) == (3, "")
        assert "local dimension" in err

    def test_werner_sweep_dimension_one_is_domain_error(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "werner", "--d", "2,1", "--start", "0", "--stop", "1",
             "--step", "0.5", "--measures", "eof,asymptote"],
            capsys,
        )
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("schmidt", ["nan,0.5", "0.8,nan", "inf,0"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_schmidt_is_domain_error(self, schmidt, normalize, capsys):
        argv = ["compute", "--family", "pp", "--d", "2", "--alpha", "0.5",
                "--schmidt", schmidt, "--measures", "discord,gd"]
        code, out, err = run_cli(argv + (["--normalize"] if normalize else []), capsys)
        assert (code, out) == (3, "")
        assert "finite" in err

    @pytest.mark.parametrize("grid", [
        ["--start", "0", "--stop", "inf", "--step", "0.1"],
        ["--start", "0", "--stop", "nan", "--step", "0.1"],
        ["--start=-inf", "--stop", "1", "--step", "0.1"],
        ["--start", "0", "--stop", "1", "--step", "nan"],
        ["--start", "0", "--stop", "1", "--step", "inf"],
    ])
    @pytest.mark.parametrize("command", ["sweep", "oracle-compare"])
    def test_non_finite_grid_is_domain_error(self, grid, command, capsys):
        measure = ["--measures", "discord"] if command == "sweep" else ["--measure", "mi"]
        code, out, err = run_cli(
            [command, "--family", "werner", "--d", "2", *measure, *grid], capsys
        )
        assert (code, out) == (3, "")
        assert "finite" in err

    def test_oversized_grid_is_domain_error(self, capsys):
        # (stop - start) overflows to inf: rejected before any point is built
        code, out, err = run_cli(
            ["sweep", "--family", "werner", "--d", "2", "--measures", "discord",
             "--start=-1e308", "--stop", "1e308", "--step", "1"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert f"more than {cli.MAX_GRID_POINTS} points" in err

    def test_sweep_has_no_seed_option(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
             "--step", "0.5", "--measures", "discord", "--seed", "1"],
            capsys,
        )
        assert code == 2


class TestGrid:
    def test_one_point_over_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match="more than"):
            cli._grid(0.0, 1.0, 1.0 / cli.MAX_GRID_POINTS)

    def test_cap_itself_is_accepted(self):
        grid = cli._grid(0.0, 1.0, 1.0 / (cli.MAX_GRID_POINTS - 1))
        assert len(grid) == cli.MAX_GRID_POINTS
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-12)

    def test_last_point_within_slack_is_stop(self):
        # 999999 * (1 / 999999) is 0.9999999999999999
        assert cli._grid(0.0, 1.0, 1.0 / 999999)[-1] == 1.0

    @pytest.mark.parametrize("args", [
        (math.nan, 1.0, 0.1), (0.0, math.inf, 0.1), (-math.inf, 0.0, 0.1),
        (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
    ])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            cli._grid(*args)

    @pytest.mark.parametrize("args", [(-1e308, 1e308, 1.0), (0.0, 1e300, 1e-300)])
    def test_overflowing_span_rejected(self, args):
        with pytest.raises(ValueError, match="more than"):
            cli._grid(*args)


class TestMeasureTable:
    def test_discord_optimised_once_per_state(self, capsys, monkeypatch):
        calls = []
        mi_calls = []
        real = oracle.discord_numeric
        real_mi = oracle.mutual_information_numeric

        def counting(rho, cfg):
            calls.append(cfg.seed)
            return real(rho, cfg)

        def counting_mi(rho):
            mi_calls.append(rho)
            return real_mi(rho)

        monkeypatch.setattr(oracle, "discord_numeric", counting)
        monkeypatch.setattr(oracle, "mutual_information_numeric", counting_mi)
        code, out, _ = run_cli(
            ["compute", "--family", "isotropic", "--d", "2", "--alpha", "0.7",
             "--measures", "discord,cc,mi", "--numeric", "--restarts", "4", "--seed", "3",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert calls == [3]
        assert len(mi_calls) == 1
        numeric = {r["measure"]: r["value"] for r in json.loads(out) if r["method"] == "numeric"}
        assert numeric["cc"] == numeric["mi"] - numeric["discord"]

    def test_readme_lists_match_table(self):
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())

        def names(route):
            return ",".join(m for m, entry in cli.MEASURES.items() if getattr(entry, route))

        assert f"Werner supports `{names('werner')}`" in readme
        assert f"pseudo-pure and isotropic support `{names('pp')}`" in readme
        assert f"`--numeric` adds oracle rows for `{names('oracle')}`" in readme

    def test_oracle_compare_tolerances(self):
        tolerances = {m: e.tolerance for m, e in cli.MEASURES.items() if e.oracle}
        assert tolerances == {"discord": 1e-6, "cc": 1e-6, "mi": 1e-6, "gd": 1e-6,
                              "negativity": 1e-9}
