import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcorr import cli, linalg
from qcorr import closed_forms as cf
from qcorr import oracle
from qcorr.states import PseudoPureParams, WernerParams, random_schmidt_vector


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


@pytest.fixture
def closed_calls(monkeypatch):
    """Records the name of every closed-form library function called."""
    calls = []
    for name, fn in vars(cf).items():
        if callable(fn) and getattr(fn, "__module__", None) == cf.__name__:
            def counted(*a, fn=fn, name=name, **k):
                calls.append(name)
                return fn(*a, **k)

            monkeypatch.setattr(cf, name, counted)
    return calls


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_numeric_builds_no_state_without_an_oracle_route(self, fmt, capsys, monkeypatch):
        # eof and asymptote have no oracle route: building the d = 40 state took about 2 s for
        # nothing, and the d^2 = 4225 state side of d = 65, which no row builds, refused the request
        def refuse(params):
            raise AssertionError("state built")

        for d in ("40", "65"):
            argv = ["compute", "--family", "werner", "--d", d, "--lambda", "0.3",
                    "--measures", "eof,asymptote", "--format", fmt]
            expected = run_cli(argv, capsys)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "build_werner", refuse)
                patch.setattr(cli, "build_pseudo_pure", refuse)
                assert run_cli(argv + ["--numeric"], capsys) == expected
            assert expected[0] == 0

    @pytest.mark.parametrize("alpha", ["0", "0.5", "1"])
    def test_product_schmidt_asymptote_prints_zero(self, alpha, capsys):
        # a product vector's reduced entropy is 0, and alpha times its negation printed -0
        code, out, err = run_cli(["compute", "--family", "pp", "--d", "2", "--alpha", alpha,
                                  "--schmidt", "1,0", "--measures", "asymptote"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"pp,2,alpha,{alpha},asymptote,0,closed"

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

    def test_memory_bounded_at_large_d(self, capsys):
        # 81 alphas at d = 8000, 69 of them past the separability threshold
        # (1.5e-5). The grid goes in chunks of 8 alphas and peaks at about
        # 5.4 MiB; all 81 at once peaked at 27.9 MiB.
        u = random_schmidt_vector(8000, 3)
        schmidt = ",".join(map(repr, u.tolist()))
        argv = ["sweep", "--family", "pp", "--d", "8000", "--schmidt", schmidt,
                "--start", "0", "--stop", "1e-4", "--step", "1.25e-6",
                "--measures", "discord,negativity"]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, _ = capsys.readouterr()
        assert (code, out.count("\n")) == (0, 1 + 2 * 81)
        assert peak < 8 * 2**20

    def test_memory_bounded_over_many_large_d(self, capsys):
        # one alpha at each of 40 dimensions near 60000, each isotropic record holding its
        # own Schmidt vector: the traced peak is about 2.5 MiB; every record kept from the
        # check to the work peaked at 20.4 MiB
        dims = ",".join(str(60000 + k) for k in range(40))
        argv = ["sweep", "--family", "isotropic", "--d", dims,
                "--start", "0.3", "--stop", "0.3", "--step", "1", "--measures", "discord,cc"]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, _ = capsys.readouterr()
        assert (code, out.count("\n")) == (0, 1 + 2 * 40)
        assert peak < 6 * 2**20

    def test_rows_are_written_chunk_by_chunk(self, tmp_path, capsys):
        # 16385 lambdas at d = 64, five rows each, written one chunk of 1024 lambdas at a
        # time: the traced peak is about 1.7 MiB; the whole table held at once took 18.7 MiB
        path = tmp_path / "sweep.csv"
        argv = ["sweep", "--family", "werner", "--d", "64", "--start", "0", "--stop", "1",
                "--step", "6.103515625e-05", "--measures", "discord,cc,mi,eof,asymptote",
                "--out", str(path)]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == (0, "")
        assert path.read_text().count("\n") == 1 + 5 * 16385
        assert peak < 4 * 2**20

    def test_werner_chunks_do_not_shrink_with_d(self, capsys, monkeypatch):
        # a Werner record holds no vector, so its chunks are as long at d = 10^8 as at d = 2
        sizes, chunks = {}, cli._closed_chunks

        def counted(family, dims, *rest):
            for d, values, results in chunks(family, dims, *rest):
                sizes.setdefault(d, []).append(len(values))
                yield d, values, results

        monkeypatch.setattr(cli, "_closed_chunks", counted)
        code, out, _ = run_cli(["sweep", "--family", "werner", "--d", "2,100000000",
                                "--start", "0", "--stop", "1", "--step", "1e-4",
                                "--measures", "discord,cc"], capsys)
        assert (code, out.count("\n")) == (0, 1 + 2 * 2 * 10001)
        assert sizes[2] == sizes[100000000] and len(sizes[2]) > 1


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Floats at which %.12g changes sign, notation or rounding: signed zero and the
# smallest subnormal, both sides of where g switches to an exponent (below 1e-4
# and from 1e12 up), values that round across those switches, a sum that is not
# its decimal, and the non-finite ones.
EDGE_FLOATS = [float(x) for x in [
    -0.0, 0.0, 5e-324, -5e-324, *_neighbours(1e-5), *_neighbours(1e-4), *_neighbours(1e12),
    9.99999999999949e-05, 9.9999999999995e-05, 999999999999.4, 999999999999.5, 0.1 + 0.2,
    -1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf,
]]


class TestRowFormatter:
    def test_render_equals_fmt_on_edge_floats(self):
        cells = np.array(EDGE_FLOATS).reshape(-1, 1)
        assert cli._render("%.12g\n", cells) == "".join(f"{x:.12g}\n" for x in EDGE_FLOATS)

    def test_value_rows_interleave_each_value_with_its_results(self):
        values = EDGE_FLOATS
        columns = [EDGE_FLOATS[::-1], np.roll(EDGE_FLOATS, 5)]
        expected = "".join(
            f"werner,7,lambda,{x:.12g},discord,{a:.12g},closed\n"
            f"werner,7,lambda,{x:.12g},cc,{b:.12g},closed\n"
            for x, a, b in zip(values, *columns))
        rows = cli._value_rows("werner", 7, values, zip(["discord", "cc"], columns), "closed")
        assert rows == expected

    def test_sweep_over_many_chunks_equals_rows_built_with_fmt(self, capsys):
        # at d = 40000 each chunk holds one grid value, at d = 3 one chunk holds all five
        measures = ["discord", "cc", "mi", "eof", "asymptote"]
        code, out, _ = run_cli(
            ["sweep", "--family", "werner", "--d", "40000,3", "--start", "0", "--stop", "1",
             "--step", "0.25", "--measures", ",".join(measures)],
            capsys,
        )
        rows = [cli.CSV_HEADER] + [
            f"werner,{d},lambda,{x:.12g},{m},"
            f"{cli.MEASURES[m].werner(WernerParams(d, x)):.12g},closed"
            for d in (40000, 3) for x in (0.0, 0.25, 0.5, 0.75, 1.0) for m in measures]
        assert (code, out) == (0, "\n".join(rows) + "\n")


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

    @pytest.mark.parametrize("name, dims, header", [
        ("fig1", "2,2", "lambda,discord_d2,discord_d2"),
        ("fig6", "3,2,3", "alpha,diff_d3,diff_d2,diff_d3,binary_entropy"),
    ])
    def test_repeated_dimension_keeps_its_columns(self, name, dims, header, capsys):
        code, out, _ = run_cli(["figure", name, "--dims", dims], capsys)
        first, *rows = out.splitlines()
        assert (code, first, len(rows)) == (0, header, 101)
        for i, d in enumerate(dims.split(","), 1):  # column i is the figure at that d alone
            alone = run_cli(["figure", name, "--dims", d], capsys)[1].splitlines()[1:]
            assert [r.split(",")[i] for r in rows] == [r.split(",")[1] for r in alone]

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

    def test_json_keys_are_the_report_fields(self, capsys):
        report = oracle.conjecture_sweep(25, (2, 3), 9)
        code, out, _ = run_cli(["conjecture", "--samples", "25", "--dmax", "3", "--seed", "9"],
                               capsys)
        payload = json.loads(out)
        assert code == 0
        assert list(payload) == [f.name for f in dataclasses.fields(oracle.ConjectureReport)]
        worst = report.worst_case
        assert list(payload["worst_case"].items()) == [
            ("d", worst.d), ("alpha", worst.alpha), ("schmidt", worst.schmidt.tolist())]

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

    def test_nan_gap_fails(self, capsys, monkeypatch):
        # a nan gap is no agreement: it makes max_gap nan, which no tolerance admits
        monkeypatch.setattr(oracle, "mutual_information_numeric", lambda rho: math.nan)
        code, out, err = run_cli(
            ["oracle-compare", "--family", "werner", "--d", "2", "--measure", "mi",
             "--start", "0", "--stop", "1", "--step", "0.5"], capsys)
        assert code == cli.EXIT_FAILURE
        assert [line.split(",")[-2:] for line in out.splitlines()[1:]] == [["nan", "nan"]] * 3
        assert err == "oracle-compare werner d=2 mi: max_gap=nan tolerance=1e-06 fail\n"

    def test_envelope_exceeded_is_exit_3(self, capsys):
        code, _, _ = run_cli(
            ["oracle-compare", "--family", "isotropic", "--d", "9", "--measure", "discord",
             "--start", "0.5", "--stop", "0.5", "--step", "0.1"],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("args, message", [
        (["compute", "--family", "werner", "--d", "50", "--lambda", "0.3",
          "--measures", "mi,discord", "--numeric"],
         "measured dimension 50 exceeds the envelope 8"),
        (["compute", "--family", "isotropic", "--d", "50", "--alpha", "0.3",
          "--measures", "negativity,gd", "--numeric"],
         "measured dimension 50 exceeds the envelope 8"),
        (["oracle-compare", "--family", "pp", "--d", "50", "--normalize",
          "--schmidt", ",".join(["1"] * 50), "--measure", "cc",
          "--start", "0.5", "--stop", "0.5", "--step", "0.1"],
         "measured dimension 50 exceeds the envelope 8"),
        (["compute", "--family", "werner", "--d", "65", "--lambda", "0.3",
          "--measures", "mi", "--numeric"],
         "state side 4225 exceeds the envelope 4096"),
        (["oracle-compare", "--family", "isotropic", "--d", "65", "--measure", "negativity",
          "--start", "0.5", "--stop", "0.5", "--step", "0.1"],
         "state side 4225 exceeds the envelope 4096"),
        # a side of more than 15 digits is named in scientific form, not with all its digits
        (["compute", "--family", "werner", "--d", str(10**100), "--lambda", "0.5",
          "--measures", "discord", "--numeric"],
         "state side 1.000e+200 exceeds the envelope 4096"),
        (["compute", "--family", "werner", "--d", str(10**154), "--lambda", "0.5",
          "--measures", "discord", "--numeric"],
         "state side 1.000e+308 exceeds the envelope 4096"),
    ])
    def test_envelope_is_checked_before_any_state_is_built(self, args, message, tmp_path,
                                                          capsys, monkeypatch):
        # building a state at d = 50 took 9.9 s and 507 MB before the oracle refused it
        def refuse(params):
            raise AssertionError("state built")

        monkeypatch.setattr(cli, "build_werner", refuse)
        monkeypatch.setattr(cli, "build_pseudo_pure", refuse)
        path = tmp_path / "x.csv"
        code, out, err = run_cli([*args, "--out", str(path)], capsys)
        assert (code, out, err) == (3, "", f"qcorr: {message}\n")
        assert not path.exists()

    def test_mutual_information_is_numeric_beyond_the_optimization_envelope(self, capsys):
        code, out, _ = run_cli(["compute", "--family", "isotropic", "--d", "9", "--alpha", "0.3",
                                "--measures", "mi", "--numeric"], capsys)
        assert code == 0
        closed, numeric = parse_records(out)
        assert numeric["method"] == "numeric"
        assert numeric["value"] == pytest.approx(closed["value"], abs=1e-9)


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


class TestParserReuse:
    WERNER = ["compute", "--family", "werner", "--d", "2", "--lambda", "0.3", "--measures", "mi"]

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(None)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert run_cli(self.WERNER, capsys)[0] == 0
            assert run_cli(self.WERNER, capsys)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_call_after_a_usage_error_parses_its_own_arguments(self, capsys):
        failed = ["compute", "--family", "pp", "--d", "3", "--alpha", "0.5",
                  "--measures", "discord", "--format", "json"]
        code, out, err = run_cli(failed, capsys)
        assert code == cli.EXIT_USAGE and out == "" and "family pp requires --schmidt" in err
        code, out, _ = run_cli(self.WERNER, capsys)
        assert code == 0
        rows = parse_records(out)  # CSV, the default format, not the failed call's JSON
        assert [(r["family"], r["d"], r["measure"]) for r in rows] == [("werner", 2, "mi")]
        assert rows[0]["param_value"] == 0.3


class TestExitCodes:
    def test_reader_that_closes_early_gets_exit_141(self):
        # 10^5 lambdas and five measures, 25 MB of rows: far more than a pipe holds, so
        # sweep is still writing when the reader leaves after the header
        src = str(Path(cli.__file__).parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcorr.cli", "sweep", "--family", "werner", "--d", "2",
             "--start", "0", "--stop", "0.99999", "--step", "1e-5",
             "--measures", "discord,cc,mi,eof,asymptote"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().decode() == cli.CSV_HEADER + "\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

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

    @pytest.mark.parametrize("name", ["fig1", "fig4"])
    @pytest.mark.parametrize("dims", ["0", "2,0"])
    def test_figure_dimension_zero_is_domain_error(self, name, dims, capsys, closed_calls):
        code, out, err = run_cli(["figure", name, "--dims", dims], capsys)
        assert (code, out, closed_calls) == (3, "", [])
        assert err == "qcorr: local dimension must be an integer >= 2, got 0\n"

    @pytest.mark.parametrize("family, name", [("werner", "lam"), ("isotropic", "alpha")])
    def test_sweep_grid_outside_the_unit_interval_is_domain_error(self, family, name, capsys):
        code, out, err = run_cli(
            ["sweep", "--family", family, "--d", "2", "--start", "0.5", "--stop", "1.5",
             "--step", "0.25", "--measures", "discord"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == f"qcorr: {name} must lie in [0, 1], got 1.25\n"

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
        assert err == "qcorr: grid points Infinity exceeds the envelope 1000000\n"

    @pytest.mark.parametrize("argv", [
        ["compute", "--lambda", "0.5", "--measures", "discord"],
        ["sweep", "--start", "0", "--stop", "1", "--step", "0.5", "--measures", "discord"],
        ["oracle-compare", "--start", "0", "--stop", "1", "--step", "0.5", "--measure", "mi"],
    ], ids=["compute", "sweep", "oracle-compare"])
    def test_normalize_without_schmidt_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv + ["--family", "werner", "--d", "3", "--normalize"], capsys)
        assert (code, out) == (2, "")
        assert "--normalize is only valid with --schmidt" in err

    @pytest.fixture
    def work_calls(self, monkeypatch):
        """Records every point built and every conjecture sweep started."""
        calls = []
        for name, family in cli.FAMILIES.items():
            monkeypatch.setitem(cli.FAMILIES, name,
                                family._replace(params=lambda *a: calls.append(a)))
        monkeypatch.setattr(oracle, "conjecture_sweep", lambda *a: calls.append(a))
        return calls

    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "werner", "--d", "2", "--lambda", "0.5", "--measures", "discord"],
        ["conjecture", "--samples", "400"],
        ["sweep", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
         "--step", "0.5", "--measures", "discord"],
        ["figure", "fig1"],
        ["oracle-compare", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
         "--step", "0.5", "--measure", "mi"],
    ], ids=["compute", "conjecture", "sweep", "figure", "oracle-compare"])
    def test_unwritable_out_is_domain_error(self, argv, tmp_path, capsys, work_calls):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out, work_calls) == (3, "", [])
        assert err.startswith("qcorr: ") and str(path) in err

    @pytest.mark.parametrize("target", ["directory", "read-only", "empty"])
    def test_out_that_cannot_be_opened_is_domain_error(self, target, tmp_path, capsys,
                                                       monkeypatch, work_calls):
        path = "" if target == "empty" else tmp_path
        if target == "read-only":
            path = tmp_path / "x.csv"
            # permission bits do not bind root, so deny the access check itself
            monkeypatch.setattr(os, "access", lambda p, mode: mode != os.W_OK)
        code, out, err = run_cli(["figure", "fig1", "--out", str(path)], capsys)
        assert (code, out, work_calls) == (3, "", [])
        assert err.startswith("qcorr: ") and str(path) in err

    def test_out_check_leaves_no_file_and_keeps_an_existing_one(self, tmp_path, capsys):
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept.write_text("keep\n")
        for path in (fresh, kept):
            code, _, err = run_cli(
                ["compute", "--family", "werner", "--d", "2", "--lambda", "1.5",
                 "--measures", "discord", "--out", str(path)], capsys)
            assert code == 3 and "lam" in err
        assert not fresh.exists() and kept.read_text() == "keep\n"

    @pytest.mark.parametrize("argv, message", [
        # the grid leaves [0, 1] in its 4th chunk of 32768 values at d = 2
        (["--family", "werner", "--d", "2", "--start", "0", "--stop", "1.0001",
          "--step", "1e-5"], "lam must lie in [0, 1], got 1.00001"),
        (["--family", "pp", "--d", "2,3", "--schmidt", "0.8,0.6", "--start", "0",
          "--stop", "1", "--step", "0.5"], "Schmidt vector has length 2, expected 3"),
    ], ids=["grid", "schmidt"])
    def test_sweep_checks_the_whole_request_first(self, argv, message, tmp_path, capsys,
                                                  closed_calls):
        path = tmp_path / "x.csv"
        for out in ([], ["--out", str(path)]):
            code, stdout, err = run_cli(["sweep", *argv, "--measures", "discord", *out], capsys)
            assert (code, stdout, err, closed_calls) == (3, "", f"qcorr: {message}\n", [])
        assert not path.exists()

    def test_oracle_compare_checks_the_whole_grid_first(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "discord_numeric", lambda *a: calls.append(a))
        code, out, err = run_cli(
            ["oracle-compare", "--family", "werner", "--d", "2", "--measure", "discord",
             "--start", "0.5", "--stop", "1.5", "--step", "0.25"], capsys)
        assert (code, out, err, calls) == (3, "", "qcorr: lam must lie in [0, 1], got 1.25\n", [])

    def test_measure_without_closed_form_has_one_error_text(self, capsys):
        werner = ["--family", "werner", "--d", "2"]
        grid = ["--start", "0", "--stop", "1", "--step", "0.5"]
        errors = []
        for argv in (["compute", *werner, "--lambda", "0.5", "--measures", "gd"],
                     ["sweep", *werner, *grid, "--measures", "gd"],
                     ["oracle-compare", *werner, *grid, "--measure", "gd"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (3, "") and "gd" in err
            errors.append(err)
        assert len(set(errors)) == 1

    def test_sweep_has_no_seed_option(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
             "--step", "0.5", "--measures", "discord", "--seed", "1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("family, given, other", [
        ("werner", ["--lambda", "0.3"], "--alpha"),
        ("pp", ["--alpha", "0.3", "--schmidt", "0.8,0.6,0"], "--lambda"),
        ("isotropic", ["--alpha", "0.3"], "--lambda"),
    ])
    def test_other_familys_parameter_is_usage_error(self, family, given, other, capsys):
        code, out, err = run_cli(["compute", "--family", family, "--d", "3", *given,
                                  other, "0.9", "--measures", "discord"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {other} is not valid for family {family}\n")

    def test_schmidt_for_another_family_is_usage_error(self, capsys):
        code, out, err = run_cli(["compute", "--family", "isotropic", "--d", "3", "--alpha", "0.3",
                                  "--schmidt", "1,0,0", "--measures", "discord"], capsys)
        assert (code, out) == (2, "")
        assert err.endswith("error: --schmidt is only valid for family pp\n")

    @pytest.mark.parametrize("flag", [["--restarts", "0"], ["--restarts", "4"], ["--seed", "1"]])
    def test_optimizer_flag_without_numeric_is_usage_error(self, flag, capsys):
        code, out, err = run_cli(["compute", "--family", "werner", "--d", "2", "--lambda", "0.5",
                                  "--measures", "discord", *flag], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {flag[0]} is only valid with --numeric\n")

    def test_no_restarts_with_numeric_is_domain_error(self, capsys):
        code, out, err = run_cli(["compute", "--family", "werner", "--d", "2", "--lambda", "0.5",
                                  "--measures", "discord", "--numeric", "--restarts", "0"], capsys)
        assert (code, out, err) == (3, "", "qcorr: restarts must be >= 1\n")

    bad_optimizer_flags = pytest.mark.parametrize("flag, message", [
        (["--restarts", "0"], "restarts must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["restarts", "seed"])

    @bad_optimizer_flags
    @pytest.mark.parametrize("measures", [*cli.MEASURES, "eof,asymptote"])
    def test_bad_optimizer_flag_is_domain_error_for_every_measure(self, measures, flag, message,
                                                                  capsys, closed_calls):
        # checked first, whether or not a measure has an oracle route or a Werner closed form
        code, out, err = run_cli(["compute", "--family", "werner", "--d", "3", "--lambda", "0.3",
                                  "--measures", measures, "--numeric", *flag], capsys)
        assert (code, out, err, closed_calls) == (3, "", f"qcorr: {message}\n", [])

    @bad_optimizer_flags
    def test_oracle_compare_checks_optimizer_flags_first(self, flag, message, capsys,
                                                         closed_calls):
        code, out, err = run_cli(["oracle-compare", "--family", "werner", "--d", "2",
                                  "--measure", "mi", "--start", "0", "--stop", "1",
                                  "--step", "0.5", *flag], capsys)
        assert (code, out, err, closed_calls) == (3, "", f"qcorr: {message}\n", [])

    def test_negative_conjecture_seed_is_domain_error(self, capsys, closed_calls):
        code, out, err = run_cli(["conjecture", "--samples", "5", "--seed", "-1"], capsys)
        assert (code, out, err, closed_calls) == (3, "", "qcorr: seed must be >= 0\n", [])

    @pytest.mark.parametrize("dims", [
        ("1", "6"), ("5", "4"), ("2", "100000000000000000000"),
        (str(2**63 - 1), str(2**63 - 1)),
    ], ids=["below-2", "reversed", "beyond-int64", "int64-max"])
    def test_conjecture_range_is_domain_error(self, dims, tmp_path, capsys, closed_calls):
        # d is drawn as an int64 below dmax + 1; past that bound numpy raised its own errors
        path = tmp_path / "x.json"
        code, out, err = run_cli(["conjecture", "--samples", "3", "--dmin", dims[0],
                                  "--dmax", dims[1], "--out", str(path)], capsys)
        message = f"need 2 <= dmin <= dmax < 2**63 - 1, got ({dims[0]}, {dims[1]})"
        assert (code, out, err, closed_calls) == (3, "", f"qcorr: {message}\n", [])
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["compute", "--family", "werner", "--d", "2", "--lambda", "0.5", "--measures", ","],
         "qcorr compute: error: argument --measures: no measures given"),
        (["compute", "--family", "werner", "--d", "2", "--lambda", "0.5",
          "--measures", "discord,nosuch"],
         "qcorr compute: error: argument --measures: unknown measure 'nosuch'; choose from "
         "discord, cc, mi, gd, negativity, eof, asymptote"),
        (["sweep", "--family", "werner", "--d", "2,x", "--start", "0", "--stop", "1",
          "--step", "0.5", "--measures", "mi"],
         "qcorr sweep: error: argument --d: bad integer list '2,x'"),
        (["figure", "fig1", "--dims", ","],
         "qcorr figure: error: argument --dims: empty integer list"),
        (["compute", "--family", "pp", "--d", "2", "--alpha", "0.5", "--schmidt", "0.8,x",
          "--measures", "mi"],
         "qcorr compute: error: argument --schmidt: bad number list '0.8,x'"),
    ], ids=["no-measures", "unknown-measure", "bad-int", "empty-int-list", "bad-number"])
    def test_bad_list_is_usage_error(self, argv, message, capsys, closed_calls):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, closed_calls) == (2, "", [])
        assert err.endswith(message + "\n")

    # the largest d whose Werner products d(d +- 1) are finite floats
    LARGEST_D = (math.isqrt(4 * int(sys.float_info.max) + 1) - 1) // 2

    @pytest.mark.parametrize("d", [LARGEST_D + 1, 10**308, 10**309])
    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "werner", "--lambda", "0.5", "--measures", "discord"],
        ["compute", "--family", "werner", "--lambda", "0.5", "--measures", "mi"],
        ["compute", "--family", "werner", "--lambda", "0.5", "--measures", "discord", "--numeric"],
        ["sweep", "--family", "werner", "--start", "0", "--stop", "1", "--step", "0.5",
         "--measures", "discord,cc,mi,eof,asymptote"],
        ["oracle-compare", "--family", "werner", "--start", "0", "--stop", "1", "--step", "0.5",
         "--measure", "mi"],
        ["figure", "fig1", "--dims"],
    ], ids=["compute-discord", "compute-mi", "compute-numeric", "sweep", "oracle-compare",
            "figure"])
    def test_dimension_beyond_float_arithmetic_is_domain_error(self, argv, d, tmp_path, capsys,
                                                               closed_calls):
        path = tmp_path / "x.csv"
        dims = [str(d)] if argv[-1] == "--dims" else ["--d", str(d)]
        code, out, err = run_cli([*argv, *dims, "--out", str(path)], capsys)
        assert (code, out, closed_calls) == (3, "", [])
        assert err == "qcorr: local dimension too large: d(d+1) exceeds the float maximum\n"
        assert not path.exists()

    def test_largest_dimension_gives_finite_werner_rows(self, capsys):
        d = self.LARGEST_D
        assert d * (d + 1) <= sys.float_info.max < (d + 1) * (d + 2)
        code, out, err = run_cli(["compute", "--family", "werner", "--d", str(d), "--lambda",
                                  "0.25", "--measures", "discord,cc,mi,eof,asymptote"], capsys)
        assert (code, err) == (0, "")
        rows = parse_records(out)
        assert [r["measure"] for r in rows] == ["discord", "cc", "mi", "eof", "asymptote"]
        assert all(math.isfinite(r["value"]) for r in rows)

    @pytest.mark.parametrize("argv, shown", [
        (["compute", "--family", "isotropic", "--d", "1000000000000000", "--alpha", "0.5",
          "--measures", "discord"], "1.000e+15"),
        (["sweep", "--family", "isotropic", "--d", "1000000000000000", "--start", "0",
          "--stop", "1", "--step", "0.5", "--measures", "discord"], "1.000e+15"),
        (["figure", "fig4", "--dims", "1000000000000000"], "1.000e+15"),
        (["conjecture", "--samples", "3", "--dmin", "1000000000000000",
          "--dmax", "1000000000000000"], "1.000e+15"),
        (["conjecture", "--samples", "3", "--dmin", str(2**63 - 2), "--dmax", str(2**63 - 2)],
         "9.223e+18"),
    ], ids=["compute", "sweep", "figure", "conjecture", "conjecture-int64"])
    def test_dimension_beyond_memory_is_domain_error(self, argv, shown, tmp_path, capsys):
        # a Schmidt vector of 10^15 floats (7.1 PiB) cannot be allocated at all
        path = tmp_path / "x.csv"
        start = time.perf_counter()
        code, out, err = run_cli([*argv, "--out", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        limit = linalg.ENVELOPE["Schmidt vector length"]
        assert (code, out) == (3, "")
        assert err == f"qcorr: Schmidt vector length {shown} exceeds the envelope {limit}\n"
        assert not path.exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "qcorr: out of memory\n"),
        (MemoryError("Unable to allocate 7.11 PiB for an array with shape (10**15,)"),
         "qcorr: Unable to allocate 7.11 PiB for an array with shape (10**15,)\n"),
    ], ids=["no-text", "numpy-text"])
    def test_memory_error_is_domain_error_with_text(self, error, message, monkeypatch,
                                                    tmp_path, capsys):
        def exhausted(*args):
            raise error

        monkeypatch.setattr(cf, "werner_discord", exhausted)
        path = tmp_path / "x.csv"
        code, out, err = run_cli(["compute", "--family", "werner", "--d", "3", "--lambda", "0.5",
                                  "--measures", "discord", "--out", str(path)], capsys)
        assert (code, out, err) == (3, "", message)
        assert not path.exists()

    def test_werner_dimension_holds_no_vector_and_is_not_bounded_by_it(self, capsys):
        code, out, err = run_cli(["compute", "--family", "werner", "--d", str(10**154),
                                  "--lambda", "0.5", "--measures", "discord,mi"], capsys)
        assert (code, err) == (0, "")
        assert len(parse_records(out)) == 2

    @pytest.mark.parametrize("grid, message", [
        (["--start", "0", "--stop", "1", "--step", "0"], "grid step must be positive"),
        (["--start", "0", "--stop", "1", "--step=-0.5"], "grid step must be positive"),
        (["--start", "1", "--stop", "0", "--step", "0.5"], "grid start must not exceed stop"),
    ], ids=["zero-step", "negative-step", "reversed"])
    @pytest.mark.parametrize("command", ["sweep", "oracle-compare"])
    def test_bad_grid_is_domain_error(self, grid, message, command, tmp_path, capsys,
                                      closed_calls):
        measure = ["--measures", "mi"] if command == "sweep" else ["--measure", "mi"]
        path = tmp_path / "x.csv"
        code, out, err = run_cli([command, "--family", "werner", "--d", "2", *measure, *grid,
                                  "--out", str(path)], capsys)
        assert (code, out, err, closed_calls) == (3, "", f"qcorr: {message}\n", [])
        assert not path.exists()


class TestOneClosedPath:
    """Every closed value compute, sweep, figure and oracle-compare print comes
    from one call of cli._closed_chunks, which checks the whole request first."""

    GRID = ["--start", "0", "--stop", "1", "--step", "0.25"]
    REQUESTS = {
        "compute": ["compute", "--family", "werner", "--d", "3", "--lambda", "0.3",
                    "--measures", "discord,mi,eof", "--numeric", "--restarts", "2"],
        "sweep": ["sweep", "--family", "werner", "--d", "2,70000,2", *GRID,
                  "--measures", "discord,cc"],
        "figure": ["figure", "fig1", "--dims", "2,70000,2"],
        "oracle-compare": ["oracle-compare", "--family", "werner", "--d", "2", *GRID,
                           "--measure", "mi"],
    }
    # the cells of each output that hold a closed value
    CLOSED_CELLS = {
        "compute": lambda rows: [r[5] for r in rows[1:] if r[6] == "closed"],
        "sweep": lambda rows: [r[5] for r in rows[1:]],
        "figure": lambda rows: [cell for r in rows[1:] for cell in r[1:]],
        "oracle-compare": lambda rows: [r[5] for r in rows[1:]],
    }

    @pytest.mark.parametrize("command", REQUESTS)
    def test_one_call_yields_every_closed_value(self, command, capsys, monkeypatch):
        calls, chunks = [], cli._closed_chunks

        def marked(*args):  # the same chunks, each closed result replaced by 0.125
            calls.append(args)
            return ((d, values, [np.full(len(values), 0.125) for _ in results])
                    for d, values, results in chunks(*args))

        monkeypatch.setattr(cli, "_closed_chunks", marked)
        code, out, _ = run_cli(self.REQUESTS[command], capsys)
        cells = self.CLOSED_CELLS[command]([row.split(",") for row in out.splitlines()])
        # oracle-compare compares the marked closed column too, so it no longer agrees
        assert (code, len(calls)) == (1 if command == "oracle-compare" else 0, 1)
        assert cells and set(cells) == {"0.125"}

    @pytest.mark.parametrize("command, argv, message", [
        ("compute", ["--d", "1", "--lambda", "0.5", "--measures", "discord"],
         "local dimension must be an integer >= 2, got 1"),
        ("compute", ["--d", "2", "--lambda", "1.5", "--measures", "discord"],
         "lam must lie in [0, 1], got 1.5"),
        ("compute", ["--family", "pp", "--d", "3", "--alpha", "0.5", "--schmidt", "0.8,0.6",
                     "--measures", "discord"], "Schmidt vector has length 2, expected 3"),
        ("compute", ["--d", "2", "--lambda", "0.5", "--measures", "mi,gd,negativity"],
         "measure(s) gd, negativity have no closed form for family 'werner'"),
        ("sweep", ["--d", "2,1", *GRID, "--measures", "discord"],
         "local dimension must be an integer >= 2, got 1"),
        ("sweep", ["--d", "2", "--start", "0.5", "--stop", "1.5", "--step", "0.5",
                   "--measures", "discord"], "lam must lie in [0, 1], got 1.5"),
        ("sweep", ["--family", "pp", "--d", "2,3", "--schmidt", "0.8,0.6", *GRID,
                   "--measures", "discord"], "Schmidt vector has length 2, expected 3"),
        ("sweep", ["--d", "2", *GRID, "--measures", "discord,gd"],
         "measure(s) gd have no closed form for family 'werner'"),
        ("figure", ["fig4", "--dims", "2,1"], "local dimension must be an integer >= 2, got 1"),
        ("oracle-compare", ["--d", "1", *GRID, "--measure", "mi"],
         "local dimension must be an integer >= 2, got 1"),
        ("oracle-compare", ["--d", "2", "--start", "0.5", "--stop", "1.5", "--step", "0.5",
                            "--measure", "mi"], "lam must lie in [0, 1], got 1.5"),
        ("oracle-compare", ["--family", "pp", "--d", "3", "--schmidt", "0.8,0.6", *GRID,
                            "--measure", "mi"], "Schmidt vector has length 2, expected 3"),
        ("oracle-compare", ["--d", "2", *GRID, "--measure", "gd"],
         "measure(s) gd have no closed form for family 'werner'"),
    ], ids=[f"{command}-{error}" for command, errors in [
        ("compute", 4), ("sweep", 4), ("figure", 1), ("oracle-compare", 4)]
        for error in ["dimension", "grid", "schmidt", "measure"][:errors]])
    def test_bad_request_exits_3_before_any_closed_form(self, command, argv, message,
                                                       tmp_path, capsys, closed_calls):
        family = [] if command == "figure" or "--family" in argv else ["--family", "werner"]
        path = tmp_path / "x.csv"
        code, out, err = run_cli([command, *family, *argv, "--out", str(path)], capsys)
        assert (code, out, err, closed_calls) == (3, "", f"qcorr: {message}\n", [])
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        # a request with a bad grid, Schmidt vector or optimizer flag names that error
        # before a measure without a closed form: the grid and the Schmidt vector are
        # arguments of the one check that looks the measures up
        (["sweep", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
          "--step", "0", "--measures", "gd"], "grid step must be positive"),
        (["oracle-compare", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
          "--step", "0", "--measure", "gd"], "grid step must be positive"),
        (["compute", "--family", "pp", "--d", "2", "--alpha", "0.5", "--schmidt", "0,0",
          "--normalize", "--measures", "eof"], "Schmidt amplitudes must not all vanish"),
        (["sweep", "--family", "pp", "--d", "2", "--schmidt", "0,0", "--normalize",
          "--start", "0", "--stop", "1", "--step", "0.5", "--measures", "eof"],
         "Schmidt amplitudes must not all vanish"),
        (["oracle-compare", "--family", "werner", "--d", "2", "--start", "0", "--stop", "1",
          "--step", "0.5", "--measure", "gd", "--restarts", "0"], "restarts must be >= 1"),
    ], ids=["sweep-grid", "oracle-compare-grid", "compute-schmidt", "sweep-schmidt",
            "oracle-compare-restarts"])
    def test_two_errors_name_the_one_before_the_measures(self, argv, message, capsys,
                                                         closed_calls):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err, closed_calls) == (3, "", f"qcorr: {message}\n", [])

    @pytest.mark.parametrize("family, argv, records", [
        ("werner", ["sweep", "--family", "werner", "--d", "3", *GRID, "--measures", "discord"],
         2),
        ("werner", ["sweep", "--family", "werner", "--d", "2,3", *GRID, "--measures", "discord"],
         4),
        ("isotropic", ["compute", "--family", "isotropic", "--d", "3", "--alpha", "0.3",
                       "--measures", "discord,cc"], 2),
        ("pp", ["compute", "--family", "pp", "--d", "3", "--alpha", "0.3", "--schmidt",
                "0.8,0.6,0", "--measures", "mi", "--numeric"], 3),
    ], ids=["sweep", "sweep-dims", "compute", "compute-numeric"])
    def test_records_built_per_request(self, family, argv, records, capsys, monkeypatch):
        # each dimension's whole-grid record checks the request and is dropped, each chunk
        # builds its own, and a numeric row adds the record of its one state
        calls, fam = [], cli.FAMILIES[family]

        def counted(*args):
            calls.append(args)
            return fam.params(*args)

        monkeypatch.setitem(cli.FAMILIES, family, fam._replace(params=counted))
        code, _, _ = run_cli(argv, capsys)
        assert (code, len(calls)) == (0, records)


class TestGrid:
    CAP = linalg.ENVELOPE["grid points"]

    def test_one_point_over_the_cap_is_rejected(self):
        message = f"^grid points {self.CAP + 1} exceeds the envelope {self.CAP}$"
        with pytest.raises(ValueError, match=message):
            cli._grid(0.0, 1.0, 1.0 / self.CAP)

    def test_cap_itself_is_accepted(self):
        grid = cli._grid(0.0, 1.0, 1.0 / (self.CAP - 1))
        assert len(grid) == self.CAP
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 1.0, 0.05), (0.1, 0.9, 0.07), (-3.0, 2.5, 1e-3), (0.25, 0.25, 0.1),
        (0.0, 1.0, 1.0 / 999999),
    ])
    def test_points_equal_the_scalar_rule(self, start, stop, step):
        grid = cli._grid(start, stop, step)
        intervals = (stop - start) / step + 1e-9
        expected = [min(start + i * step, stop) for i in range(int(intervals) + 1)]
        if stop - expected[-1] <= 1e-9 * step:
            expected[-1] = stop
        assert grid.dtype == np.float64 and grid.tobytes() == np.array(expected).tobytes()

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
        with pytest.raises(ValueError, match="^grid points Infinity exceeds the envelope"):
            cli._grid(*args)


class Reached(Exception):
    """Raised by a patched function in place of the work an envelope row bounds."""


def _reach(*args, **kwargs):
    raise Reached


# Envelope row -> ((module, name) of the function that starts the work the row bounds,
# the request at a parameter n, and the largest n inside the limit). Both requests stop
# at that function: the one at n + 1 must exit 3 before it.
ENVELOPE_REQUESTS = {
    "state side": (  # eof has no oracle route, but mi beside it builds the state
        (cli, "build_werner"),
        lambda d: ["compute", "--family", "werner", "--d", str(d), "--lambda", "0.3",
                   "--measures", "eof,mi", "--numeric"],
        math.isqrt),
    "measured dimension": (
        (cli, "build_werner"),
        lambda d: ["compute", "--family", "werner", "--d", str(d), "--lambda", "0.3",
                   "--measures", "discord", "--numeric"],
        lambda limit: limit),
    "grid points": (
        (cli, "WernerParams"),
        lambda n: ["sweep", "--family", "werner", "--d", "2", "--measures", "mi",
                   "--start", "0", "--stop", "1", "--step", repr(1.0 / (n - 1))],
        lambda limit: limit),
    "Schmidt vector length": (
        (oracle, "random_schmidt_vector"),
        lambda n: ["conjecture", "--samples", "1", "--dmin", str(n), "--dmax", str(n)],
        lambda limit: limit),
    "basis search entries": (
        (cli, "build_pseudo_pure"),
        lambda r: ["compute", "--family", "pp", "--d", "3", "--alpha", "0.5",
                   "--schmidt", "0.8,0.6,0", "--measures", "gd", "--numeric", "--restarts", str(r)],
        lambda limit: limit // 3**4),
}


class TestEnvelope:
    def test_every_row_has_requests(self):
        assert set(ENVELOPE_REQUESTS) == set(linalg.ENVELOPE)

    @pytest.mark.parametrize("row", ENVELOPE_REQUESTS)
    def test_request_inside_reaches_the_work(self, row, monkeypatch):
        (module, name), argv, largest = ENVELOPE_REQUESTS[row]
        monkeypatch.setattr(module, name, _reach)
        with pytest.raises(Reached):
            cli.main(argv(largest(linalg.ENVELOPE[row])))

    @pytest.mark.parametrize("row", ENVELOPE_REQUESTS)
    def test_request_outside_exits_3_before_the_work(self, row, monkeypatch, tmp_path, capsys,
                                                     closed_calls):
        (module, name), argv, largest = ENVELOPE_REQUESTS[row]
        monkeypatch.setattr(module, name, _reach)
        limit = linalg.ENVELOPE[row]
        path = tmp_path / "x.csv"
        code, out, err = run_cli([*argv(largest(limit) + 1), "--out", str(path)], capsys)
        assert (code, out, closed_calls) == (3, "", [])
        assert err.startswith(f"qcorr: {row} ") and err.endswith(f" exceeds the envelope {limit}\n")
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "pp", "--d", "3", "--alpha", "0.5", "--schmidt", "0.8,0.6,0",
         "--measures", "gd", "--numeric"],
        ["oracle-compare", "--family", "isotropic", "--d", "3", "--measure", "discord",
         "--start", "0.5", "--stop", "0.5", "--step", "0.1"],
    ], ids=["compute", "oracle-compare"])
    def test_restarts_beyond_memory_exit_3_before_any_start(self, argv, monkeypatch, tmp_path,
                                                            capsys, closed_calls):
        # the seed list and the Ginibre draws of 10^11 restarts grew past a 20 s timeout
        monkeypatch.setattr(oracle, "random_unitaries", _reach)
        monkeypatch.setattr(cli, "build_pseudo_pure", _reach)
        path = tmp_path / "x.csv"
        start = time.perf_counter()
        code, out, err = run_cli([*argv, "--restarts", "100000000000", "--out", str(path)],
                                 capsys)
        assert time.perf_counter() - start < 1.0
        limit = linalg.ENVELOPE["basis search entries"]
        assert (code, out, closed_calls) == (3, "", [])
        assert err == f"qcorr: basis search entries 8100000000000 exceeds the envelope {limit}\n"
        assert not path.exists()


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
        for row, limit in linalg.ENVELOPE.items():
            assert f"| `{row}` | {limit} |" in readme

    def test_readme_quick_start_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        werner, pp, numeric = capsys.readouterr().out.splitlines()
        w, p = namespace["w"], namespace["p"]
        assert werner == str({m: e.werner(w) for m, e in cli.MEASURES.items() if e.werner})
        assert pp == str({m: e.pp(p) for m, e in cli.MEASURES.items() if e.pp})
        assert float(numeric) == pytest.approx(cf.pp_discord(p), abs=1e-6)

    def test_oracle_compare_tolerances(self):
        tolerances = {m: e.tolerance for m, e in cli.MEASURES.items() if e.oracle}
        assert tolerances == {"discord": 1e-6, "cc": 1e-6, "mi": 1e-6, "gd": 1e-6,
                              "negativity": 1e-9}
