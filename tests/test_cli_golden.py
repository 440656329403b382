"""Golden CLI output: SHA-256 digests of stdout for fixed invocations.

The digests pin the bytes the CLI writes, not just their agreement between
two runs. They were recorded with Python 3.11 and numpy 2.4 on
x86-64; the oracle rows (``compute --numeric``, ``conjecture``) depend on
floating-point results of the linear-algebra backend, so another BLAS may
change their last digits. A digest is changed only together with an
intended change of the output, and the reason is written down with it.

``compute-pp-numeric-budget`` pins the choice among restarts that agree
only up to rounding: at d = 4 with 3 restarts, the three Haar-random starts
of the discord and the gd search each converge after 23 to 44 basis
evaluations to minima within 7.1e-15 of each other, so the printed values
come from whichever restart is lowest in the last bits.

The three oracle digests (``compute-pp-numeric-json``,
``compute-pp-numeric-budget`` and ``conjecture``) were re-recorded when the
basis search moved from a simplex over Givens angles to a Newton descent
on U(d); the printed values moved by at most 6.7e-15, and the new digests
are the same with BLAS on one thread and on its default thread count. They
were re-recorded again when the Newton steps took an analytic Hessian instead
of finite differences of the gradient: the printed values moved by at most
4.2e-15, again with the same digests on one thread and on the default count.
They were re-recorded a third time when each Newton step's first trial was
bounded to a rotation by at most pi and the Hessian's step came from a real
instead of a complex eigensolve: the line search now visits other bases, so
the printed values moved by at most 2.7e-15 and stay within 4.7e-15 of the
closed forms, with the same digests on one thread and on the default count.
They were re-recorded a fourth time when the Hessian came to be built from
the table of off-diagonal blocks <u_j|rho|u_k> instead of a loop over
outcomes: the Hessian moved in its last bits (within 4e-15 of the loop's on
unit-trace states), so the line search visits other bases; the printed values
moved by at most 2.7e-15 and stay within 4.3e-15 of the closed forms, again
with the same digests on one thread and on the default count, which CI checks.
No closed-form digest moved.

The ``oracle-compare`` digests of Werner discord and pseudo-pure gd pin a
closed column next to an oracle column; both were recorded with the same
digests on one BLAS thread and on the default thread count.
"""

import hashlib

import pytest

from qcorr import cli

PP_MEASURES = "discord,cc,mi,gd,negativity,asymptote"
GRID = ["--start", "0", "--stop", "1", "--step", "0.05"]

GOLDEN = {
    "figure-fig1": (
        ["figure", "fig1"],
        "c18c102c472276278db6bc6ae4f9889c8909725e4427c29ff393e7d75282ab2b"),
    "figure-fig2": (
        ["figure", "fig2"],
        "67ec81eb94231788e1bd279ec88165c3ca51ff91d71cfda5951ff216a13018ae"),
    "figure-fig3": (
        ["figure", "fig3"],
        "07e83dceef1d890c5809388beeded7eafb08718699cddf739c83761303387151"),
    "figure-fig4": (
        ["figure", "fig4"],
        "cce2b9ecbe55ad0eb9eb7b7546fe3533f55f7cc380e634834773ffd3f8485985"),
    "figure-fig5": (
        ["figure", "fig5"],
        "73f669da1f7cb88ce0d3819419ab580bf6faf816a27ce24c933fc9532ac16275"),
    "figure-fig6": (
        ["figure", "fig6"],
        "e6b15dfeb46f66df999f7e69055e045bf096bd5ce80827a4ccccfd1ac30a2345"),
    # closed rows of compute in CSV form
    "compute-werner": (
        ["compute", "--family", "werner", "--d", "3", "--lambda", "0.8",
         "--measures", "discord,cc,mi,eof,asymptote"],
        "5b7a74e1ac89a447dc3dc7a0de011c3e06925e2bff7412dad4835dedd6a3af73"),
    "compute-isotropic": (
        ["compute", "--family", "isotropic", "--d", "3", "--alpha", "0.6",
         "--measures", PP_MEASURES],
        "bb766a950da9eda1a4a4af18b0bd8a20a291c1975e590719cd98898f5fbb9cac"),
    "compute-pp-normalize": (
        ["compute", "--family", "pp", "--d", "4", "--alpha", "0.6", "--schmidt", "0.7,0.5,0.4,0.3",
         "--normalize", "--measures", PP_MEASURES],
        "0b33857b864e8263d1046660f127f85faac6676fb00eee5da5956192f9e13f50"),
    "sweep-werner": (
        ["sweep", "--family", "werner", "--d", "2,3,10", *GRID,
         "--measures", "discord,cc,mi,eof,asymptote"],
        "d75690ebc342a6ecf90c7c9c9f454c8ba762ca87cbbc647b884b6d25d8de2739"),
    "sweep-isotropic": (
        ["sweep", "--family", "isotropic", "--d", "2,3,10", *GRID, "--measures", PP_MEASURES],
        "6bd6e297f9a00618ae3ecf2b6fb7238aa3cb50b6d490449a5d73b2da7b262a22"),
    "sweep-pp-normalize": (
        ["sweep", "--family", "pp", "--d", "3", "--schmidt", "1,3,2", "--normalize", *GRID,
         "--measures", PP_MEASURES],
        "c4903a9d47f095ec05edd6cd808876c4fce93e76a357d08ce58ca25f1f786108"),
    # Newton basis search: discord, cc and gd moved by at most 1.6e-15; analytic Hessian:
    # gd moved by 8.0e-16, discord and cc by 4.4e-16, each within 1.6e-15 of its closed form;
    # step bound at pi: gd moved by 1.9e-15 to within 2.5e-15 of its closed form; Hessian from
    # the table of off-diagonal blocks: discord and cc moved by 2.7e-15, gd by 1.4e-15, each
    # within 4.3e-15 of its closed form
    "compute-pp-numeric-json": (
        ["compute", "--family", "pp", "--d", "3", "--alpha", "0.6", "--schmidt", "0.8,0.6,0",
         "--measures", PP_MEASURES, "--numeric", "--restarts", "4", "--seed", "1",
         "--format", "json"],
        "cc9be5aec006a0f2dff071eaaf3cbc4626b8fc3dba2e711621fdfa07e89853f3"),
    # Newton basis search: every restart now converges; discord and gd moved by at most 6.7e-15;
    # analytic Hessian: discord moved by 4.2e-15, gd by 5.6e-16, both within 3.1e-15 of the
    # closed forms; step bound at pi: discord moved by 1.6e-15, gd by 2.7e-15, both within
    # 4.7e-15 of the closed forms; Hessian from the table of off-diagonal blocks: discord moved
    # by 2.7e-15, gd by 6.7e-16, both within 2.0e-15 of the closed forms
    "compute-pp-numeric-budget": (
        ["compute", "--family", "pp", "--d", "4", "--alpha", "0.6", "--schmidt", "0.7,0.5,0.4,0.3",
         "--normalize", "--measures", "discord,gd", "--numeric", "--restarts", "3", "--seed", "1",
         "--format", "json"],
        "5e67f14a620f0ff2f880dbbf32a3886f876f9ea397d26b1360cf5dc31bfb9ff2"),
    "oracle-compare-isotropic-negativity": (
        ["oracle-compare", "--family", "isotropic", "--d", "3", "--measure", "negativity",
         "--start", "0", "--stop", "1", "--step", "0.1"],
        "87fb021dd3a12062a815123f0391991bab121deede92cefc17efb12ea4176f2e"),
    # the closed column at lambda = 0.25 prints -1.11022302463e-16, so a closed form
    # evaluated on another path shows in these bytes even where the oracle agrees
    "oracle-compare-werner-discord": (
        ["oracle-compare", "--family", "werner", "--d", "2", "--measure", "discord",
         "--start", "0", "--stop", "1", "--step", "0.125"],
        "0cd5dddb6bb618c084b75b751f64377ec4cbf267fa58300f692e5ddab8523963"),
    "oracle-compare-pp-gd": (
        ["oracle-compare", "--family", "pp", "--d", "3", "--schmidt", "0.8,0.6,0",
         "--measure", "gd", "--start", "0", "--stop", "1", "--step", "0.25"],
        "e11a4326595f7567eb3313c3a186265829553718afce9facedd31ace66900230"),
    # Newton basis search: max_gd_gap went from 8.5e-16 to 1.0e-15; analytic Hessian: to 1.8e-15;
    # step bound at pi: to 6.0e-16; Hessian from the table of off-diagonal blocks: to 1.9e-15
    "conjecture": (
        ["conjecture", "--samples", "40", "--dmax", "4"],
        "3e6ad4860559c192807fcfe4d076943f065873dae7cb7dfbd12b22384b665725"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stdout_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("chunk_floats", [5, 64])
@pytest.mark.parametrize("name", [n for n in GOLDEN
                                  if n.startswith(("sweep", "figure", "oracle-compare"))])
def test_digest_with_the_grid_in_chunks(name, chunk_floats, capsys, monkeypatch):
    # each dimension's grid is evaluated in chunks of chunk_floats // max(w, 32) values (at
    # least one), w the length of the Schmidt vector (0 for Werner)
    monkeypatch.setattr(cli, "_CHUNK_FLOATS", chunk_floats)
    test_stdout_digest(name, capsys)


@pytest.mark.parametrize("name", [n for n in GOLDEN if n.startswith(("compute", "sweep", "figure"))])
def test_out_file_holds_the_stdout_bytes(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    path = tmp_path / "out"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_oracle_compare_summary_line(capsys):
    argv, _ = GOLDEN["oracle-compare-isotropic-negativity"]
    assert cli.main(argv) == 0
    _, err = capsys.readouterr()
    assert err == "oracle-compare isotropic d=3 negativity: max_gap=1.110e-16 tolerance=1e-09 ok\n"
