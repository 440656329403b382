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
    # gd moved by 8.0e-16, discord and cc by 4.4e-16, each within 1.6e-15 of its closed form
    "compute-pp-numeric-json": (
        ["compute", "--family", "pp", "--d", "3", "--alpha", "0.6", "--schmidt", "0.8,0.6,0",
         "--measures", PP_MEASURES, "--numeric", "--restarts", "4", "--seed", "1",
         "--format", "json"],
        "2741547d1dc4a6692539f295b893e3e3cff21d4d0145fb7c9f15bf6357e4cd24"),
    # Newton basis search: every restart now converges; discord and gd moved by at most 6.7e-15;
    # analytic Hessian: discord moved by 4.2e-15, gd by 5.6e-16, both within 3.1e-15 of the
    # closed forms
    "compute-pp-numeric-budget": (
        ["compute", "--family", "pp", "--d", "4", "--alpha", "0.6", "--schmidt", "0.7,0.5,0.4,0.3",
         "--normalize", "--measures", "discord,gd", "--numeric", "--restarts", "3", "--seed", "1",
         "--format", "json"],
        "cc5336ffe38eeb125ae4cea66362b4373debada9519238859e304c53f29a6d92"),
    "oracle-compare-isotropic-negativity": (
        ["oracle-compare", "--family", "isotropic", "--d", "3", "--measure", "negativity",
         "--start", "0", "--stop", "1", "--step", "0.1"],
        "87fb021dd3a12062a815123f0391991bab121deede92cefc17efb12ea4176f2e"),
    # Newton basis search: max_gd_gap went from 8.5e-16 to 1.0e-15; analytic Hessian: to 1.8e-15
    "conjecture": (
        ["conjecture", "--samples", "40", "--dmax", "4"],
        "683505b56c39232ba0b8a5050536649bb04b1ba36099e541910585473ee602d1"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stdout_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("chunk_floats", [5, 64])
@pytest.mark.parametrize("name", [n for n in GOLDEN if n.startswith(("sweep", "figure"))])
def test_digest_with_the_grid_in_chunks(name, chunk_floats, capsys, monkeypatch):
    # each dimension's grid is evaluated in chunks of chunk_floats // d values (at least one)
    monkeypatch.setattr(cli, "_CHUNK_FLOATS", chunk_floats)
    test_stdout_digest(name, capsys)


def test_oracle_compare_summary_line(capsys):
    argv, _ = GOLDEN["oracle-compare-isotropic-negativity"]
    assert cli.main(argv) == 0
    _, err = capsys.readouterr()
    assert err == "oracle-compare isotropic d=3 negativity: max_gap=1.110e-16 tolerance=1e-09 ok\n"
