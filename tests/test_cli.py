import os
import subprocess
import sys
import xml.dom.minidom

import pytest

from pxdg import cli
from pxdg.cli import main


@pytest.fixture()
def const2_spec(tmp_path):
    path = tmp_path / "const2.spec"
    path.write_text("p = kind=const value=2\nuD_left = -1\nuD_right = 1\n")
    return str(path)


def test_solve_custom_sanity(tmp_path, const2_spec, capsys):
    out = str(tmp_path / "run")
    code = main(["solve", "--method", "dg", "--n", "4",
                 "--problem", f"custom:{const2_spec}", "--out", out])
    assert code == 0
    for name in ("solution.csv", "terms.csv", "trace.csv"):
        assert os.path.exists(os.path.join(out, name))
    assert "converged=True stop=converged" in capsys.readouterr().out


def test_solve_paper_writes_errors_and_plot(tmp_path):
    out = str(tmp_path / "run")
    code = main(["solve", "--method", "dg", "--n", "10", "--out", out,
                 "--plot", "svg"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "errors.csv"))
    doc = xml.dom.minidom.parse(os.path.join(out, "solution.svg"))
    assert doc.getElementsByTagName("polyline")


def test_diverged_solve_is_a_solve_error(tmp_path, const2_spec, capsys, monkeypatch):
    def diverge(spec, k, cfg):
        raise ArithmeticError("DG solve diverged to a non-finite state")

    monkeypatch.setattr(cli, "solve_dg", diverge)
    code = main(["solve", "--method", "dg", "--n", "4",
                 "--problem", f"custom:{const2_spec}", "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith("solve error: DG solve diverged")


def test_cli_import_leaves_out_scipy_solvers():
    # numpy is the only runtime dependency: scipy's import time and memory would
    # land on every command
    code = ("import sys, pxdg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_compare_small(tmp_path):
    out = str(tmp_path / "cmp")
    code = main(["compare", "--n", "10", "--out", out, "--tol", "1e-7"])
    assert code == 0
    text = open(os.path.join(out, "compare_n10.csv")).read()
    lines = text.strip().split("\n")
    assert lines[0].startswith("method,")
    assert lines[1].startswith("dg,10,") and lines[2].startswith("cg,20,")


def test_convergence_footer_and_single_row(tmp_path):
    out = str(tmp_path / "conv")
    code = main(["convergence", "--ns", "10,20", "--out", out])
    assert code == 0
    text = open(os.path.join(out, "convergence_dg.csv")).read()
    assert "# order[lux_error]" in text
    out2 = str(tmp_path / "conv1")
    assert main(["convergence", "--ns", "10", "--out", out2]) == 0
    text2 = open(os.path.join(out2, "convergence_dg.csv")).read()
    assert "# order" not in text2  # no footer for a single row


def test_exact_command(tmp_path):
    out = str(tmp_path / "exact.csv")
    assert main(["exact", "--samples", "11", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "x,u,uprime" and len(lines) == 12


def test_properties_exit_codes(tmp_path):
    assert main(["properties", "--suite", "modular", "--seed", "0"]) == 0
    rep = str(tmp_path / "props.csv")
    code = main(["properties", "--suite", "lifting", "--debug-break-h",
                 "--out", rep])
    assert code == 2
    assert "0" in open(rep).read()


def test_properties_seed_invariance():
    # verdicts hold for any seed
    assert main(["properties", "--suite", "modular", "--seed", "1"]) == 0
    assert main(["properties", "--suite", "modular", "--seed", "99"]) == 0


def test_unknown_suite_is_config_error():
    assert main(["properties", "--suite", "nope"]) == 3


def test_unknown_problem_is_config_error(tmp_path, capsys):
    # an unknown problem name, an unknown xi, and an exponent field missing a key
    bad_xi = tmp_path / "bad_xi.spec"
    bad_xi.write_text("p = kind=const value=2\nxi = bogus\n")
    no_a = tmp_path / "no_a.spec"
    no_a.write_text("p = kind=hat eps=0.01\n")
    for problem, named in (("wat", "'wat'"), (f"custom:{bad_xi}", "'bogus'"),
                           (f"custom:{no_a}", "'a'")):
        assert main(["solve", "--method", "dg", "--n", "4",
                     "--problem", problem, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err


def test_degree_the_quadrature_cannot_see_is_config_error(tmp_path, capsys):
    # one trapezoid panel has 2 points per element: too few for a cubic's derivative
    out = str(tmp_path / "run")
    assert main(["solve", "--n", "40", "--k", "3", "--out", out]) == 3
    assert capsys.readouterr().err.startswith("config error")
    assert main(["solve", "--method", "cg", "--n", "40", "--k", "3",
                 "--m-panels", "2", "--out", out]) == 0
    assert "stop=converged" in capsys.readouterr().out


def test_config_file_with_flag_precedence(tmp_path, const2_spec):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"problem = custom:{const2_spec}\nn = 8\nmax-iters = 50\n")
    out = str(tmp_path / "run")
    # --n on the command line wins over the file's n = 8
    code = main(["solve", "--method", "dg", "--n", "4", "--config", str(cfgfile),
                 "--out", out])
    assert code == 0
    rows = open(os.path.join(out, "solution.csv")).read().strip().split("\n")
    assert len(rows) == 1 + 4 * 2


def test_config_file_values_take_the_flag_type(tmp_path, const2_spec):
    # --l defaults to None: its file value must still become an int, and act as --l
    # (lifting degree 2 needs 3 quadrature points per element)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"problem = custom:{const2_spec}\nl = 2\n")
    outs = [str(tmp_path / "file"), str(tmp_path / "flag")]
    assert main(["solve", "--n", "4", "--m-panels", "2", "--config", str(cfgfile),
                 "--out", outs[0]]) == 0
    assert main(["solve", "--n", "4", "--m-panels", "2", "--problem", f"custom:{const2_spec}",
                 "--l", "2", "--out", outs[1]]) == 0
    file_terms, flag_terms = (open(os.path.join(o, "terms.csv")).read() for o in outs)
    assert file_terms == flag_terms


@pytest.mark.parametrize("flags", [["--k", "2"], ["--k", "1", "--quad", "gauss", "--m-panels", "1"],
                                   ["--k", "2", "--l", "3", "--m-panels", "2"]])
def test_dg_quadrature_too_coarse_for_the_lifted_gradient_is_config_error(
        tmp_path, capsys, flags):
    # G + R(v) has degree max(k - 1, l): these rules have one point too few
    code = main(["solve", "--n", "40", *flags, "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error") and "needs at least" in err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("flags", [["--k", "2", "--l", "1"], ["--k", "2", "--m-panels", "2"],
                                   ["--method", "cg", "--k", "2"]])
def test_dg_quadrature_that_sees_the_lifted_gradient_converges(tmp_path, capsys, flags):
    # CG has no lifting: two points see the derivative of a quadratic
    code = main(["solve", "--n", "40", *flags, "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_OK
    assert "stop=converged" in capsys.readouterr().out


def test_unparsable_config_value_is_config_error(tmp_path, const2_spec, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"problem = custom:{const2_spec}\nmax-iters = abc\n")
    code = main(["solve", "--n", "4", "--config", str(cfgfile),
                 "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and "max_iters" in err and "'abc'" in err


def test_convergence_custom_problem_order(tmp_path, const2_spec):
    # classical p = 2 case: reference comes from the finest mesh, order about 1
    out = str(tmp_path / "conv")
    code = main(["convergence", "--ns", "10,20,40", "--method", "dg",
                 "--problem", f"custom:{const2_spec}", "--out", out])
    assert code == 0
    text = open(os.path.join(out, "convergence_dg.csv")).read()
    for line in text.splitlines():
        if line.startswith("# order[lux_error]"):
            orders = [float(t) for t in line.split(",")[1:]]
            assert all(o >= 0.8 for o in orders)
            break
    else:
        raise AssertionError("missing order footer")
