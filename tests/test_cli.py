import importlib
import os
import pkgutil
import re
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import pxdg
from pxdg import cli
from pxdg.broken import BrokenFunction, dof_points
from pxdg.cli import main
from pxdg.exponents import ExponentField
from pxdg.meshes import Mesh1D, uniform_mesh
from pxdg.problems import load_problem_file

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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
    line = capsys.readouterr().out
    assert "converged=True stop=converged" in line
    iters, evals = map(int, re.search(r" iters=(\d+) evals=(\d+) ", line).groups())
    assert evals >= iters >= 1
    newton = int(re.search(r" evals=\d+ newton=(\d+) ", line).group(1))
    assert 0 <= newton <= iters
    assert "gap=" not in line  # the gradient test converged; no gap was taken


def _table(path):
    header, *rows = open(path).read().splitlines()
    return header, [row.split(",") for row in rows]


def test_solve_tables(tmp_path, const2_spec, capsys):
    out = str(tmp_path / "run")
    assert main(["solve", "--k", "2", "--m-panels", "2", "--n", "4",
                 "--problem", f"custom:{const2_spec}", "--out", out]) == 0
    line = capsys.readouterr().out
    energy = re.search(r"energy=(\S+) ", line).group(1)
    iters = int(re.search(r" iters=(\d+) ", line).group(1))
    header, rows = _table(os.path.join(out, "solution.csv"))
    assert header == "element,local_node,x,value" and len(rows) == 4 * 3
    assert [(int(e), int(j)) for e, j, _, _ in rows[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    x = dof_points(uniform_mesh(-1.0, 1.0, 4), 2).ravel()
    assert [float(r[2]) for r in rows] == x.tolist()
    header, rows = _table(os.path.join(out, "terms.csv"))
    assert header == "grad_term,fidelity,dir_penalty,int_penalty,neumann,total"
    assert len(rows) == 1 and len(rows[0]) == 6 and rows[0][-1] == energy
    header, rows = _table(os.path.join(out, "trace.csv"))
    assert header == "iteration,f,grad_max" and len(rows) == iters + 1
    assert [int(r[0]) for r in rows] == list(range(iters + 1))


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


def test_every_export_resolves():
    # a deleted or moved name must leave every __all__ with it
    modules = [pxdg] + [importlib.import_module(f"pxdg.{m.name}")
                        for m in pkgutil.iter_modules(pxdg.__path__)]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert modules[1:] and not stale


def test_readme_examples_parse_and_load(tmp_path):
    with open(README) as fh:
        text = fh.read()
    block = text.split("## Command line")[1].split("```")[1]
    commands = [line.partition("#")[0].replace("[", "").replace("]", "").split()
                for line in block.splitlines() if line.startswith("pxdg ")]
    parser, _ = cli._build_parser()
    assert [parser.parse_args(argv[1:]).command for argv in commands] == [
        "solve", "solve", "solve", "convergence", "compare", "exact", "properties"]
    spec = tmp_path / "readme.spec"
    spec.write_text(text.split("Custom problems are")[1].split("```")[1])
    opts = load_problem_file(spec)
    assert opts["p"] == ExponentField.hat_family(0.01, 0.01)
    assert (opts["u_D"], opts["dirichlet"], opts["xi"], opts["domain"]) == (
        {"left": -1.0, "right": 1.0}, "both", None, (-1.0, 1.0))


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


def test_exact_command(tmp_path, capsys):
    out = str(tmp_path / "exact.csv")
    assert main(["exact", "--samples", "11", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "x,u,uprime" and len(lines) == 12
    B = re.search(r"B=(\S+) ", capsys.readouterr().out).group(1)
    assert lines[-1].split(",")[:2] == ["1", B]  # u(1) = B, to all 17 digits
    # B overflows float64 at this dip: no table, and no solve on it either
    bad = str(tmp_path / "bad.csv")
    assert main(["exact", "--eps", "1e-4", "--out", bad]) == 3
    assert main(["solve", "--n", "4", "--eps", "1e-4", "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("config error") and "overflows" in e for e in err)
    assert not os.path.exists(bad)


@pytest.mark.parametrize("samples", [0, 1])
def test_exact_table_without_both_ends_is_config_error(tmp_path, capsys, samples):
    out = str(tmp_path / "exact.csv")
    assert main(["exact", "--samples", str(samples), "--out", out]) == 3
    assert "--samples" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_properties_exit_codes(tmp_path, monkeypatch):
    assert main(["properties", "--suite", "modular", "--seed", "0"]) == 0
    assert main(["properties", "--debug-break-h"]) == 3  # no such flag any more
    # negative control: face sizes misdefined as h^3 break the lifting bound
    sizes = Mesh1D.interior_face_sizes.fget
    monkeypatch.setattr(Mesh1D, "interior_face_sizes", property(lambda m: sizes(m) ** 3))
    rep = str(tmp_path / "props.csv")
    assert main(["properties", "--suite", "lifting", "--out", rep]) == 2
    assert "\nlifting,bound_ratio_stable,0," in open(rep).read()


@pytest.mark.parametrize("suite", ["pointwise", "log_holder", "bv_bound", "inverse_estimate",
                                   "reconstruction", "broken_poincare", "coercivity",
                                   "consistency"])
def test_property_suite_passes(suite):
    # the other two suites, modular and lifting, run in test_properties_exit_codes
    assert main(["properties", "--seed", "0", "--suite", suite]) == 0


def test_properties_seed_invariance():
    # verdicts hold for any seed
    assert main(["properties", "--suite", "modular", "--seed", "1"]) == 0
    assert main(["properties", "--suite", "modular", "--seed", "99"]) == 0


def test_non_finite_tolerance_is_config_error(tmp_path, capsys):
    for tol in ("inf", "nan", "-1"):
        assert main(["solve", "--method", "dg", "--n", "10", "--tol", tol,
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("config error")


def test_unknown_suite_is_config_error():
    assert main(["properties", "--suite", "nope"]) == 3


def test_unknown_problem_is_config_error(tmp_path, capsys):
    # an unknown problem name, an unknown xi, an exponent field missing a key or
    # with a token that has no '=', a domain that is not two numbers, values
    # that are not numbers or not a dirichlet tag, exponents that are not finite,
    # a key given twice, and fidelity on without xi or q
    bad_xi = tmp_path / "bad_xi.spec"
    bad_xi.write_text("p = kind=const value=2\nxi = bogus\n")
    no_a = tmp_path / "no_a.spec"
    no_a.write_text("p = kind=hat eps=0.01\n")
    bad_fidelity = tmp_path / "bad_fidelity.spec"
    bad_fidelity.write_text("p = kind=const value=2\nfidelity = yes\n")
    no_equals = tmp_path / "no_equals.spec"
    no_equals.write_text("p = kind=const 2\n")
    one_end = tmp_path / "one_end.spec"
    one_end.write_text("p = kind=const value=2\ndomain = 1\n")
    three_ends = tmp_path / "three_ends.spec"
    three_ends.write_text("p = kind=const value=2\ndomain = -1,0,1\n")
    bad_ud = tmp_path / "bad_ud.spec"
    bad_ud.write_text("p = kind=const value=2\nuD_left = abc\n")
    bad_value = tmp_path / "bad_value.spec"
    bad_value.write_text("p = kind=const value=abc\n")
    bad_tag = tmp_path / "bad_tag.spec"
    bad_tag.write_text("p = kind=const value=2\ndirichlet = bogus\n")
    nan_value = tmp_path / "nan_value.spec"
    nan_value.write_text("p = kind=const value=nan\n")
    inf_value = tmp_path / "inf_value.spec"
    inf_value.write_text("p = kind=const value=inf\n")
    nan_break = tmp_path / "nan_break.spec"
    nan_break.write_text("p = kind=pwl xs=-1,nan vals=2,3\n")
    twice = tmp_path / "twice.spec"
    twice.write_text("p = kind=const value=2\np = kind=const value=3\n")
    twice_in_p = tmp_path / "twice_in_p.spec"
    twice_in_p.write_text("p = kind=const value=2 value=3\n")
    no_xi = tmp_path / "no_xi.spec"
    no_xi.write_text("p = kind=const value=2\nq = kind=const value=2\nfidelity = on\n")
    no_q = tmp_path / "no_q.spec"
    no_q.write_text("p = kind=const value=2\nxi = sin\nfidelity = on\n")
    for problem, named in (("wat", "'wat'"), (f"custom:{bad_xi}", "'bogus'"),
                           (f"custom:{no_a}", "'a'"), (f"custom:{bad_fidelity}", "'yes'"),
                           (f"custom:{no_equals}", "'2'"), (f"custom:{one_end}", "domain"),
                           (f"custom:{three_ends}", "domain"),
                           (f"custom:{bad_ud}", "uD_left = 'abc'"),
                           (f"custom:{bad_value}", "value='abc'"),
                           (f"custom:{bad_tag}", "'bogus'"),
                           (f"custom:{nan_value}", "nan"), (f"custom:{inf_value}", "inf"),
                           (f"custom:{nan_break}", "nan"), (f"custom:{twice}", "'p'"),
                           (f"custom:{twice_in_p}", "'value'"),
                           (f"custom:{no_xi}", "fidelity = on"),
                           (f"custom:{no_q}", "fidelity = on")):
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
    cfgfile.write_text(f"problem = custom:{const2_spec}\nn = 8\nmax-iters = 50  # a comment\n")
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


def test_config_key_given_twice_is_config_error(tmp_path, capsys):
    # the last value would win silently, and this one would run to convergence;
    # max-iters and max_iters are the same key
    cfgfile = tmp_path / "twice.cfg"
    for text, named in (("max-iters = 1\nmax-iters = 500\n", "'max-iters'"),
                        ("max-iters = 1\nmax_iters = 500\n", "'max_iters'")):
        cfgfile.write_text(text)
        code = main(["solve", "--n", "10", "--config", str(cfgfile),
                     "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not os.path.exists(tmp_path / "run")


def test_config_value_outside_the_flag_choices_is_config_error(tmp_path, const2_spec, capsys):
    for line, named in (("method = fem", "'fem'"), ("plot = png", "'png'")):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"problem = custom:{const2_spec}\n{line}\n")
        code = main(["solve", "--n", "4", "--config", str(cfgfile),
                     "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error") and line.split()[0] in err and named in err
        assert ("'dg', 'cg'" if "method" in line else "'svg'") in err
        assert not os.path.exists(tmp_path / "run")


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


def test_convergence_samples_the_reference_grid_once(tmp_path, const2_spec, monkeypatch):
    # the reference is evaluated on its 2047-point grid once per run and each
    # row's solution once: 4 grid evaluations for 3 rows, where it was 6
    grid_sizes = []
    call = BrokenFunction.__call__

    def counted(u, x, side="left"):
        grid_sizes.append(np.size(x))
        return call(u, x, side)

    monkeypatch.setattr(BrokenFunction, "__call__", counted)
    assert main(["convergence", "--ns", "10,20,40", "--method", "dg",
                 "--problem", f"custom:{const2_spec}", "--out", str(tmp_path / "conv")]) == 0
    assert grid_sizes.count(2047) == 4


def test_flag_wins_over_config_only_spelled_out(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("max_iters = 1\n")
    base = ["solve", "--n", "10", "--config", str(cfgfile), "--out", str(tmp_path / "run")]
    assert main(base + ["--max-iters", "500"]) == 0
    assert "stop=converged" in capsys.readouterr().out
    # an abbreviation the config file would not see as given is a usage error
    assert main(base + ["--max", "500"]) == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--n", "4", "--bogus", "1"],
                                  ["solve", "--n", "4", "--method", "fem"], ["nope"],
                                  ["convergence", "--plot", "svg"]])
def test_usage_error_is_config_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: pxdg")
    assert not os.path.exists(tmp_path / "run")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0 and "--max-iters" in capsys.readouterr().out


@pytest.mark.parametrize("problem", ["paper1d", "custom"])
def test_empty_sweep_is_config_error(tmp_path, const2_spec, capsys, problem):
    problem = f"custom:{const2_spec}" if problem == "custom" else problem
    assert main(["convergence", "--ns", ",", "--problem", problem,
                 "--out", str(tmp_path / "conv")]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error") and "--ns" in err
    assert not os.path.exists(tmp_path / "conv")


def test_lifting_degree_with_cg_is_config_error(tmp_path, capsys):
    # CG has no lifting, so --l would be ignored; compare keeps it for its DG solve
    cfgfile = tmp_path / "cg.cfg"
    cfgfile.write_text("l = 1\n")
    for argv in (["solve", "--method", "cg", "--n", "10", "--l", "1"],
                 ["convergence", "--method", "cg", "--ns", "10", "--l", "1"],
                 ["solve", "--method", "cg", "--n", "10", "--config", str(cfgfile)]):
        assert main([*argv, "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error") and "--l 1" in err and "cg" in err
        assert not os.path.exists(tmp_path / "run")
    assert main(["compare", "--n", "10", "--l", "1",
                 "--out", str(tmp_path / "cmp")]) == cli.EXIT_OK


def test_cg_of_degree_zero_is_config_error(tmp_path, capsys):
    # one shared value cannot take both Dirichlet values
    assert main(["solve", "--method", "cg", "--k", "0", "--n", "10",
                 "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error") and "k >= 1" in err


def test_dg_of_negative_degree_is_config_error(tmp_path, capsys):
    for flag, named in (("--k", "DG needs degree k >= 0, got -1"),
                        ("--l", "lifting degree must be >= 0, got -1")):
        assert main(["solve", flag, "-1", "--n", "10",
                     "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not os.path.exists(tmp_path / "run")


def test_unconverged_custom_reference_fails_the_sweep(tmp_path, const2_spec, capsys,
                                                      monkeypatch):
    solve_dg = cli.solve_dg

    def reference_hits_the_cap(spec, k, cfg):
        rep = solve_dg(spec, k, cfg)
        if spec.mesh.n_elements == 40:
            rep.stop_reason = "max_iters"
        return rep

    monkeypatch.setattr(cli, "solve_dg", reference_hits_the_cap)
    out = tmp_path / "conv"
    assert main(["convergence", "--ns", "10,20", "--problem", f"custom:{const2_spec}",
                 "--out", str(out)]) == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "reference solve at n=40" in err and "max_iters" in err
    assert not os.path.exists(out)
