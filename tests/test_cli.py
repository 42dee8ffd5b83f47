import contextlib
import inspect
import io
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geomean
from geomean import cli, experiments
from geomean.errors import DomainError
from geomean.manifolds import KINDS, Hyperbolic, Sphere, make_space
from geomean.stepsize import POLICIES

from conftest import space_json


def _write_dataset(path, rho=0.8, n=6, seed=3):
    sp = Sphere(2)
    rng = np.random.Generator(np.random.Philox(seed))
    o = np.array([0.0, 0.0, 1.0])
    pts = [sp.random_in_ball(o, rho, rng) for _ in range(n)]
    obj = {"space": {"kind": "sphere", "dim": 2, "kappa": 1.0},
           "points": [list(map(float, p)) for p in pts],
           "weights": [1.0 / n] * n,
           "ball": {"center": list(map(float, o)), "radius": rho}}
    with open(path, "w") as f:
        json.dump(obj, f)
    return obj


def test_mean_command_converges(tmp_path):
    dsfile = tmp_path / "ds.json"
    _write_dataset(dsfile)
    code = cli.main(["mean", str(dsfile), "--policy", "conjecture",
                     "--out", str(tmp_path)])
    assert code == 0
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["status"] == "converged"
    assert summary["step"] == 1.0
    assert summary["verdicts"]["stayed_in_ball"] is True
    assert (tmp_path / "trace.csv").exists()
    header = open(tmp_path / "trace.csv").readline().strip().split(",")
    assert header == ["k", "x0", "x1", "x2", "cost", "grad_norm",
                      "dist_to_o", "dist_to_final", "step_used"]


def test_mean_command_ball_fallback(tmp_path):
    dsfile = tmp_path / "ds.json"
    obj = _write_dataset(dsfile)
    del obj["ball"]
    json.dump(obj, open(dsfile, "w"))
    code = cli.main(["mean", str(dsfile), "--policy", "conjecture",
                     "--out", str(tmp_path)])
    assert code == 0


def test_mean_command_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["mean", str(bad), "--out", str(tmp_path)]) == 1
    missing = tmp_path / "nope.json"
    assert cli.main(["mean", str(missing), "--out", str(tmp_path)]) == 1


def test_mean_command_rejects_nan_point(tmp_path, capsys):
    dsfile = tmp_path / "ds.json"
    obj = _write_dataset(dsfile)
    obj["points"][2][1] = math.nan
    json.dump(obj, open(dsfile, "w"))
    code = cli.main(["mean", str(dsfile), "--policy", "conjecture",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_PARSE
    assert not (tmp_path / "trace.csv").exists()
    assert "non-finite" in capsys.readouterr().err


def test_nan_point_rejected_before_ball_fallback(tmp_path, monkeypatch):
    def no_fallback(space, points):
        pytest.fail("ball estimated before the points were validated")

    monkeypatch.setattr(cli, "minimal_ball_estimate", no_fallback)
    dsfile = tmp_path / "ds.json"
    obj = _write_dataset(dsfile)
    obj["points"][2][1] = math.nan
    del obj["ball"]
    json.dump(obj, open(dsfile, "w"))
    code = cli.main(["mean", str(dsfile), "--policy", "conjecture",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_PARSE


def _mean_with(tmp_path, obj, *options):
    """`geomean mean` on dataset obj with the given options; returns the
    exit code."""
    dsfile = tmp_path / "ds.json"
    dsfile.write_text(json.dumps(obj))
    return cli.main(["mean", str(dsfile), *options, "--out", str(tmp_path)])


def _mean_user_step(tmp_path, obj, t, max_iters=5):
    """`geomean mean` on dataset obj with constant step t; returns the
    exit code.  Fails on a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _mean_with(tmp_path, obj, "--policy", "user_constant",
                          "--t", str(t), "--max-iters", str(max_iters))


def _mean_far_h2(tmp_path, t):
    """`geomean mean` with step t on two H^2 points at distance 2 and 0.5
    on either side of o; returns the exit code.  Fails on a numpy warning."""
    hy = Hyperbolic(2)
    o = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    obj = {"space": {"kind": "hyperbolic", "dim": 2, "kappa": -1.0},
           "points": [list(hy.exp(o, 2.0 * e1)), list(hy.exp(o, -0.5 * e1))],
           "ball": {"center": list(o), "radius": 2.0}}
    return _mean_user_step(tmp_path, obj, t)


_S2_PAIR = {"space": {"kind": "sphere", "dim": 2, "kappa": 1.0},
            "points": [[0.0, 0.0, 1.0], [0.1, 0.0, 0.99498743710662]],
            "ball": {"center": [0.0, 0.0, 1.0], "radius": 0.5}}

# two H^2 points at distance 1 and about 1.04 from o
_H2_PAIR = {"space": {"kind": "hyperbolic", "dim": 2, "kappa": -1.0},
            "points": [[1.5430806348152437, 1.1752011936438014, 0.0],
                       [1.0453385141288605, -0.3045202934471426, 0.0]],
            "ball": {"center": [1.0, 0.0, 0.0], "radius": 1.1}}


def test_sphere_step_of_non_finite_length_is_an_error(tmp_path, capsys):
    # the norm of a step of size 1e300 overflows
    assert _mean_user_step(tmp_path, _S2_PAIR, 1e300) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sphere: exp step of length inf overflows"]


@pytest.mark.parametrize("t, max_iters", [
    (1e308, 5),   # the step's Minkowski square overflows
    (2.5, 60),    # t > 2/H: the iterates diverge until the tangent cancels
])
def test_hyperbolic_diverging_steps_are_errors(tmp_path, capsys, t, max_iters):
    assert _mean_user_step(tmp_path, _H2_PAIR, t, max_iters) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hyperbolic: ")
    assert "overflows" in err[0] and "nan" not in err[0]


def test_hyperbolic_overflowing_step_is_an_error(tmp_path, capsys):
    # t = 1000 makes the first step far too long for the hyperboloid
    # coordinates: the error is that step's own exp error
    assert _mean_far_h2(tmp_path, 1000) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: hyperbolic: exp step of length 750.0 overflows"]


def test_hyperbolic_far_iterate_is_an_error(tmp_path, capsys):
    # t = 400 lands the first step at x_0 ~ 1e130, below exp's cap; the
    # distances from there overflow the hyperboloid coordinates
    assert _mean_far_h2(tmp_path, 400) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hyperbolic: ")
    assert "overflows" in err[0] and "nan" not in err[0]


_E2 = {"kind": "euclidean", "dim": 2}


@pytest.mark.parametrize("obj, options, error", [
    # t > 2/H: the iterates diverge until a step passes the norm cap
    ({"space": _E2, "points": [[0.0, 0.0], [1.0, 0.0]],
      "ball": {"center": [0.0, 0.0], "radius": 1.0}},
     ["--policy", "user_constant", "--t", "100"],
     "error: euclidean: exp step of length "),
    ({"space": _E2, "points": [[1e160, 0.0]],
      "ball": {"center": [0.0, 0.0], "radius": 1e300}}, [],
     "error: cannot load dataset: euclidean: point "),
    ({"space": _E2, "points": [[1e160, 0.0], [-1e160, 0.0]]}, [],
     "error: cannot load dataset: euclidean: point "),
    # d^3 passes the float range once the iterates have diverged
    ({"space": _E2, "points": [[0.0, 0.0], [1.0, 0.0]],
      "ball": {"center": [0.0, 0.0], "radius": 1.0}},
     ["--policy", "user_constant", "--t", "100", "--p", "3"],
     "error: euclidean: f_p overflows at iteration 6"),
    # d^3 is past the float range at the start
    ({"space": _E2, "points": [[1e103, 0.0], [-1e103, 0.0]],
      "ball": {"center": [0.0, 0.0], "radius": 1e103}}, ["--p", "3"],
     "error: euclidean: f_p overflows at iteration 0"),
    # t |grad f| passes the float range
    ({"space": _E2, "points": [[0.0, 0.0], [1e100, 0.0]],
      "ball": {"center": [0.0, 0.0], "radius": 1e100}},
     ["--policy", "user_constant", "--t", "1e300"],
     "error: euclidean: exp step of length inf overflows"),
    # on S^2 too: d^998 is finite at p = 1000, the gradient's squared
    # norm is not
    ({"space": {"kind": "sphere", "dim": 2, "kappa": 1.0},
      "points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.8, 0.6, 0.0]],
      "ball": {"center": [0.0, 1.0, 0.0], "radius": 1.6}},
     ["--policy", "user_constant", "--t", "0.01", "--p", "1000"],
     "error: sphere: gradient of f_p overflows at iteration 0"),
], ids=["diverging_steps", "far_point_in_ball", "far_points_no_ball",
        "cost", "cost_at_start", "step_length", "sphere_gradient"])
def test_euclidean_overflow_is_an_error(obj, options, error, tmp_path, capsys):
    # squared distances past the norm cap 1e150, and a cost, gradient norm
    # or step length past the float range, are one error line: no numpy
    # warning, and no summary with an Infinity in it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _mean_with(tmp_path, obj, *options) == cli.EXIT_PARSE
    _one_error_line(capsys, error)
    assert not (tmp_path / "summary.json").exists()


def test_other_errors_map_to_parse_exit(tmp_path, capsys):
    # the default --kappa 1 is not a valid hyperbolic curvature
    code = cli.main(["check", "comparison", "--space", "hyperbolic",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_mean_command_precondition_violation(tmp_path):
    dsfile = tmp_path / "ds.json"
    obj = _write_dataset(dsfile)
    obj["ball"]["radius"] = 2.5  # exceeds r_cx = pi/2
    json.dump(obj, open(dsfile, "w"))
    code = cli.main(["mean", str(dsfile), "--policy", "conjecture",
                     "--out", str(tmp_path)])
    assert code == 4


@pytest.mark.parametrize("kind, points", [
    ("sphere", [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ("real_projective", [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    ("so3", [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
])
def test_dataset_too_wide_for_the_ball_estimate_exits_precondition(
        kind, points, tmp_path, capsys):
    # no ball given, and the points spread at least 2 r_cx
    space = make_space(kind)
    obj = {"space": space_json(space), "points": points}
    assert _mean_with(tmp_path, obj, "--policy", "conjecture") == \
        cli.EXIT_PRECONDITION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: precondition: ")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("space, points", [
    (Sphere(2), [[0.0, 0.0, 1.0]]),
    (Hyperbolic(2), [[1.0, 0.0, 0.0]] * 3),
], ids=["sphere_one_point", "hyperbolic_coincident"])
def test_zero_radius_dataset_converges_at_once(space, points, tmp_path, capsys):
    # the ball estimate is 0; the default policy resolves H = 1 there
    obj = {"space": space_json(space), "points": points}
    assert _mean_with(tmp_path, obj) == cli.EXIT_OK
    summary = json.load(open(tmp_path / "summary.json"))
    assert (summary["status"], summary["iterations"]) == ("converged", 0)
    assert summary["final"] == points[0]
    # at p = 3, H_{B,p} = 0 has no step 1/H
    assert _mean_with(tmp_path, obj, "--p", "3") == cli.EXIT_PRECONDITION
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: step policy: uniform_hessian_bound: H=0.0 out of range "
        "at rho=0.0, p=3.0")


def test_mean_command_cut_locus(tmp_path):
    # circle two-point dataset; from the ball center theta=0 the first step
    # with t=15/8 lands exactly on the antipode of x1
    th1, th2 = 2 * math.pi / 5, -2 * math.pi / 5
    obj = {"space": {"kind": "circle", "dim": 1, "kappa": 1.0},
           "points": [[math.cos(th1), math.sin(th1)],
                      [math.cos(th2), math.sin(th2)]],
           "weights": [0.1, 0.9],
           "ball": {"center": [1.0, 0.0], "radius": th1}}
    dsfile = tmp_path / "circle.json"
    json.dump(obj, open(dsfile, "w"))
    code = cli.main(["mean", str(dsfile), "--policy", "user_constant",
                     "--t", str(15 / 8), "--out", str(tmp_path)])
    assert code == 2


def test_mean_command_non_convergence(tmp_path):
    dsfile = tmp_path / "ds.json"
    _write_dataset(dsfile)
    code = cli.main(["mean", str(dsfile), "--policy", "user_constant",
                     "--t", "0.01", "--max-iters", "3", "--out", str(tmp_path)])
    assert code == 3


def test_stepsize_table_cli(tmp_path, capsys):
    assert cli.main(["stepsize", "--table", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "stepsize_table.csv").exists()
    rows = json.load(open(tmp_path / "stepsize_table.json"))
    assert len(rows) == 7


def test_stepsize_policies_cli(tmp_path):
    assert cli.main(["stepsize", "--space", "sphere", "--rho", "0.4",
                     "--rho-prime", "1.2", "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "stepsize_policies.csv").read().splitlines()
    assert lines[0] == "policy,resolved_t,stay_ball,preconditions"
    assert len(lines) == 5


def test_circle_example_cli(tmp_path):
    assert cli.main(["circle-example", "--out", str(tmp_path)]) == 0
    rep = json.load(open(tmp_path / "circle_report.json"))
    finals = {s["name"]: s for s in rep["scenarios"]}
    assert finals["w09_t1"]["final_theta"] == pytest.approx(-8 * math.pi / 25,
                                                            abs=1e-10)
    assert finals["w09_t25_18"]["status"] == "cut_locus"
    assert (tmp_path / "circle_f2.svg").exists()


def test_sphere_configs_cli_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert cli.main(["sphere-configs", "--seed", "11",
                         "--out", str(d)]) == 0
    name = "sphere_cross_rho0.35pi.csv"
    assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    svg = (d1 / "sphere_configs.svg").read_text()
    assert svg.startswith("<svg")


def test_check_cli_suites(tmp_path):
    assert cli.main(["check", "comparison", "--space", "sphere",
                     "--trials", "300", "--out", str(tmp_path)]) == 0
    rep = json.load(open(tmp_path / "check_comparison.json"))
    assert rep["violations"] == 0
    assert cli.main(["check", "tethering", "--space", "so3",
                     "--trials", "200", "--out", str(tmp_path)]) == 0
    rep = json.load(open(tmp_path / "check_tethering.json"))
    assert rep["violations"] == 0
    assert cli.main(["check", "hull", "--space", "sphere",
                     "--trials", "20", "--out", str(tmp_path)]) == 0
    rep = json.load(open(tmp_path / "check_hull.json"))
    assert rep["violations"] == 0


@pytest.mark.parametrize("argv", [
    ["mean", "ds.json", "--p", "abc"],       # a bad float
    ["check", "hull", "--bogus"],            # an unknown option
    [],                                      # no subcommand
])
def test_argument_errors_exit_parse(argv, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: geomean") and "error: " in err


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: geomean")


def test_spread_compromise_rejects_p_below_2(tmp_path, capsys):
    dsfile = tmp_path / "ds.json"
    _write_dataset(dsfile, rho=0.3)
    code = cli.main(["mean", str(dsfile), "--p", "1.5",
                     "--policy", "spread_compromise", "--out", str(tmp_path)])
    assert code == cli.EXIT_PRECONDITION
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: step policy: exponent p must satisfy "
                   "2 <= p < inf, got 1.5"]
    assert not (tmp_path / "trace.csv").exists()


def test_user_constant_rejects_p_below_2(tmp_path, capsys):
    # as every other policy does, before the descent starts
    assert _mean_with(tmp_path, _S2_PAIR, "--p", "1.5", "--t", "0.5") == \
        cli.EXIT_PRECONDITION
    _one_error_line(capsys, "error: step policy: exponent p must satisfy "
                            "2 <= p < inf, got 1.5")
    assert not (tmp_path / "trace.csv").exists()


def test_parser_is_built_once_and_parses_afresh(tmp_path, monkeypatch):
    dsfile = tmp_path / "ds.json"
    _write_dataset(dsfile)
    assert cli.build_parser() is cli.build_parser()
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["mean", str(dsfile), "--p", "3.0", "--out", str(a)]) == 0
    assert cli.main(["mean", str(dsfile), "--out", str(b)]) == 0
    assert json.load(open(a / "summary.json"))["p"] == 3.0
    assert json.load(open(b / "summary.json"))["p"] == 2.0
    with pytest.raises(SystemExit) as e:
        cli.main(["mean", str(dsfile), "--p", "abc"])
    assert e.value.code == cli.EXIT_PARSE
    # the subcommand is looked up when it runs, not when the parser is built
    monkeypatch.setattr(cli, "cmd_mean", lambda args: 7)
    assert cli.main(["mean", str(dsfile)]) == 7


def _one_error_line(capsys, start):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start), err


@pytest.mark.parametrize("argv", [
    ["check", "comparison", "--kappa", "nan", "--trials", "3"],
    ["check", "tethering", "--kappa", "inf", "--trials", "3"],
])
def test_non_finite_kappa_exits_parse(argv, tmp_path, capsys):
    # checked first: a NaN kappa that reached the comparison sampler would
    # never return
    with pytest.raises(DomainError):
        make_space("sphere", 2, math.nan)
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: Sphere: need finite kappa > 0")


@pytest.mark.parametrize("argv", [
    ["check", "comparison", "--space", "hyperbolic", "--trials", "3"],
    # stepsize never takes a step, but builds the space all the same
    ["stepsize", "--space", "hyperbolic", "--rho", "0.4"],
])
def test_hyperbolic_kappa_at_the_coordinate_cap_exits_parse(argv, tmp_path,
                                                            capsys):
    # R = 1/sqrt(-kappa) = 1e150: refused by name, not as an exp overflow
    # from the first random point
    argv = argv + ["--out", str(tmp_path)]
    assert cli.main(argv + ["--kappa=-1e-300"]) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: Hyperbolic: need 1/sqrt(-kappa) below "
                            "1e+150, got kappa = -1e-300")
    assert cli.main(argv + ["--kappa=-1e-299"]) == cli.EXIT_OK


@pytest.mark.parametrize("argv, kind", [
    (["check", "comparison", "--dim", "0", "--trials", "3"], "sphere"),
    (["check", "tethering", "--dim", "-1", "--trials", "3"], "sphere"),
    (["check", "hull", "--space", "euclidean", "--dim", "0"], "euclidean"),
])
def test_dimension_below_one_exits_parse(argv, kind, tmp_path, capsys):
    # checked first: a 0-dimensional tangent space would keep the samplers
    # drawing for ever
    for space in ("sphere", "euclidean"):
        with pytest.raises(DomainError):
            make_space(space, 0)
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_PARSE
    _one_error_line(capsys, f"error: {kind}: need dim >= 1")


@pytest.mark.parametrize("suite", ["comparison", "tethering", "hull"])
def test_zero_trials_exit_parse(suite, tmp_path, capsys):
    # a suite of no trials would report min_margin Infinity and exit 0
    assert cli.main(["check", suite, "--trials", "0",
                     "--out", str(tmp_path)]) == cli.EXIT_PARSE
    _one_error_line(capsys, f"error: {suite}_check: need n_trials >= 1, got 0")
    assert not (tmp_path / f"check_{suite}.json").exists()


def test_stepsize_has_no_seed(capsys):
    # stepsize draws nothing, so --seed is not one of its options
    with pytest.raises(SystemExit) as e:
        cli.main(["stepsize", "--seed", "5"])
    assert e.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [
        "geomean: error: unrecognized arguments: --seed 5"]


@pytest.mark.parametrize("rho_list", ["abc", "1,,2"])
def test_sphere_configs_bad_rho_list_exits_parse(rho_list, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["sphere-configs", "--rho-list", rho_list])
    assert e.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("usage: geomean sphere-configs")
    assert err.endswith(f"error: argument --rho-list: invalid float_list "
                        f"value: '{rho_list}'\n")


def test_sphere_configs_zero_step_exits_parse(tmp_path, capsys):
    # --t 0 is a step of 0, not the default step 1
    assert cli.main(["sphere-configs", "--t", "0",
                     "--out", str(tmp_path)]) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: step must be finite and positive, got 0.0")


def test_sphere_configs_takes_rho_list_and_step(tmp_path, capsys):
    assert cli.main(["sphere-configs", "--rho-list", "0.5,0.25", "--t", "0.5",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["t"] == 0.5
    assert [r["rho"] for r in rep["runs"]] == [0.5, 0.5, 0.25, 0.25]


def test_dataset_with_non_finite_kappa_exits_parse(tmp_path, capsys):
    obj = dict(_S2_PAIR, space={"kind": "sphere", "dim": 2, "kappa": math.nan})
    assert _mean_with(tmp_path, obj) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: cannot load dataset: Sphere: need finite")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("radius", [math.nan, math.inf, -0.5])
def test_dataset_with_bad_ball_radius_exits_parse(radius, tmp_path, capsys):
    obj = dict(_S2_PAIR, ball={"center": [0.0, 0.0, 1.0], "radius": radius})
    assert _mean_with(tmp_path, obj) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: cannot load dataset: ball radius must "
                            "be finite and >= 0")
    assert not (tmp_path / "trace.csv").exists()


_EU_PAIR = {"space": {"kind": "euclidean", "dim": 2},
            "points": [[0.0, 0.0], [0.0, 1.0]],
            "ball": {"center": [0.0, 0.0], "radius": 1.0}}


@pytest.mark.parametrize("obj", [
    [_S2_PAIR],
    dict(_S2_PAIR, space=5),
    dict(_S2_PAIR, space={"kind": ["sphere"]}),
    dict(_S2_PAIR, space={"kind": "sphere", "dim": math.inf}),  # 1e400 reads inf
    dict(_S2_PAIR, space={"kind": "sphere", "dim": 2.7}),
    dict(_S2_PAIR, space={"kind": "sphere", "kappa": 10**400}),
    dict(_S2_PAIR, ball=3),
    dict(_S2_PAIR, ball={"center": [0.0, 0.0, 1.0], "radius": None}),
    dict(_S2_PAIR, weights=1),
    dict(_S2_PAIR, weights={"w": [0.5, 0.5]}),
    dict(_S2_PAIR, weights=[math.nan, 1.0]),
    dict(_EU_PAIR, weights=[math.nan, 1.0]),
    dict(_S2_PAIR, points=[["0", "0", "1"], ["0", "1", "0"]]),
    dict(_S2_PAIR, weights=["0.5", "0.5"]),
    dict(_S2_PAIR, ball={"center": ["0", "0", "1"], "radius": 0.5}),
    dict(_S2_PAIR, points=[[True, False, False], [False, True, False]]),
    dict(_S2_PAIR, points=[[0.0, 0.0, True], [0.1, 0.0, 0.99498743710662]]),
    dict(_S2_PAIR, points=[[0.0, 0.0, 1.0], [0.0, 0.0, 10**400]]),
], ids=["list", "space-number", "kind-list", "dim-inf", "dim-fraction",
        "kappa-huge-integer", "ball-number", "radius-null", "weights-number", "weights-object",
        "weight-nan-sphere", "weight-nan-euclidean", "points-strings",
        "weights-strings", "center-strings", "points-booleans",
        "point-with-a-boolean", "point-huge-integer"])
def test_malformed_dataset_exits_parse(obj, tmp_path, capsys):
    assert _mean_with(tmp_path, obj) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: cannot load dataset: ")
    assert not (tmp_path / "trace.csv").exists()


# JSON values of a wrong type, and numbers no field accepts
_WRONG = st.sampled_from([None, 3, "x", [], {}, True, [[1.0]], math.nan,
                          math.inf, -1.0])


@st.composite
def _mean_inputs(draw):
    """A dataset JSON value of up to 4 points with at most one fault, and
    the options of a short `mean` run."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    space = make_space(kind, 2, -1.0 if kind == "hyperbolic" else 1.0)
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    o = space.random_point(rng)
    n = draw(st.integers(1, 4))
    pts = np.array([space.random_in_ball(o, draw(st.sampled_from([0.3, 1.0])),
                                         rng) for _ in range(n)])
    if kind == "euclidean":   # at 1e103, d^3 passes the float range
        scale = draw(st.sampled_from([1.0, 1e103]))
        o, pts = scale * o, scale * pts
    radius = float(np.max(space.dist_many(o, pts)))
    obj = {"space": space_json(space), "points": pts.tolist()}
    if draw(st.booleans()):   # else the ball is estimated
        obj["ball"] = {"center": o.tolist(),
                       "radius": radius * draw(st.sampled_from([1.0, 2.5]))}
    if draw(st.booleans()):
        obj["weights"] = [1.0 / n] * n
    fault = draw(st.sampled_from([None, None, "point", "space", "weights",
                                  "ball", "type"]))
    if fault == "point":   # a non-finite coordinate, or off the manifold
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(o) - 1))
        pts[i, j] = draw(st.sampled_from([math.nan, math.inf, 1.5 * pts[i, j]]))
        obj["points"] = pts.tolist()
    elif fault == "space":
        obj["space"] = draw(st.sampled_from([
            5, {"kind": ["sphere"]}, dict(obj["space"], dim=math.inf),
            dict(obj["space"], dim=2.7), dict(obj["space"], kappa=None)]))
    elif fault == "weights":   # also empty, negative or NaN weights
        obj["weights"] = draw(_WRONG | st.lists(
            st.floats(-0.5, 1.5) | st.just(math.nan), max_size=n + 1))
    elif fault == "ball":
        obj["ball"] = draw(_WRONG | st.sampled_from([
            {"center": o.tolist()}, {"center": None, "radius": radius},
            {"center": o.tolist(), "radius": 0.5 * radius}]) | st.builds(
                lambda r: {"center": o.tolist(), "radius": r}, _WRONG))
    elif fault == "type":
        obj = draw(st.sampled_from([[obj], obj["points"], "x",
                                    dict(obj, points=draw(_WRONG))]))
    options = ["--policy", draw(st.sampled_from(POLICIES)),
               "--p", draw(st.sampled_from(["2", "3", "1.5", "1000"])),
               "--max-iters", "3"]
    options += draw(st.sampled_from([[], ["--t", "0.5"], ["--t", "3"]]))
    options += draw(st.sampled_from([[], ["--rho-prime", "1.2"]]))
    return obj, options


@settings(max_examples=100, deadline=None)
@given(_mean_inputs())
def test_mean_fuzz_exits_with_one_error_line(tmp_path_factory, inputs):
    # every dataset gives a documented exit code, one `error:` line at
    # most, and neither a traceback (an exception out of main) nor a
    # numpy warning; a summary holds no Infinity (NaN stays legal in
    # final_grad_norm at a cut-locus stop)
    obj, options = inputs
    out = tmp_path_factory.mktemp("fuzz")
    dsfile = out / "ds.json"
    dsfile.write_text(json.dumps(obj))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(["mean", str(dsfile), *options, "--out", str(out)])
    assert code in range(5)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
    if (out / "summary.json").exists():
        assert "Infinity" not in (out / "summary.json").read_text()


# numbers no option accepts, and some it does; sphere-configs steps are
# drawn from these only, since a tiny step runs every descent to its cap
_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-300",
                            "1e300", "0.5", "1"])


def _option(name, values):
    return st.just([]) | values.map(lambda v: [f"{name}={v}"])


@st.composite
def _argv(draw):
    """A short command line of `check`, `stepsize` or `sphere-configs`."""
    numbers = _NUMBERS | st.floats(-4, 4).map(repr)
    command = draw(st.sampled_from(["check", "stepsize", "sphere-configs"]))
    argv = [command]
    if command == "check":
        argv.append(draw(st.sampled_from(["comparison", "tethering", "hull"])))
    if command != "sphere-configs":
        kind = draw(st.sampled_from(sorted(KINDS)))
        kappa = draw(numbers)
        if kind == "hyperbolic" and draw(st.booleans()):   # H needs kappa < 0
            kappa = kappa[1:] if kappa.startswith("-") else "-" + kappa
        argv += [f"--space={kind}", f"--kappa={kappa}"]
        argv += draw(_option("--dim", st.integers(-1, 4).map(str)))
    if command != "stepsize":
        argv += draw(_option("--seed", st.integers(-3, 2**64).map(str)))
    if command == "check":
        argv += ["--trials", draw(st.integers(-1, 5).map(str))]
    elif command == "stepsize":
        argv += draw(_option("--p", numbers)) + draw(_option("--rho", numbers))
        argv += draw(_option("--rho-prime", numbers))
        argv += draw(st.sampled_from([[], ["--table"]]))
    else:
        argv.append("--rho-list=" + ",".join(
            draw(st.lists(numbers, min_size=1, max_size=3))))
        argv += draw(_option("--t", _NUMBERS))
    return argv


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_argv_fuzz_exits_with_one_error_line(tmp_path_factory, argv):
    # every command line gives a documented exit code, one `error:` line at
    # most, and neither a traceback (an exception out of main) nor a numpy
    # warning; argparse's rejections leave main as SystemExit(EXIT_PARSE)
    out = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as e:
            code = e.code
    assert code in range(5)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1


@pytest.mark.parametrize("argv", [
    ["check", "comparison", "--seed", "-1", "--trials", "3"],
    ["sphere-configs", "--seed", "-1"],
])
def test_negative_seed_exits_parse(argv, tmp_path, capsys):
    # Philox takes no negative key
    with pytest.raises(SystemExit) as e:
        cli.main(argv + ["--out", str(tmp_path)])
    assert e.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [
        f"geomean {argv[0]}: error: argument --seed: invalid nonnegative_int "
        f"value: '-1'"]
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("space", [
    ["--space", "euclidean", "--dim", "1"],
    ["--space", "sphere", "--dim", "1"],
    ["--space", "circle"],
    ["--space", "real_projective", "--dim", "1"],
    ["--space", "hyperbolic", "--dim", "1", "--kappa=-1"],
], ids=["euclidean", "sphere", "circle", "real_projective", "hyperbolic"])
def test_comparison_on_one_dimensional_space_exits_parse(space, tmp_path,
                                                         capsys):
    # a triangle in one dimension has no angle to split: the sampler
    # would draw degenerate triangles for ever, or pass on rounding noise
    assert cli.main(["check", "comparison", *space, "--trials", "3",
                     "--out", str(tmp_path)]) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: comparison_check: need dim >= 2, got 1")
    assert not (tmp_path / "check_comparison.json").exists()


@pytest.mark.parametrize("space", ["sphere", "real_projective"])
def test_comparison_on_a_very_curved_space_exits_parse(space, tmp_path,
                                                        capsys):
    # r_cx ~ 1e-150 puts every side below the triangle's 1e-14 floor, so
    # no sampled triangle has an angle to split
    assert cli.main(["check", "comparison", "--space", space,
                     "--kappa", "1e300", "--out", str(tmp_path)]) == \
        cli.EXIT_PARSE
    _one_error_line(capsys, "error: comparison_check: 1000 sampled "
                    "triangles in a row were degenerate")
    assert not (tmp_path / "check_comparison.json").exists()


@pytest.mark.parametrize("rho_list", ["0.5,inf", "nan", "0", "-1"])
def test_sphere_configs_rejects_rho_before_any_run(rho_list, tmp_path, capsys):
    # checked before any run: an infinite rho would make NaN points, and
    # a bad rho late in the list must leave no traces of the earlier runs
    assert cli.main(["sphere-configs", "--rho-list", rho_list,
                     "--out", str(tmp_path)]) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: sphere_configs: need finite rho > 0, got "
                            + rho_list.split(",")[-1])
    assert not os.listdir(tmp_path)


def test_deeply_nested_dataset_exits_parse(tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit
    dsfile = tmp_path / "ds.json"
    dsfile.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["mean", str(dsfile), "--out", str(tmp_path)]) == \
        cli.EXIT_PARSE
    _one_error_line(capsys, "error: cannot load dataset: maximum recursion")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_grad_tol_exits_parse(tol, tmp_path, capsys):
    assert _mean_with(tmp_path, _S2_PAIR, "--grad-tol", tol) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: grad_tol must be finite and positive")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_non_finite_user_step_is_a_precondition_exit(t, tmp_path, capsys):
    assert _mean_with(tmp_path, _S2_PAIR, "--t", t) == cli.EXIT_PRECONDITION
    _one_error_line(capsys, "error: step policy: user_constant policy needs "
                            "finite t > 0")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("suite, seed, violations", [
    ("tethering", "0", 0), ("tethering", "21", 0),
    ("comparison", "0", 3), ("hull", "0", 0),
])
def test_suites_at_large_hyperbolic_curvature_report(
        suite, seed, violations, tmp_path, capsys):
    # the suites sample H in curvature radii R = 1/sqrt(-kappa): random
    # points and balls of up to 1.5 R, so at kappa = -1e6 (R = 1e-3) the
    # draws stay as far out as at kappa = -1, and the margins are in
    # units of R; a comparison on H is exploratory, its violations only
    # reported
    assert cli.main(["check", suite, "--space", "hyperbolic", "--kappa=-1e6",
                     "--trials", "3", "--seed", seed,
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    report = json.loads((tmp_path / f"check_{suite}.json").read_text())
    margin = report.pop("min_margin")
    assert report == {"suite": suite, "trials": 3, "violations": violations,
                      "seed": int(seed)}
    if suite == "hull":
        assert math.isnan(margin)
    else:
        assert 0.0 < abs(margin) < 1.5e-3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("suite, seed", [
    ("tethering", "1"), ("comparison", "1"), ("hull", "0"),
])
def test_suites_where_hyperbolic_sampling_overflows_exit_parse(
        suite, seed, tmp_path, capsys):
    # at kappa = -1e-299 (R about 3.2e149) a drawn point more than about
    # 1.82 R from the origin has a time coordinate past exp's cap of 1e150
    assert cli.main(["check", suite, "--space", "hyperbolic",
                     "--kappa=-1e-299", "--trials", "3", "--seed", seed,
                     "--out", str(tmp_path)]) == cli.EXIT_PARSE
    _one_error_line(capsys, "error: hyperbolic: exp step of length")
    assert not (tmp_path / f"check_{suite}.json").exists()


def test_stepsize_reports_an_overflowing_exit_profile(tmp_path, capsys):
    assert cli.main(["stepsize", "--space", "hyperbolic", "--kappa=-1e6",
                     "--rho", "1", "--rho-prime", "5",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    rows = {r["policy"]: r for r in json.loads(out)}
    assert rows["exit_compromise"]["preconditions"].startswith(
        "sn: sinh(sqrt(-kappa)*l) overflows")
    assert rows["conjecture"]["preconditions"] == "ok" and err == ""


@pytest.mark.parametrize("obj", [
    _H2_PAIR,
    {"space": {"kind": "euclidean", "dim": 2},
     "points": [[0.0, 0.0], [1.0, 0.0]],
     "ball": {"center": [0.5, 0.0], "radius": 0.5}},
], ids=["hyperbolic", "euclidean"])
def test_exit_compromise_with_infinite_rho_prime_is_a_precondition_exit(
        obj, tmp_path, capsys):
    assert _mean_with(tmp_path, obj, "--policy", "exit_compromise",
                      "--rho-prime", "inf") == cli.EXIT_PRECONDITION
    _one_error_line(capsys, "error: step policy: exit_compromise policy "
                            "needs a finite rho_prime, got inf")
    assert not (tmp_path / "trace.csv").exists()


def test_stepsize_reports_an_infinite_rho_prime(tmp_path, capsys):
    assert cli.main(["stepsize", "--space", "hyperbolic", "--kappa=-1",
                     "--rho", "0.5", "--rho-prime", "inf",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    rows = {r["policy"]: r for r in json.loads(out)}
    row = rows["exit_compromise"]
    assert math.isnan(row["resolved_t"])
    assert row["preconditions"] == \
        "exit_compromise policy needs a finite rho_prime, got inf"
    assert rows["conjecture"]["preconditions"] == "ok" and err == ""


def test_stepsize_with_nan_rho_reports_every_policy(tmp_path, capsys):
    assert cli.main(["stepsize", "--rho", "nan", "--rho-prime", "1.2",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert all(r["preconditions"] == "step policy needs a finite rho, got nan"
               for r in rows)


def test_stepsize_with_negative_rho_reports_every_policy(tmp_path, capsys):
    # constant_curvature printed resolved_t 1.0 and "ok" for this rho
    assert cli.main(["stepsize", "--rho", "-0.5", "--rho-prime", "1.2",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["policy"] for r in rows] == [
        "conjecture", "constant_curvature", "spread_compromise",
        "exit_compromise"]
    for r in rows:
        assert r["preconditions"] == "step policy needs rho >= 0, got -0.5"
        assert math.isnan(r["resolved_t"]) and math.isnan(r["stay_ball"])


def test_circle_f2_piecewise():
    # wrap-around branches place the minima at the converged angles
    f = experiments.circle_f2
    thetas = np.linspace(-math.pi + 1e-6, math.pi, 200001)
    vals = [f(q, 0.25, 0.75) for q in thetas]
    i = int(np.argmin(vals))
    assert thetas[i] == pytest.approx(-math.pi / 5, abs=1e-4)
    # local minimizer on the wrap-around branch
    mask = thetas < 2 * math.pi / 5 - math.pi
    j = int(np.argmin(np.where(mask, vals, np.inf)))
    assert thetas[j] == pytest.approx(-7 * math.pi / 10, abs=1e-4)
    # continuity at the branch joints
    for joint in (2 * math.pi / 5 - math.pi, -2 * math.pi / 5 + math.pi):
        assert f(joint - 1e-9, 0.1, 0.9) == pytest.approx(
            f(joint + 1e-9, 0.1, 0.9), abs=1e-6)


def test_stepsize_table_partial_match():
    rows = {r["label"]: r for r in experiments.stepsize_table()}
    # these reference figures are reproduced by the stated construction
    assert rows["exit_sphere_rho_090"]["abs_error"] <= 1e-3
    assert rows["exit_sphere_rho_099"]["abs_error"] <= 5e-4
    assert rows["spread_hyperbolic_rho_pi6"]["abs_error"] <= 1e-4


def test_sphere_configs_qualitative(tmp_path):
    rep = experiments.run_sphere_configs(out=str(tmp_path), seed=0)
    runs = {(r["config"], round(r["rho"], 6)): r for r in rep["runs"]}
    r35, r47 = 0.35 * math.pi, 0.47 * math.pi
    assert runs[("pair", round(r47, 6))]["iters_to_1e6"] > \
        runs[("cross", round(r47, 6))]["iters_to_1e6"]
    for cfg_name in ("cross", "pair"):
        assert runs[(cfg_name, round(r47, 6))]["iters_to_1e6"] > \
            runs[(cfg_name, round(r35, 6))]["iters_to_1e6"]
    # predicted eigenvalues match finite differences
    for r in rep["runs"]:
        fd = r["eigenvalues_fd"]
        if r["config"] == "cross":
            assert fd["fd_along_x1"] == pytest.approx(
                r["eigenvalues_predicted"]["both"], abs=1e-5)
        else:
            assert fd["fd_along_x1"] == pytest.approx(1.0, abs=1e-5)
            assert fd["fd_perpendicular"] == pytest.approx(
                r["eigenvalues_predicted"]["perpendicular"], abs=1e-5)


def test_log_svg_of_nothing_positive(tmp_path):
    # a run that never moves has distances to its final point all 0
    from geomean import emit
    path = tmp_path / "x.svg"
    emit.write_svg(path, [emit.PlotSeries("still", [0, 1, 2], [0.0] * 3)],
                   y_log=True)
    assert ">1e0</text>" in path.read_text()


def test_csv_roundtrip_precision(tmp_path):
    from geomean import emit
    vals = [math.pi, 1 / 3, 2.0 ** -52, 1e300]
    path = tmp_path / "x.csv"
    emit.write_csv(path, ["v"], [[v] for v in vals])
    back = [float(line) for line in open(path).read().splitlines()[1:]]
    assert back == vals


def _old_csv(header, rows):
    """The CSV the per-value formatter wrote: format(v, ".17g") for a
    float, str(v) otherwise."""
    def fmt(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)
    return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])


_CSV_VALUES = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1, 2.0 ** -52,
               1.2e17, 1.0, -2.5]


def test_write_csv_matches_per_value_format(tmp_path):
    from geomean import emit
    header = ["name", "v", "i", "v64"]
    rows = [[f"s{i}", v, i - 3, np.float64(v)]
            for i, v in enumerate(_CSV_VALUES)]
    emit.write_csv(tmp_path / "x.csv", header, rows)
    assert (tmp_path / "x.csv").read_text() == _old_csv(header, rows)
    assert "nan,-3,nan\n" in (tmp_path / "x.csv").read_text()


def test_write_csv_matches_per_value_format_on_table_and_policies(tmp_path,
                                                                  capsys):
    assert cli.main(["stepsize", "--table", "--out", str(tmp_path)]) == 0
    header = ["label", "delta", "Delta", "rho", "rho_prime",
              "value", "reference", "abs_error"]
    rows = [[r[h] for h in header] for r in experiments.stepsize_table()]
    assert (tmp_path / "stepsize_table.csv").read_text() == \
        _old_csv(header, rows)
    capsys.readouterr()
    # p = 1.5 fails the spread compromise: a NaN row among resolved ones
    assert cli.main(["stepsize", "--rho", "0.4", "--rho-prime", "1.2",
                     "--p", "1.5", "--out", str(tmp_path)]) == 0
    header = ["policy", "resolved_t", "stay_ball", "preconditions"]
    rows = [[r[h] for h in header]
            for r in json.loads(capsys.readouterr().out)]
    assert any(math.isnan(r[1]) for r in rows)
    assert (tmp_path / "stepsize_policies.csv").read_text() == \
        _old_csv(header, rows)


def test_write_trace_csv_matches_per_value_format(tmp_path):
    from geomean import emit, solver
    ds = experiments._circle_dataset((0.1, 0.9))
    tr = solver.descend(ds, solver.SolverConfig(p=2.0, step=25.0 / 18.0),
                        x0=ds.points[0])
    assert tr.status == "cut_locus"
    emit.write_trace_csv(tmp_path / "t.csv", tr)
    header = ["k", "x0", "x1", "cost", "grad_norm", "dist_to_o",
              "dist_to_final", "step_used"]
    rows = [[rec.k, *map(float, rec.point), rec.cost, rec.grad_norm,
             rec.dist_to_o, dfin, rec.step_used]
            for rec, dfin in zip(tr.records, tr.dist_to_final)]
    text = (tmp_path / "t.csv").read_text()
    assert text == _old_csv(header, rows)
    last = text.splitlines()[-1].split(",")
    assert last[4] == last[-1] == "nan"   # grad_norm and step_used


@pytest.mark.parametrize("argv, work", [
    (["mean", "DATASET"], "geomean.cli.descend"),
    (["stepsize", "--table"], "geomean.experiments.run_stepsize_table"),
    (["circle-example"], "geomean.experiments.run_circle_example"),
    (["sphere-configs"], "geomean.experiments.run_sphere_configs"),
    (["check", "hull"], "geomean.geocheck.hull_check"),
], ids=["mean", "stepsize", "circle-example", "sphere-configs", "check"])
def test_unwritable_out_exits_parse_before_the_work(argv, work, tmp_path,
                                                    capsys, monkeypatch):
    # a regular file where the output directory should be: one error line
    # before the descent, experiment or suite runs, and the file untouched
    dsfile = tmp_path / "ds.json"
    _write_dataset(dsfile)
    argv = [str(dsfile) if a == "DATASET" else a for a in argv]
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"keep me\n")
    before = blocker.stat()

    def must_not_run(*args, **kwargs):
        raise AssertionError("ran with an unwritable --out")

    monkeypatch.setattr(work, must_not_run)
    for out in (blocker, blocker / "sub"):
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_PARSE
        _one_error_line(capsys, "error: cannot write output: ")
    assert blocker.read_bytes() == b"keep me\n"
    assert blocker.stat().st_mtime_ns == before.st_mtime_ns


def _fresh_mean_outputs(tmp_path):
    """A `mean` run into a new directory: its dataset argv and the bytes
    of its trace.csv and summary.json."""
    dsfile = tmp_path / "ds.json"
    _write_dataset(dsfile)
    fresh = tmp_path / "fresh"
    argv = ["mean", str(dsfile)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(fresh)]) == 0
    return argv, {name: (fresh / name).read_bytes()
                  for name in ("trace.csv", "summary.json")}


@pytest.mark.parametrize("extra", [100, 0, -10],
                         ids=["longer", "equal", "shorter"])
@pytest.mark.parametrize("name", ["trace.csv", "summary.json"])
def test_rewrite_leaves_no_stale_tail(name, extra, tmp_path, capsys):
    argv, fresh = _fresh_mean_outputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(b"x" * (len(fresh[name]) + extra))
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert (out / name).read_bytes() == fresh[name]


def test_rewrite_keeps_hard_links_and_mode(tmp_path, capsys):
    argv, fresh = _fresh_mean_outputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_bytes(b"{}" * 1000)
    os.chmod(out / "summary.json", 0o640)
    os.link(out / "summary.json", tmp_path / "link.json")
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert (tmp_path / "link.json").read_bytes() == fresh["summary.json"]
    assert os.stat(out / "summary.json").st_mode & 0o777 == 0o640


def test_trace_to_dev_null_is_not_truncated(tmp_path, capsys):
    # ftruncate on /dev/null fails with EINVAL
    argv, fresh = _fresh_mean_outputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    os.symlink(os.devnull, out / "trace.csv")
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert (out / "summary.json").read_bytes() == fresh["summary.json"]


@pytest.mark.parametrize("argv, name", [
    (["mean", "DATASET"], "summary.json"),
    (["check", "tethering", "--space", "so3", "--trials", "20"],
     "check_tethering.json"),
], ids=["mean", "check"])
def test_stdout_is_the_written_report(argv, name, tmp_path, capsys):
    dsfile = tmp_path / "ds.json"
    _write_dataset(dsfile)
    argv = [str(dsfile) if a == "DATASET" else a for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (tmp_path / name).read_text() + "\n"


def test_every_exported_function_is_reached_by_a_cli_path(tmp_path):
    # one small run of each subcommand (each suite of check) under a
    # profiler: a function exported from geomean that none of them calls
    # is library surface without a program use
    exported = {obj.__code__: name for name, obj in vars(geomean).items()
                if inspect.isfunction(obj)}
    dsfile = tmp_path / "ds.json"
    dsfile.write_text(json.dumps(   # no ball: the mean estimates one
        {"space": {"kind": "sphere", "dim": 2, "kappa": 1.0},
         "points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
    runs = [["mean", str(dsfile)], ["stepsize", "--rho-prime", "1.0"],
            ["circle-example"], ["sphere-configs", "--rho-list", "0.5"],
            ["check", "comparison", "--trials", "5"],   # secant_sphere
            ["check", "comparison", "--space", "hyperbolic", "--kappa=-1",
             "--trials", "5"],   # the intersection oracle
            ["check", "tethering", "--trials", "5"],
            ["check", "hull", "--trials", "2"]]
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in exported:
            called.add(exported[frame.f_code])

    for argv in runs:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        finally:
            sys.setprofile(None)
    assert sorted(set(exported.values()) - called) == []
