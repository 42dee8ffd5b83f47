import json
import math
import os
import warnings

import numpy as np
import pytest

from geomean import cli, experiments
from geomean.errors import DomainError
from geomean.manifolds import Hyperbolic, Sphere, make_space


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
    # coordinates: the monitor's first substep already leaves the ball, so
    # the error is the full step's
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
    obj = {"space": space.to_json(), "points": points}
    assert _mean_with(tmp_path, obj, "--policy", "conjecture") == \
        cli.EXIT_PRECONDITION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: precondition: ")
    assert not (tmp_path / "trace.csv").exists()


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


def test_stepsize_with_nan_rho_reports_every_policy(tmp_path, capsys):
    assert cli.main(["stepsize", "--rho", "nan", "--rho-prime", "1.2",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert all(r["preconditions"] == "step policy needs a finite rho, got nan"
               for r in rows)


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


def test_csv_roundtrip_precision(tmp_path):
    from geomean import emit
    vals = [math.pi, 1 / 3, 2.0 ** -52, 1e300]
    path = tmp_path / "x.csv"
    emit.write_csv(path, ["v"], [[v] for v in vals])
    back = [float(line) for line in open(path).read().splitlines()[1:]]
    assert back == vals
