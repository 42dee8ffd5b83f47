import importlib.util
import json
import math
import os
import shutil
import sys

import pytest

from geomean import emit

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "output_digest", os.path.join(_ROOT, "tools", "output_digest.py"))
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

_SCALE = "0.05"


def _digest(capsys, monkeypatch, *argv):
    """The lines output_digest prints for argv at a twentieth of the
    workloads' size.  It puts the checkout's src/ and bench/ on sys.path,
    which is restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert output_digest.main([*argv, "--scale", _SCALE]) == 0
    return capsys.readouterr().out.splitlines()


def test_all_workloads_print_one_line_per_op(capsys, monkeypatch):
    lines = _digest(capsys, monkeypatch, "--workload", "all", "--seed", "3")
    workloads = sys.modules["workloads"]   # bench/, as the tool imported it
    headers = [i for i, line in enumerate(lines) if line.startswith("# ")]
    assert [lines[i] for i in headers] == \
        [f"# {w} seed 3" for w in output_digest.WORKLOADS]
    for i, (start, w) in enumerate(zip(headers, output_digest.WORKLOADS)):
        end = headers[i + 1] if i + 1 < len(headers) else len(lines)
        ops = (workloads.warmup_ops(w)
               + workloads.make_ops(w, 3, float(_SCALE)))
        assert [line.split()[0] for line in lines[start + 1:end]] == \
            [op["id"] for op in ops]
        assert all(" rc=" in line and " stdout=" in line
                   for line in lines[start + 1:end])
    # a second run prints the same lines
    assert _digest(capsys, monkeypatch, "--workload", "all",
                   "--seed", "3") == lines


def test_suites_print_one_line_per_suite_op(capsys, monkeypatch):
    # not a benchmark workload: each suite on each of the six spaces, but
    # comparison not on the circle (dim 1), at the run's seed
    lines = _digest(capsys, monkeypatch, "--workload", "suites",
                    "--seed", "3", "--seed", "17")
    ops = output_digest.suite_ops(3, float(_SCALE))
    ids = [op["id"] for op in ops]
    assert len(set(ids)) == 17 and "comparison-circle" not in ids
    for op in ops:
        suite, space = op["id"].split("-")
        assert op["argv"][:4] == ["check", suite, "--space", space]
        assert ("--kappa=-1" in op["argv"]) == (space == "hyperbolic")
        assert op["argv"][-2:] == ["--seed", "3"]
    assert lines[0] == "# suites seed 3" and lines[18] == "# suites seed 17"
    for block in (lines[1:18], lines[19:]):
        assert [line.split()[:2] for line in block] == [
            [op["id"], "rc=0"] for op in ops]
    # `all` stays the three benchmark workloads
    assert "suites" not in output_digest.WORKLOADS


def test_one_ulp_in_one_output_changes_that_op_line(capsys, monkeypatch):
    argv = ("--workload", "small-means", "--seed", "3")
    before = _digest(capsys, monkeypatch, *argv)
    target = os.path.join("out", "0002", "summary.json")   # the third op
    write_json = emit.write_json

    def nudged(path, obj):
        if path == target:
            obj = dict(obj, final_cost=math.nextafter(obj["final_cost"],
                                                      math.inf))
        return write_json(path, obj)
    monkeypatch.setattr(emit, "write_json", nudged)
    after = _digest(capsys, monkeypatch, *argv)
    assert len(after) == len(before)
    changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    assert changed == [3]   # the header, then ops 0, 1 and 2
    assert after[3].split()[0] == before[3].split()[0]


def test_against_prints_only_the_lines_that_differ(capsys, monkeypatch,
                                                   tmp_path):
    # this checkout against itself: nothing printed, exit 0
    argv = ("--workload", "certify-suites", "--seed", "3", "--scale", _SCALE)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert output_digest.main([*argv, "--against", _ROOT]) == 0
    assert capsys.readouterr().out == ""
    # against a copy whose step-size table ends each row with a space: the
    # table op's line alone, under its header, and exit 1
    copy = tmp_path / "copy"
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(_ROOT, part), copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = copy / "src" / "geomean" / "cli.py"
    text = cli_py.read_text()
    assert text.count("abs_error={r['abs_error']:.2e}") == 1
    cli_py.write_text(text.replace("abs_error={r['abs_error']:.2e}",
                                   "abs_error={r['abs_error']:.2e} "))
    assert output_digest.main([*argv, "--against", str(copy)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# certify-suites seed 3"
    assert [line[:7] for line in lines[1:]] == ["-table ", "+table "]


def _op(**changes):
    """An op's raw outputs (run_op's record), with some fields changed."""
    rec = {"id": "mean-00", "rc": 0, "stdout": '{\n  "iterations": 7\n}\n',
           "stderr": "", "files": {
               "summary.json": json.dumps({"iterations": 7, "status": "ok",
                                           "final": [0.25, -3.5e6],
                                           "empirical_q": None,
                                           "certified": True,
                                           "min_margin": math.nan}),
               "trace.csv": "k,x0,cost\n0,0.5,1.25\n1,0.25,0\n"}}
    rec.update(changes)
    return rec


def _summary(**changes):
    obj = json.loads(_op()["files"]["summary.json"])
    obj.update(changes)
    return _op(files=dict(_op()["files"], **{"summary.json":
                                             json.dumps(obj)}))


def test_tol_passes_a_float_within_the_bound():
    # 1e-13 relative on a float of summary.json is a tenth of the bound
    # 1e-12 * max(1, |b|); a NaN matches a NaN
    b = _op()
    a = _summary(final=[0.25, -3.5e6 * (1 + 1e-13)])
    dev = output_digest.compare_op(a, b, 1e-12)
    assert 0.05 < dev < 0.2
    assert output_digest.compare_op(b, b, 1e-12) == 0.0
    csv = "k,x0,cost\n0,0.5,1.25\n1,0.25,1e-17\n"   # 0 against 1e-17
    assert output_digest.compare_op(
        _op(files=dict(b["files"], **{"trace.csv": csv})), b, 1e-12) < 1e-4


def test_tol_fails_a_float_past_the_bound():
    b = _op()
    a = _summary(final=[0.25 + 1e-11, -3.5e6])
    assert output_digest.compare_op(a, b, 1e-12) > 1.0
    csv = "k,x0,cost\n0,0.5,1.25\n1,0.25000000001,0\n"
    assert output_digest.compare_op(
        _op(files=dict(b["files"], **{"trace.csv": csv})), b, 1e-12) > 1.0


def test_tol_breach_lists_each_value_past_the_bound(capsys):
    # two floats past the bound, one within it: the op's line names the
    # two, where they are and their deviations, before BREACH; an op
    # within the bound lists none
    b = _op()
    a = _summary(final=[0.25 + 3e-12, -3.5e6 * (1 + 1e-13)])
    a["files"]["trace.csv"] = "k,x0,cost\n0,0.5,1.25\n1,0.25000000002,0\n"
    past = []
    assert output_digest.compare_op(a, b, 1e-12, past) == pytest.approx(20.0)
    assert [where for where, _ in past] == ["summary.json:final[0]",
                                            "trace.csv#5"]
    ours, theirs = [("# run", [a, b])], [("# run", [b, b])]
    assert output_digest.print_deviations(theirs, ours, 1e-12) == 1
    assert capsys.readouterr().out.splitlines() == [
        "# run",
        "mean-00 dev=20 summary.json:final[0]=3 trace.csv#5=20 BREACH",
        "mean-00 dev=0"]


@pytest.mark.parametrize("changed", [
    lambda: _summary(iterations=8),               # an integer
    lambda: _summary(iterations=7.0),             # an integer's type
    lambda: _summary(extra=1),                    # another key
    lambda: _summary(status="failed"),            # a string
    lambda: _summary(certified=False),            # a boolean
    lambda: _summary(empirical_q=0.0),            # a null
    lambda: _summary(min_margin=0.0),             # a NaN
    lambda: _summary(final=[0.25]),               # a length
    lambda: _op(rc=1),                            # the exit code
    lambda: _op(stderr="warning\n"),              # stderr
    lambda: _op(stdout='{\n  "iterations": 8\n}\n'),
    lambda: _op(files={"summary.json": _op()["files"]["summary.json"]}),
    lambda: _op(files=dict(_op()["files"], **{   # another row
        "trace.csv": "k,x0,cost\n0,0.5,1.25\n1,0.25,0\n2,0.25,0\n"})),
], ids=["integer", "integer-type", "extra-key", "string", "boolean", "null",
        "nan", "length", "rc", "stderr", "stdout", "file", "csv-row"])
def test_tol_fails_any_structural_difference(changed):
    a, b = changed(), _op()
    try:
        dev = output_digest.compare_op(a, b, 1e-12)
    except output_digest.Mismatch:
        return
    assert dev > 1.0   # a changed integer in text is a breach


def test_tol_and_bytes_pass_the_unchanged_tree_against_itself(capsys,
                                                              monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    for seed in ("3", "17"):
        argv = ("--workload", "certify-suites", "--seed", seed,
                "--scale", _SCALE, "--against", _ROOT)
        assert output_digest.main(argv) == 0
        assert capsys.readouterr().out == ""
        assert output_digest.main([*argv, "--tol", "1e-12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"# certify-suites seed {seed}"
        assert all(line.endswith(" dev=0") for line in lines[1:])


@pytest.mark.parametrize("nudge, code", [(1e-13, 0), (1e-11, 1)])
def test_tol_against_a_moved_summary(nudge, code, capsys, monkeypatch):
    # one float of one op's summary.json moved in this run only: --tol
    # passes a tenth of the bound and fails ten times it, on that op
    target = os.path.join("out", "0002", "summary.json")   # the third op
    write_json = emit.write_json

    def nudged(path, obj):
        if path == target:
            obj = dict(obj, final_cost=obj["final_cost"] * (1.0 + nudge))
        return write_json(path, obj)
    monkeypatch.setattr(emit, "write_json", nudged)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert output_digest.main(["--workload", "small-means", "--seed", "3",
                               "--scale", _SCALE, "--against", _ROOT,
                               "--tol", "1e-12"]) == code
    lines = capsys.readouterr().out.splitlines()
    moved = [line for line in lines[1:] if not line.endswith(" dev=0")]
    assert len(moved) == 1 and moved[0] == lines[3]
    assert moved[0].endswith(" BREACH") == bool(code)
