import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(ops, p50, correct=True, failed=0, **extra):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_ms_p50": {"value": p50, "unit": "ms"}}
    metrics.update({k: {"value": v, "unit": ""} for k, v in extra.items()})
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed,
                       "metrics": metrics})


def test_summary_of_canned_pairs():
    pairs = [(_line(10.0, 100.0, probe=1.0), _line(12.0, 80.0)),
             (_line(11.0, 90.0, probe=2.0), _line(13.0, 95.0)),
             (_line(12.0, 110.0, probe=3.0), _line(10.0, 100.0))]
    lines = bench_pairs.summarize(pairs, {"ops_per_s": "higher",
                                          "op_ms_p50": "lower"})
    # medians and inclusive quartiles per side, the median of the
    # per-pair ratios, the pairs the change won in each direction and
    # the verdict; a metric one side lacks is left out
    assert lines == [
        "ops_per_s (1/s): base 11 [10.5, 11.5]  change 12 [11, 12.5]  "
        "ratio +18.2%  change won 2/3  unresolved",
        "op_ms_p50 (ms): base 100 [95, 105]  change 95 [87.5, 97.5]  "
        "ratio -9.1%  change won 2/3  unresolved",
    ]


_BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.175


@pytest.mark.parametrize("better, change, bound, expected", [
    # won 10/10, and the medians differ by 0.5 > the base's IQR
    ("higher", [b + 0.5 for b in _BASE], None, "gain"),
    # won 9/10 is enough
    ("higher", [b + 0.5 for b in _BASE[:9]] + [9.0], None, "gain"),
    # won 8/10 is not
    ("higher", [b + 0.5 for b in _BASE[:8]] + [9.0, 9.0], None, "unresolved"),
    # won 10/10, but by less than the IQR
    ("higher", [b + 0.1 for b in _BASE], None, "unresolved"),
    # the same values, read as lower-is-better: 30% worse than 25%
    ("lower", [1.3 * b for b in _BASE], 0.25, "worse than bound"),
    ("lower", [1.2 * b for b in _BASE], 0.25, "unresolved"),
    ("higher", [0.7 * b for b in _BASE], 0.25, "worse than bound"),
    ("higher", [0.7 * b for b in _BASE], None, "unresolved"),  # no bound
    ("lower", [0.7 * b for b in _BASE], 0.25, "gain"),
])
def test_verdict_of_paired_values(better, change, bound, expected):
    assert bench_pairs.verdict(_BASE, change, better, bound) == expected


def test_summary_without_a_direction_counts_no_wins():
    lines = bench_pairs.summarize([(_line(10.0, 1.0), _line(10.0, 2.0))], {})
    assert lines == ["ops_per_s (1/s): base 10 [10, 10]  change 10 [10, 10]  "
                     "ratio +0.0%",
                     "op_ms_p50 (ms): base 1 [1, 1]  change 2 [2, 2]  "
                     "ratio +100.0%"]


def test_problems_flag_incorrect_and_failed_runs():
    assert bench_pairs.problems("base", _line(1.0, 1.0)) == []
    assert bench_pairs.problems("base", _line(1.0, 1.0, correct=False)) == \
        ["base: correct is False"]
    assert bench_pairs.problems("change", _line(1.0, 1.0, failed=2)) == \
        ["change: 2 failed of 40"]


@pytest.mark.parametrize("failed, code", [(0, 0), (1, 1)])
def test_pairs_alternate_and_a_failed_run_exits_one(failed, code, tmp_path,
                                                    monkeypatch, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "ops_per_s", "better": "higher",
                        "bound": 0.25}],
        "per_layer": []}))
    order = []

    def fake_run(root, workload, seed, seconds):
        order.append(os.path.basename(root))
        assert seconds == 7   # the run length BENCHMARK.json sets
        if root == str(change):   # 30% slower, past the 25% bound
            return _line(7.0, 1.0, failed=failed)
        return _line(10.0, 1.0)

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "certify-suites", "--seed", "3",
                             "--pairs", "3"]) == code
    assert order == ["base", "change", "change", "base", "base", "change"]
    out = capsys.readouterr()
    assert ("ops_per_s (1/s): base 10 [10, 10]  change 7 [7, 7]  "
            "ratio -30.0%  change won 0/3  worse than bound") in out.out
    assert ("failed of 40" in out.err) == bool(failed)
