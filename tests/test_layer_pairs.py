import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "layer_pairs.py")
_spec = importlib.util.spec_from_file_location("layer_pairs", _PATH)
layer_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_pairs)

_BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.175


def test_verdicts_of_synthetic_unit_timings():
    # per-pair ms of four units, base and change: faster in 10 of 10
    # pairs by more than the base's IQR; faster in 8 of 10; faster in
    # every pair but by less than the IQR; and 30% slower
    change = {"gain": [b - 0.5 for b in _BASE],
              "eight": [b - 0.5 for b in _BASE[:8]] + [11.0, 11.0],
              "close": [b - 0.1 for b in _BASE],
              "slower": [1.3 * b for b in _BASE]}
    pairs = [({name: b for name in change},
              {name: times[i] for name, times in change.items()})
             for i, b in enumerate(_BASE)]
    lines = layer_pairs.summarize(pairs, 0.25)
    assert [(line["unit"], line["won"], line["verdict"]) for line in lines] == [
        ("gain", 10, "gain"), ("eight", 8, "unresolved"),
        ("close", 10, "unresolved"), ("slower", 0, "worse than bound")]
    gain = lines[0]
    assert gain["pairs"] == 10 and gain["base_ms"] == [10.0, 9.925, 10.1]
    assert gain["change_ms"] == [9.5, 9.425, 9.6]
    assert gain["ratio"] == -0.05
    # a looser bound leaves the slower unit unresolved
    assert layer_pairs.summarize(pairs, 0.5)[3]["verdict"] == "unresolved"


def test_units_include_the_sampler_bound_blocks():
    # the suites' 128-trial blocks, among them the two that phase 1 of
    # the sampler bounds, each a full suite report of 128 trials
    units = layer_pairs.units()
    suites = {"comparison-hyperbolic-128", "tethering-sphere-128",
              "hull-sphere-128", "comparison-sphere-128",
              "tethering-so3-128"}
    assert suites <= set(units)
    for name in ("comparison-sphere-128", "tethering-so3-128"):
        report = units[name]()
        assert report["trials"] == 128 and report["violations"] == 0, name
        assert report["suite"] == name.split("-")[0]
