"""Per-layer metrics from the spans of one traced pass over a workload.

Counts and times are totals over that one pass, so a count repeats
exactly for a given seed and program.  Times come from the traced pass
and include the tracing overhead that `trace.overhead_ratio` reports.
A metric of a layer the workload never enters is 0.
"""

import numpy as np

from run import SUITES

# the span that runs each suite's trials: the hull sweep is a private
# function of `cli`, so its nearest public span is `cli.cmd_check`
_SUITE_SPANS = {"comparison": "geocheck.comparison_check",
                "tethering": "geocheck.tethering_check",
                "hull": "cli.cmd_check"}


def per_layer(tracer, ops):
    a = tracer.arrays()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    name, dur, self_t, parent = a["name"], a["dur"], a["self"], a["parent"]
    counts = np.bincount(name, minlength=len(names))
    totals = np.bincount(name, weights=dur, minlength=len(names))

    def calls(span):
        return int(counts[ids[span]]) if span in ids else 0

    def total_s(span):
        return float(totals[ids[span]]) if span in ids else 0.0

    def per(num, den):
        return num / den if den else 0.0

    def layer_mask(layer):
        lids = [i for i, n in enumerate(names) if n.startswith(layer + ".")]
        return np.isin(name, lids)

    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    descend = ids.get("solver.descend", -2)
    under_descend = parent_name == descend
    manifolds = layer_mask("manifolds")
    kernels = layer_mask("kernels")
    # descend evaluates the gradient once per iteration and once more at
    # the point where it stops
    iters = int(np.count_nonzero(
        under_descend & (name == ids.get("frechet.gradient", -2)))
        - calls("solver.descend"))

    m = {}
    for fn in ("gradient", "cost"):
        span = f"frechet.{fn}"
        m[f"{span}.us_per_point"] = (
            1e6 * per(total_s(span), tracer.points[span]), "us")
        m[f"{span}.calls"] = (calls(span), "count")
    m["frechet.make_dataset.ms"] = (1e3 * total_s("frechet.make_dataset"), "ms")
    for fn in ("distance", "exp", "log", "constants"):
        m[f"manifolds.{fn}.calls"] = (calls(f"manifolds.{fn}"), "count")
    manifold_self = float(self_t[manifolds].sum())
    m["manifolds.self_ms"] = (1e3 * manifold_self, "ms")
    m["manifolds.us_per_call"] = (
        1e6 * per(manifold_self, int(manifolds.sum())), "us")
    m["solver.iters"] = (iters, "count")
    m["solver.ms_per_iter"] = (1e3 * per(total_s("solver.descend"), iters), "ms")
    m["solver.monitor_ms"] = (1e3 * float(dur[under_descend & manifolds].sum()),
                              "ms")
    m["solver.self_ms"] = (1e3 * float(self_t[layer_mask("solver")].sum()), "ms")
    m["solver.minimal_ball_estimate.ms"] = (
        1e3 * total_s("solver.minimal_ball_estimate"), "ms")
    m["stepsize.resolve.calls"] = (calls("stepsize.resolve"), "count")
    m["stepsize.exit_time_bounds.calls"] = (
        calls("stepsize.exit_time_bounds"), "count")
    m["stepsize.exit_time_bounds.ms_per_call"] = (
        1e3 * per(total_s("stepsize.exit_time_bounds"),
                  calls("stepsize.exit_time_bounds")), "ms")
    m["experiments.stepsize_table.s"] = (
        total_s("experiments.stepsize_table"), "s")

    # per-trial time of each suite: the span time of its trial loops
    for suite in SUITES:
        which = [i for i, op in enumerate(ops) if op["kind"] == suite]
        span = ids.get(_SUITE_SPANS[suite], -2)
        sel = (name == span) & np.isin(a["op"], which)
        trials = sum(ops[i]["trials"] for i in a["op"][sel])
        m[f"geocheck.{suite}.trial_ms"] = (
            1e3 * per(float(dur[sel].sum()), trials), "ms")
    hull, secant = "geocheck.hull_membership", "geocheck.secant_by_intersection"
    m[f"{hull}.calls"] = (calls(hull), "count")
    m[f"{hull}.ms_per_call"] = (1e3 * per(total_s(hull), calls(hull)), "ms")
    m[f"{secant}.ms_per_call"] = (
        1e3 * per(total_s(secant), calls(secant)), "ms")
    m["kernels.calls"] = (int(kernels.sum()), "count")
    m["kernels.self_ms"] = (1e3 * float(self_t[kernels].sum()), "ms")
    m["emit.write_trace_csv.ms_per_call"] = (
        1e3 * per(total_s("emit.write_trace_csv"),
                  calls("emit.write_trace_csv")), "ms")
    m["emit.bytes_written"] = (tracer.bytes_written, "bytes")
    m["cli.self_ms"] = (1e3 * float(self_t[layer_mask("cli")].sum()), "ms")
    m["cli.trailing_rate.ms"] = (1e3 * total_s("cli.trailing_rate"), "ms")
    return m
