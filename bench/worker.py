"""One benchmark worker process: set up, run the timed phase, check outputs.

Started by `run.py` in a fresh interpreter with a cleaned environment.
Every operation is a `geomean` CLI call made in-process through
`geomean.cli.main(argv)` with its stdout/stderr captured, timed from
outside and normalised by a speed probe (SpeedProbe), and checked after
the phase against the recorded reference outcome for the seed (or, for a
seed without one, against invariants that hold by construction and
against its own first run).  The last stdout line is one JSON object
{"setup_s", "setup_wall_s", "result", "details"}.

    python3 bench/worker.py --workload small-means --seed 1 --seconds 10 \
        --trace 0 --runs-dir .bench_runs
"""

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

import numpy as np   # before the set-up clock: the speed probe needs it

from run import SUITES, THREAD_PINS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
# theorems say these suites find no violation; the others only report
_NO_VIOLATIONS = {("comparison", "sphere"), ("comparison", "real_projective"),
                  ("tethering", "sphere"), ("tethering", "so3"),
                  ("tethering", "circle"), ("hull", "sphere")}
FINAL_TOL = 1e-12     # outputs may not move by more than this
GRAD_TOL = 1e-8       # independent gradient norm at a converged final point
SEED_FREE = ("rc", "status", "iterations", "verdicts")


def run_op(cli, op, out_dir):
    """Call the CLI once; returns (start, end, exit code, stdout, error),
    the times from `time.perf_counter`."""
    argv = op["argv"] + ["--out", os.path.join(out_dir, op["kind"])]
    so, se = io.StringIO(), io.StringIO()
    err = None
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:       # argparse rejected the arguments
            rc, err = e.code, se.getvalue()
        except Exception as e:        # an uncaught exception is a failed op
            rc, err = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
    text = so.getvalue()
    if op["kind"] == "table" and rc == 0:
        with open(os.path.join(out_dir, "table", "stepsize_table.json")) as f:
            text = f.read()
    return t0, t1, rc, text, err


def outcome(op, rc, text):
    """The checked part of an operation's output."""
    out = {"rc": rc}
    if rc is None or not text:
        return out
    obj = json.loads(text)
    if op["kind"] == "mean":
        out.update(status=obj["status"], iterations=obj["iterations"],
                   final=obj["final"], verdicts=obj["verdicts"])
    elif op["kind"] in SUITES:
        out.update(violations=obj["violations"], trials=obj["trials"],
                   min_margin=obj["min_margin"])
    elif op["kind"] == "table":
        out["values"] = [row["value"] for row in obj]
    return out


def _close(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FINAL_TOL * max(1.0, abs(b))


def compare(out, ref):
    """Differences between an outcome and the fields of its reference."""
    errs = []
    for key in sorted(ref):
        a, b = out.get(key), ref.get(key)
        same = _close(a, b) if key in ("final", "values", "min_margin") \
            else a == b
        if not same:
            errs.append(f"{key}: {a!r} != reference {b!r}")
    return errs


def invariants(op, out, geometry):
    """Checks that hold by construction, whatever the seed."""
    rc = out["rc"]
    if rc != op["expect"]:
        return [f"exit code {rc}, expected {op['expect']}"]
    errs = []
    kind = op["kind"]
    if kind == "mean" and rc == 0:
        geo = geometry(op["space"])
        x = np.asarray(out["final"])
        pts = np.asarray(op["dataset"]["points"])
        if out["status"] != "converged":
            errs.append(f"status {out['status']}")
        if geo.constraint_error(x) > 1e-9:
            errs.append("final point off the manifold")
        gn = geo.gradient_norm(pts, op["p"], x)
        if not gn <= GRAD_TOL:
            errs.append(f"gradient norm {gn:.3e} at final point")
    elif kind == "mean" and rc == 2 and out.get("status") != "cut_locus":
        errs.append(f"status {out.get('status')} for a cut-locus input")
    elif kind in SUITES:
        if out.get("trials") != op["trials"] or \
                not 0 <= out.get("violations", -1) <= op["trials"]:
            errs.append(f"report {out}")
        elif (kind, op["space"]) in _NO_VIOLATIONS and out["violations"]:
            errs.append(f"{out['violations']} violations")
    elif kind == "table":
        vals = out.get("values") or []
        if len(vals) != 7 or not all(math.isfinite(v) for v in vals):
            errs.append(f"table values {vals}")
    return errs


def load_reference(workload, seed, scale):
    """Reference outcomes by operation id, and whether they are complete.

    A recorded seed gives complete outcomes.  For another seed of a mean
    workload, whose problems are the same for every seed up to an
    isometry, the exit code, status, iteration count and verdicts of any
    recorded seed apply.  The table has no inputs, so its recorded values
    hold for every seed and size.
    """
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}, False
    with open(path) as f:
        recorded = json.load(f)
    found = scale == 1.0 and str(seed) in recorded
    ref = {}
    if found:
        ref = recorded[str(seed)]
    elif scale == 1.0 and recorded and workload != "certify-suites":
        any_seed = next(iter(recorded.values()))
        ref = {op: {k: out[k] for k in SEED_FREE if k in out}
               for op, out in any_seed.items()}
    for other in recorded.values():
        if "table" in other:
            ref.setdefault("table", other["table"])
    return ref, found


PROBE_EVERY_S = 0.05   # wall time between two speed probes
PROBE_AROUND = 2       # probes before and after a call that also count
PROBE_REF_S = 5e-4     # probe time on a quiet host; normalised times are
                       # the times the calls would take at that speed


def probe_s():
    """Best of three timings of a fixed piece of work that uses numpy and
    the interpreter much as the program does, but never `geomean`."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x, acc = np.array([0.0, 0.6, 0.8]), 0.0
        for i in range(120):
            y = np.array([math.cos(0.1 * i), math.sin(0.1 * i), 0.0])
            acc += math.acos(max(-1.0, min(1.0, float(np.dot(x, y)))))
            x = x + 1e-3 * y
            x /= np.linalg.norm(x)
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """Probes the host's speed every PROBE_EVERY_S of wall time, from a
    SIGALRM handler, so that calls of any length are covered.

    The effective speed of a shared host's vCPUs changes by up to 1.5x
    within seconds.  Each call is therefore also reported normalised:
    its wall time, less the probes that ran inside it, scaled by
    PROBE_REF_S over the mean of the probes during it and the PROBE_AROUND
    probes on either side of it.
    """

    def __init__(self):
        self.samples = []      # (handler entry, handler exit, probe time)

    def _sample(self, *_):
        t_in = time.perf_counter()
        best = probe_s()
        self.samples.append((t_in, time.perf_counter(), best))

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def normalise(self, records):
        """Set each record's net `wall` and its normalised `norm`."""
        starts = [s[0] for s in self.samples]
        for r in records:
            lo = bisect.bisect_left(starts, r["t0"])
            hi = bisect.bisect_left(starts, r["t1"])
            inside = self.samples[lo:hi]
            r["wall"] = r["t1"] - r["t0"] - sum(b - a for a, b, _ in inside)
            around = self.samples[max(lo - PROBE_AROUND, 0):hi + PROBE_AROUND]
            speed = statistics.fmean(p for _, _, p in around)
            r["norm"] = r["wall"] * PROBE_REF_S / speed


def run_cycles(cli, ops, out_dir, seconds, tracer=None):
    """Closed loop, one client: whole passes over `ops` until `seconds`
    have elapsed (at least one pass).  Returns the records and the wall
    time of each pass.  An untraced phase runs under a SpeedProbe."""
    records, pass_walls = [], []
    probe = SpeedProbe() if tracer is None else contextlib.nullcontext()
    with probe:
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = i
                t0, t1, rc, text, err = run_op(cli, op, out_dir)
                records.append({"op": i, "pass": len(pass_walls), "t0": t0,
                                "t1": t1, "wall": t1 - t0, "rc": rc,
                                "text": text, "err": err})
            now = time.perf_counter()
            pass_walls.append(now - t_pass)
            if now - t_start >= seconds:
                break
    if tracer is None:
        probe.normalise(records)
    return records, pass_walls


def check_records(ops, records, ref, geometry):
    """Check every record; returns the number failed and sample messages."""
    first = {}
    failed, messages = 0, []
    for r in records:
        op = ops[r["op"]]
        try:
            out = outcome(op, r["rc"], r["text"])
        except (ValueError, KeyError, TypeError) as e:
            out, errs = {"rc": r["rc"]}, [f"unreadable output: {e!r}"]
        else:
            errs = invariants(op, out, geometry)
            if op["id"] in ref:
                errs += compare(out, ref[op["id"]])
            errs += compare(out, first.setdefault(op["id"], out))
        if r["err"]:
            errs.append(r["err"].strip().splitlines()[-1])
        if errs:
            failed += 1
            if len(messages) < 10:
                messages.append(f"{op['id']}: {'; '.join(errs)}")
    return failed, messages


def percentile(values, pct):
    """Linear-interpolation percentile; pct = 100 is the maximum."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _work(op, record):
    """Point-iterations of a mean op, or trials of a suite op."""
    if op["kind"] == "mean":
        if not record["text"]:
            return 0
        return op["n_points"] * (json.loads(record["text"])["iterations"] + 1)
    return op.get("trials", 0)


def end_to_end(workload, ops, records, pass_walls, tail_pct, key="norm"):
    """End-to-end metrics of an untraced phase (except setup_s), from
    the records' normalised times (`key` "norm") or wall times ("wall").

    Every operation runs once per pass, and each timing metric is built
    from each operation's median time over the passes, so every operation
    weighs the same whatever the number of passes.
    """
    work_kind = ("mean",) if workload != "certify-suites" else SUITES
    per_op = [statistics.median(r[key] for r in records if r["op"] == i)
              for i in range(len(ops))]
    first = {r["op"]: r for r in records if r["pass"] == 0}
    worked = [i for i, op in enumerate(ops) if op["kind"] in work_kind]
    tail = percentile(per_op, tail_pct)
    metrics = {
        "op_ms_p50": (1e3 * statistics.median(per_op), "ms"),
        "op_ms_tail": (1e3 * tail, "ms"),
        "ops_per_s": (len(ops) / sum(per_op), "1/s"),
        "work_per_s": (sum(_work(ops[i], first[i]) for i in worked)
                       / sum(per_op[i] for i in worked), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    details = {"ops": len(records), "passes": len(pass_walls),
               "ops_per_pass": len(ops), "pass_walls_s": pass_walls,
               "op_ms": [1e3 * t for t in per_op],
               "tail_percentile": tail_pct,
               "tail_samples_beyond": sum(t > tail for t in per_op),
               "work_unit": ("point-iterations" if workload != "certify-suites"
                             else "Monte Carlo trials")}
    return metrics, details


def kind_rates(ops, records):
    """Untraced per-suite trial rates and the table's time, normalised
    like the end-to-end metrics; 0 where the workload has no such
    operation."""
    rates = {}
    for kind in SUITES:
        recs = [r for r in records if ops[r["op"]]["kind"] == kind]
        trials = sum(ops[r["op"]]["trials"] for r in recs)
        rates[f"{kind}_trials_per_s"] = (
            trials / sum(r["norm"] for r in recs) if recs else 0.0, "1/s")
    tables = [r["norm"] for r in records if ops[r["op"]]["kind"] == "table"]
    rates["table_s"] = (statistics.median(tables) if tables else 0.0, "s")
    return rates


def machine_info():
    from importlib import metadata
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    info["thread_pins"] = {k: os.environ.get(k) for k in THREAD_PINS}
    info["GEOMEAN_SEED"] = os.environ.get("GEOMEAN_SEED")
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size factor; the smoke run uses a small one")
    ap.add_argument("--runs-dir", default=".bench_runs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", default=None,
                    help="write the outcomes of one pass to this file")
    args = ap.parse_args(argv)

    # set-up: import, generate and write inputs, one warm-up call per
    # kind; timed under a speed probe, like the calls themselves
    probe = SpeedProbe()
    with probe:
        t_setup = time.perf_counter()
        import geomean
        from geomean import cli
        import workloads
        ops = workloads.make_ops(args.workload, args.seed, args.scale)
        os.makedirs(args.runs_dir, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                   dir=args.runs_dir)
        try:
            workloads.write_inputs(ops, run_dir)
            warm = workloads.warmup_ops(args.workload)
            workloads.write_inputs(warm, run_dir, prefix="warmup")
            warm_rc = [run_op(cli, op, run_dir)[2] for op in warm]
        except BaseException:
            shutil.rmtree(run_dir, ignore_errors=True)
            raise
        setup = {"t0": t_setup, "t1": time.perf_counter()}
    probe.normalise([setup])
    setup = {"setup_s": setup["norm"], "setup_wall_s": setup["wall"]}
    try:
        src = os.path.join(os.getcwd(), "src")
        if not os.path.abspath(geomean.__file__).startswith(src + os.sep):
            print(f"geomean imported from {geomean.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        if any(rc != 0 for rc in warm_rc):
            print(f"warm-up exit codes {warm_rc}", file=sys.stderr)
            return 1
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.record:
            records, _ = run_cycles(cli, ops, run_dir, 0.0)
            outcomes = {ops[r["op"]]["id"]: outcome(ops[r["op"]], r["rc"],
                                                    r["text"])
                        for r in records}
            with open(args.record, "w") as f:
                json.dump(outcomes, f)
            print(json.dumps({"recorded": len(outcomes)}))
            return 0
        report = measure(args, cli, ops, run_dir, workloads)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report.update(setup)
    print(json.dumps(report))
    return 0


def measure(args, cli, ops, run_dir, workloads):
    ref, recorded = load_reference(args.workload, args.seed, args.scale)
    # a traced run needs one untraced pass only, as the overhead baseline
    records, pass_walls = run_cycles(cli, ops, run_dir,
                                     0.0 if args.trace else args.seconds)
    tp = workloads.TAIL_PERCENTILE[args.workload]
    metrics, details = end_to_end(args.workload, ops, records, pass_walls, tp)
    rates = kind_rates(ops, records)
    details["unnormalised"] = {
        k: v for k, (v, _) in end_to_end(args.workload, ops, records,
                                         pass_walls, tp, "wall")[0].items()}
    checked = records
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        traced, _ = run_cycles(cli, ops, run_dir, 0.0, tracer=tracer)
        checked = records + traced
        metrics = dict(rates)
        metrics.update(layers.per_layer(tracer, ops))
        metrics["trace.overhead_ratio"] = (
            sum(r["wall"] for r in traced) / sum(r["wall"] for r in records),
            "ratio")
        spans = os.path.join(args.runs_dir, f"spans-{args.workload}.npz")
        tracer.save(spans)
        details["spans_file"] = spans
        details["spans"] = len(tracer.start)
    failed, messages = check_records(ops, checked, ref, workloads.Geometry)
    details.update(workload=args.workload, seed=args.seed,
                   reference=("recorded outcomes" if recorded else
                              "seed-free fields, invariants, first pass"),
                   failed_frac=failed / len(checked), failures=messages,
                   machine=machine_info(),
                   kind_rates={k: v[0] for k, v in rates.items()})
    result = {"correct": failed == 0, "attempted": len(checked),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return {"result": result, "details": details}


if __name__ == "__main__":
    sys.exit(main())
