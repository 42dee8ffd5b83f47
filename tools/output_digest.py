"""Digest every CLI output of benchmark workloads, op by op.

    python3 tools/output_digest.py --workload small-means --seed 3
    python3 tools/output_digest.py --workload bulk-mean --seed 17 --root OTHER
    python3 tools/output_digest.py --workload all --seed 3 --seed 17
    python3 tools/output_digest.py --workload all --seed 3 --against OTHER
    python3 tools/output_digest.py --workload suites --seed 3 --against OTHER

Builds the op list of `bench/workloads.py` (`warmup_ops`, then
`make_ops`), runs each op in-process through `geomean.cli.main` with an
output directory of its own, and prints one line per op: its id, its
exit code, and the sha256 of its stdout, its stderr and each file it
wrote.  Every op runs inside one temporary directory with relative
paths, so no line depends on where that directory is.  Two checkouts
give the same lines exactly when every op's exit code, stdout, stderr
and written files are byte-identical, so a `diff` of this output
between two checkouts is a byte-identity gate.  `--workload all` runs
the three workloads in turn, and each `--seed` runs them again; a line
`# WORKLOAD seed S` heads the op lines of each run.

`--workload suites` is not a benchmark workload but an op list kept
here (`suite_ops`): the three Monte Carlo suites on all six spaces at
50 trials, seeded by `--seed`.  certify-suites runs tethering only on
the sphere, SO(3) and the circle, and comparison and hull on three
spaces each, so these ops widen the gate to every suite and space.

`geomean` and the workloads are imported from `--root` (default: the
checkout holding this script); nothing under `bench/` is written.

`--against OTHER` makes that comparison one command: the same digest
runs for OTHER in a subprocess (this script with `--root OTHER`), and
only the lines that differ are printed, OTHER's prefixed `-` and this
run's `+`, each after the header of its run.  The exit code is then 1
when any line differs, else 0.

`--against OTHER --tol 1e-12` compares values instead of bytes, for a
change that may move outputs by rounding.  OTHER's subprocess sends its
raw outputs (`--raw`), and each op's stdout and files are parsed: JSON
where they parse as JSON, else text split into numbers and the text
between them.  Exit codes, stderr, file names, keys, lengths, strings,
integers, booleans and nulls must be equal, and the text between
numbers too (so row and column counts); NaN must match NaN.  Every
other number must lie within tol * max(1, |b|) of OTHER's b, the bound
of `bench/worker.py`'s `_close`.  One line per op gives its largest
deviation in units of that bound (`dev=`), or where it first differs
in structure; an op past the bound lists each value past it, where it
is and its deviation (`summary.json:final_cost=3.1`), before `BREACH`.
The exit code is 1 on any breach or difference, else 0.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

WORKLOADS = ("bulk-mean", "small-means", "certify-suites")
SUITE_SPACES = ("euclidean", "sphere", "circle", "hyperbolic",
                "real_projective", "so3")
SUITE_TRIALS = 50


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_op(cli, op, out):
    """One op's raw outputs: {"id", "rc", "stdout", "stderr", "files"},
    files mapping each name written to its text."""
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se), \
            warnings.catch_warnings():
        warnings.simplefilter("always")   # every op prints its own
        try:
            rc = cli.main(op["argv"] + ["--out", out])
        except SystemExit as e:   # argparse rejected the arguments
            rc = e.code
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as f:
            files[name] = f.read().decode()
    return {"id": op["id"], "rc": rc, "stdout": so.getvalue(),
            "stderr": se.getvalue(), "files": files}


def digest_line(rec):
    """An op's line: id, exit code and the sha256 of its stdout, its
    stderr and each file it wrote."""
    return " ".join([rec["id"], f"rc={rec['rc']}",
                     f"stdout={_sha(rec['stdout'].encode())}",
                     f"stderr={_sha(rec['stderr'].encode())}"]
                    + [f"{name}={_sha(text.encode())}"
                       for name, text in rec["files"].items()])


def main(argv=None):
    checkout = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all", "suites"))
    ap.add_argument("--seed", type=int, required=True, action="append",
                    help="repeat to run each seed in turn")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--root", default=checkout,
                    help="checkout whose src/ and bench/ are run")
    ap.add_argument("--against", default=None, metavar="OTHER",
                    help="print only the lines that differ from OTHER's; "
                         "exit 1 if any does")
    ap.add_argument("--tol", type=float, default=None,
                    help="with --against: compare values within tol * "
                         "max(1, |b|) instead of bytes")
    ap.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.tol is not None and args.against is None:
        ap.error("--tol needs --against")
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from geomean import cli
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [(f"# {name} seed {seed}",
             run_workload(cli, workloads, name, seed, args.scale))
            for seed in args.seed for name in names]
    if args.raw:
        print(json.dumps(runs))
        return 0
    lines = [line for header, recs in runs
             for line in [header] + [digest_line(r) for r in recs]]
    if args.against is None:
        print("\n".join(lines))
        return 0
    other = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, *(f"--seed={s}" for s in args.seed),
         "--scale", repr(args.scale), "--root", args.against,
         *(["--raw"] if args.tol is not None else [])],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    if args.tol is None:
        return print_differences(other.splitlines(), lines)
    return print_deviations(json.loads(other), runs, args.tol)


def print_differences(other, ours):
    """Print the lines where two digests differ, OTHER's as `-` and ours
    as `+`, each after the header of its run; 1 if any does, else 0."""
    differ = 0
    header = None
    for theirs, mine in itertools.zip_longest(other, ours):
        if mine is not None and mine.startswith("# "):
            header = mine
        if theirs == mine:
            continue
        if header is not None:
            print(header)
            header = None
        for sign, line in (("-", theirs), ("+", mine)):
            if line is not None:
                print(f"{sign}{line}")
        differ = 1
    return differ


def print_deviations(other, ours, tol):
    """Print each op's largest deviation from OTHER's (compare_op), under
    the header of its run; 1 if any op breaches or differs, else 0."""
    bad = 0
    for (theirs_header, theirs), (header, mine) in itertools.zip_longest(
            other, ours, fillvalue=(None, None)):
        print(header if header is not None else theirs_header)
        if theirs_header != header or len(theirs) != len(mine):
            print(f"DIFFERS runs: {theirs_header!r} with {len(theirs or [])} "
                  f"ops against {header!r} with {len(mine or [])}")
            bad = 1
            continue
        for a, b in zip(mine, theirs):
            past = []
            try:
                dev = compare_op(a, b, tol, past)
            except Mismatch as e:
                print(f"{a['id']} DIFFERS {e}")
                bad = 1
                continue
            print(" ".join([f"{a['id']} dev={dev:.3g}"]
                           + [f"{where}={d:.3g}" for where, d in past]
                           + (["BREACH"] if dev > 1 else [])))
            bad |= dev > 1
    return int(bad)


class Mismatch(Exception):
    """A structural difference between two ops' outputs: where, and what."""


# a number in text: decimal or exponent notation, or a NaN or infinity
_NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|nan|NaN|inf|Infinity))")


def compare_op(a, b, tol, past=None):
    """The largest deviation of op a's outputs from op b's, in units of
    tol * max(1, |b|); raises Mismatch where they differ in structure
    (another id, exit code, stderr, file name, key, length, type or
    string).  Each value past the bound is appended to the list `past`,
    if given, as (where, deviation)."""
    for key in ("id", "rc", "stderr"):
        if a[key] != b[key]:
            raise Mismatch(f"{key}: {a[key]!r} against {b[key]!r}")
    if list(a["files"]) != list(b["files"]):
        raise Mismatch(f"files: {list(a['files'])} against {list(b['files'])}")
    texts = [("stdout", a["stdout"], b["stdout"])] + [
        (name, a["files"][name], b["files"][name]) for name in a["files"]]
    return max([_text_deviation(*t, tol, past) for t in texts])


def _text_deviation(where, a, b, tol, past):
    """deviation() of two texts, parsed as JSON where both are JSON,
    else as numbers and the text between them (number i at where#i)."""
    try:
        return deviation(json.loads(a), json.loads(b), tol, where, past)
    except ValueError:   # not JSON (json.JSONDecodeError)
        pass
    parts_a, parts_b = _NUMBER.split(a), _NUMBER.split(b)
    if len(parts_a) != len(parts_b):
        raise Mismatch(f"{where}: {len(parts_a) // 2} numbers against "
                       f"{len(parts_b) // 2}")
    dev = 0.0
    for i, (pa, pb) in enumerate(zip(parts_a, parts_b)):
        if i % 2 == 0:
            if pa != pb:
                raise Mismatch(f"{where}: text {pa!r} against {pb!r}")
        elif pa != pb:
            dev = max(dev, deviation(float(pa), float(pb), tol,
                                     f"{where}#{i // 2}", past))
    return dev


def deviation(a, b, tol, where, past=None):
    """The largest |a - b| / (tol * max(1, |b|)) over the floats of two
    parsed JSON values of the same structure, 0 where they are equal;
    raises Mismatch where the structure, a type, a string, an integer, a
    boolean or a null differs, or a NaN or infinity has no equal.  Each
    float past the bound is appended to `past`, if given, as (where,
    its deviation)."""
    if type(a) is not type(b):
        raise Mismatch(f"{where}: {a!r} against {b!r}")
    if isinstance(a, dict):
        if list(a) != list(b):
            raise Mismatch(f"{where}: keys {list(a)} against {list(b)}")
        return max([deviation(a[k], b[k], tol, f"{where}:{k}", past)
                    for k in a], default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: {len(a)} items against {len(b)}")
        return max([deviation(x, y, tol, f"{where}[{i}]", past)
                    for i, (x, y) in enumerate(zip(a, b))], default=0.0)
    if a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    if not isinstance(a, float) or not math.isfinite(a - b):
        raise Mismatch(f"{where}: {a!r} against {b!r}")
    dev = abs(a - b) / (tol * max(1.0, abs(b)))
    if dev > 1 and past is not None:
        past.append((where, dev))
    return dev


def suite_ops(seed, scale):
    """The ops of `--workload suites`: `check` of each suite on each of
    SUITE_SPACES at SUITE_TRIALS trials (times scale, at least 2) and
    the given seed.  comparison needs dim >= 2, which the circle alone
    lacks; H takes kappa = -1, as the CLI's default is outside its
    domain."""
    trials = str(max(2, int(round(SUITE_TRIALS * scale))))
    return [{"id": f"{suite}-{space}", "kind": suite,
             "argv": ["check", suite, "--space", space,
                      *(["--kappa=-1"] if space == "hyperbolic" else []),
                      "--trials", trials, "--seed", str(seed)]}
            for suite in ("tethering", "comparison", "hull")
            for space in SUITE_SPACES
            if not (suite == "comparison" and space == "circle")]


def run_workload(cli, workloads, name, seed, scale):
    """The raw outputs of every op of one workload at one seed (run_op),
    warm-ups first, each run in a temporary directory of its own."""
    if name == "suites":
        warm, ops = [], suite_ops(seed, scale)
    else:
        warm = workloads.warmup_ops(name)
        ops = workloads.make_ops(name, seed, scale)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            workloads.write_inputs(warm, ".", prefix="warmup")
            workloads.write_inputs(ops, ".")
            return [run_op(cli, op, os.path.join("out", f"{i:04d}"))
                    for i, op in enumerate(warm + ops)]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.exit(main())
