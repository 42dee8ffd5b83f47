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
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
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
    """One op's line: id, exit code, stdout, stderr and its files."""
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se), \
            warnings.catch_warnings():
        warnings.simplefilter("always")   # every op prints its own
        try:
            rc = cli.main(op["argv"] + ["--out", out])
        except SystemExit as e:   # argparse rejected the arguments
            rc = e.code
    fields = [op["id"], f"rc={rc}",
              f"stdout={_sha(so.getvalue().encode())}",
              f"stderr={_sha(se.getvalue().encode())}"]
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as f:
            fields.append(f"{name}={_sha(f.read())}")
    return " ".join(fields)


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
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from geomean import cli
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for seed in args.seed:
        for name in names:
            lines.append(f"# {name} seed {seed}")
            lines += run_workload(cli, workloads, name, seed, args.scale)
    if args.against is None:
        print("\n".join(lines))
        return 0
    other = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, *(f"--seed={s}" for s in args.seed),
         "--scale", repr(args.scale), "--root", args.against],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    return print_differences(other, lines)


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
    """The line of every op of one workload at one seed, warm-ups first,
    each run in a temporary directory of its own."""
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
