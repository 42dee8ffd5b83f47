"""Seeded inputs and operation lists for the three benchmark workloads.

Everything here uses numpy only, never `geomean`: the program under test
receives the generated dataset JSON files and CLI argument lists, and the
independent geometry below is what checks its answers when no reference
outcome was recorded for a seed.

An operation is a dict:
  id        stable name, the key of its recorded reference outcome
  kind      "mean" | "comparison" | "tethering" | "hull" | "table"
  argv      arguments for `geomean.cli.main`, without `--out`
  expect    exit code the operation must return by construction
  n_points  dataset size (mean operations), for the point-iteration count
  trials    Monte Carlo trial count (check operations)
  dataset   the dataset dict (mean operations), for the invariant check
  space     space kind
  p         exponent (mean operations)
"""

import json
import math
import os

import numpy as np

# kind -> (dim, kappa); SO(3) is RP^3 on unit quaternions with kappa = 1/4
SPACES = {
    "euclidean": (2, 0.0),
    "sphere": (2, 1.0),
    "circle": (1, 1.0),
    "hyperbolic": (2, -1.0),
    "real_projective": (2, 1.0),
    "so3": (3, 0.25),
}
SPACE_ORDER = tuple(SPACES)
POLICIES = ("user_constant", "conjecture", "constant_curvature",
            "spread_compromise", "exit_compromise")

PROBLEM_KEY = 1201  # Philox key of the fixed problem set of the mean workloads

# Percentile reported as `op_ms_tail`, fixed per workload so that the
# metric means the same thing in every run.  It is the highest rung with
# at least ten samples beyond it at the run length in BENCHMARK.json;
# bulk-mean and certify-suites complete too few operations per run for
# any percentile to qualify, so their tail is the slowest operation.
TAIL_PERCENTILE = {"bulk-mean": 100.0, "small-means": 95.0,
                   "certify-suites": 100.0}


# -- independent geometry (numpy only) ------------------------------------

class Geometry:
    """Closed-form geometry of one space, used to build and check inputs."""

    def __init__(self, kind):
        self.kind = kind
        self.dim, self.kappa = SPACES[kind]
        self.ambient = self.dim if kind == "euclidean" else self.dim + 1
        self.flat = kind == "euclidean"
        self.hyper = kind == "hyperbolic"
        self.projective = kind in ("real_projective", "so3")
        if self.flat or self.hyper:
            self.inj = self.r_cx = math.inf
        else:
            rk = math.sqrt(self.kappa)
            self.inj = math.pi / rk / (2.0 if self.projective else 1.0)
            self.r_cx = self.inj / 2.0
        # lower sectional-curvature bound delta (the circle is flat)
        self.delta = 0.0 if kind == "circle" else self.kappa

    def to_json(self):
        return {"kind": self.kind, "dim": self.dim, "kappa": self.kappa}

    def _mink(self, u, v):
        return float(-u[0] * v[0] + np.dot(u[1:], v[1:]))

    def inner(self, u, v):
        return self._mink(u, v) if self.hyper else float(np.dot(u, v))

    def norm(self, v):
        return math.sqrt(max(self.inner(v, v), 0.0))

    def random_point(self, rng):
        if self.flat:
            return rng.standard_normal(self.dim)
        if self.hyper:
            s = 0.5 * rng.standard_normal(self.dim)
            return np.concatenate(([math.sqrt(1.0 / -self.kappa + s @ s)], s))
        x = rng.standard_normal(self.ambient)
        return x / np.linalg.norm(x)

    def unit_tangent(self, x, rng):
        while True:
            g = rng.standard_normal(self.ambient)
            if self.hyper:
                g = g + self._mink(g, x) * -self.kappa * x
            elif not self.flat:
                g = g - float(g @ x) * x
            n = self.norm(g)
            if n > 1e-6:
                return g / n

    def exp(self, x, v):
        nv = self.norm(v)
        if self.flat or nv == 0.0:
            return x + v
        if self.hyper:
            R = 1.0 / math.sqrt(-self.kappa)
            y = math.cosh(nv / R) * x + (R * math.sinh(nv / R) / nv) * v
            y[0] = math.sqrt(R * R + float(y[1:] @ y[1:]))
            return y
        th = math.sqrt(self.kappa) * nv
        y = math.cos(th) * x + math.sin(th) * (v / nv)
        return y / np.linalg.norm(y)

    def in_ball(self, o, rho, rng):
        """A point at geodesic distance <= rho from o."""
        r = rho * rng.uniform() ** (1.0 / self.dim)
        return self.exp(o, r * self.unit_tangent(o, rng))

    def log_dist(self, x, y):
        """(log_x y, d(x, y)), with the nearest lift on projective spaces."""
        if self.flat:
            v = y - x
            return v, float(np.linalg.norm(v))
        if self.hyper:
            R = 1.0 / math.sqrt(-self.kappa)
            u = y + self._mink(x, y) / (R * R) * x
            nu = self.norm(u)
            d = R * math.asinh(nu / R)
        else:
            if self.projective and float(x @ y) < 0.0:
                y = -y
            c = float(x @ y)
            u = y - c * x
            nu = float(np.linalg.norm(u))
            d = math.atan2(nu, c) / math.sqrt(self.kappa)
        return (u * (d / nu) if nu > 0.0 else 0.0 * u), d

    def gradient_norm(self, points, p, x):
        """Riemannian norm of the gradient of (1/p) sum_i d(x, x_i)^p / N."""
        g = np.zeros(self.ambient)
        for xi in points:
            v, d = self.log_dist(x, xi)
            g -= v * (d ** (p - 2.0) if p != 2.0 else 1.0)
        return self.norm(g / len(points))

    def random_isometry(self, rng):
        """A random isometry, as a map of (k, ambient) point arrays."""
        if self.hyper:
            # spatial rotation, then a boost of rapidity <= 1
            q = np.eye(self.ambient)
            q[1:, 1:] = _orthogonal(self.dim, rng)
            u = self.unit_tangent(np.eye(self.ambient)[0], rng)[1:]
            phi = rng.uniform(0.0, 1.0)
            boost = np.eye(self.ambient)
            boost[0, 0] = math.cosh(phi)
            boost[0, 1:] = boost[1:, 0] = math.sinh(phi) * u
            boost[1:, 1:] += (math.cosh(phi) - 1.0) * np.outer(u, u)
            m = boost @ q
            R2 = 1.0 / -self.kappa

            def move(x):
                y = x @ m.T
                y[:, 0] = np.sqrt(R2 + np.sum(y[:, 1:] ** 2, axis=1))
                return y
            return move
        q = _orthogonal(self.ambient, rng)
        if self.flat:
            shift = rng.standard_normal(self.dim)
            return lambda x: x @ q.T + shift

        def move(x):
            y = x @ q.T
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            if self.projective:  # either sign represents the same point
                y *= rng.choice((-1.0, 1.0), size=(len(y), 1))
            return y
        return move

    def constraint_error(self, x):
        if self.flat:
            return 0.0
        if self.hyper:
            return abs(self._mink(x, x) - 1.0 / self.kappa) / (1.0 + x[0] ** 2)
        return abs(float(np.linalg.norm(x)) - 1.0)

    def conjecture_step(self, rho, p):
        """1/H with H = (2 rho)^(p-2) max(p-1, c_delta(2 rho))."""
        l = 2.0 * rho
        c = 1.0
        if self.delta < 0:
            z = math.sqrt(-self.delta) * l
            c = z / math.tanh(z)
        return 1.0 / (l ** (p - 2.0) * max(p - 1.0, c))


def _orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _dataset(geo, o, pts, rho, with_ball):
    obj = {"space": geo.to_json(),
           "points": [[float(c) for c in q] for q in pts]}
    if with_ball:
        obj["ball"] = {"center": [float(c) for c in o], "radius": float(rho)}
    return obj


def _mean_op(op_id, geo, dataset, p, policy, expect, t=None, rho_prime=None):
    argv = ["mean", None, "--p", repr(float(p)), "--policy", policy]
    if t is not None:
        argv += ["--t", repr(float(t))]
    if rho_prime is not None:
        argv += ["--rho-prime", repr(float(rho_prime))]
    return {"id": op_id, "kind": "mean", "argv": argv, "expect": expect,
            "n_points": len(dataset["points"]), "dataset": dataset,
            "space": geo.kind, "p": float(p)}


# -- workloads ---------------------------------------------------------------

def bulk_mean(rng, scale=1.0):
    """S^2 (rho 0.8) and H^2 (rho 1.0) at N = 1000, p in {2, 3},
    conjecture policy, ball given.  At N = 1000 a pass takes about 6 s, so
    a run has five or more passes to take the median over."""
    n = max(8, int(round(1000 * scale)))
    ops = []
    for kind, rho in (("sphere", 0.8), ("hyperbolic", 1.0)):
        geo = Geometry(kind)
        o = geo.random_point(rng)
        ds = _dataset(geo, o, [geo.in_ball(o, rho, rng) for _ in range(n)],
                      rho, True)
        for p in (2, 3):
            ops.append(_mean_op(f"{kind}-p{p}", geo, ds, p, "conjecture", 0))
    return ops


def _policies_for(geo):
    # constant_curvature needs curvature >= 0
    return [pol for pol in POLICIES
            if not (pol == "constant_curvature" and geo.delta < 0)]


def small_means(rng, per_space=32):
    """~200 tiny datasets spread over all six spaces and five policies,
    half without a ball, plus a fixed share that must exit with code 2
    (cut locus) or 4 (failed precondition)."""
    ops = []
    for kind in SPACE_ORDER:
        geo = Geometry(kind)
        pols = _policies_for(geo)
        finite = math.isfinite(geo.r_cx)
        for j in range(per_space):
            policy = pols[j % len(pols)]
            p = 2.0 if policy in ("constant_curvature", "exit_compromise") \
                else (2.0 if (j // len(pols)) % 2 == 0 else 3.0)
            with_ball = (j + j // len(pols)) % 2 == 0
            n = int(rng.integers(3, 9))
            # radii keep a margin under each policy's bound, so an
            # estimated minimal ball a few percent too large still passes;
            # narrow ranges keep iteration counts alike across seeds
            cap = geo.r_cx if finite else 1.0
            if policy == "spread_compromise" and finite:
                cap = geo.r_cx / 3.0
            if policy == "exit_compromise":
                rho = cap * rng.uniform(0.25, 0.35)
            else:
                rho = cap * rng.uniform(0.4, 0.7)
            o = geo.random_point(rng)
            pts = [geo.in_ball(o, rho, rng) for _ in range(n)]
            t = rho_prime = None
            if policy == "user_constant":
                t = geo.conjecture_step(rho, p) * rng.uniform(0.8, 1.0)
            elif policy == "exit_compromise":
                rho_prime = (geo.r_cx * rng.uniform(0.9, 1.0) if finite
                             else rho * rng.uniform(2.0, 2.5))
            ops.append(_mean_op(f"{kind}-{j:02d}", geo,
                                _dataset(geo, o, pts, rho, with_ball),
                                p, policy, 0, t=t, rho_prime=rho_prime))
        ops.extend(_failing_means(geo, rng))
    return ops


def _failing_means(geo, rng):
    """Operations with a documented non-zero exit code."""
    ops = []
    o = geo.random_point(rng)
    if math.isfinite(geo.inj):
        # a data point exactly at the cut locus of the start o: exit 2
        far = geo.unit_tangent(o, rng) if geo.projective else -o
        pts = [far] + [geo.in_ball(o, 0.5 * geo.r_cx, rng) for _ in range(3)]
        ops.append(_mean_op(f"{geo.kind}-cut-locus", geo,
                            _dataset(geo, o, pts, geo.inj, True),
                            2.0, "user_constant", 2, t=0.5))
        # conjecture on a ball wider than r_cx: exit 4
        rho = geo.r_cx * rng.uniform(1.1, 1.6)
        pts = [geo.in_ball(o, rho, rng) for _ in range(4)]
        ops.append(_mean_op(f"{geo.kind}-precondition", geo,
                            _dataset(geo, o, pts, rho, True),
                            2.0, "conjecture", 4))
    else:
        pts = [geo.in_ball(o, 0.5, rng) for _ in range(4)]
        ds = _dataset(geo, o, pts, 0.5, True)
        if geo.hyper:  # constant_curvature needs curvature >= 0: exit 4
            ops.append(_mean_op(f"{geo.kind}-precondition", geo, ds, 2.0,
                                "constant_curvature", 4))
        else:  # exit_compromise is p = 2 only: exit 4
            ops.append(_mean_op(f"{geo.kind}-precondition", geo, ds, 3.0,
                                "exit_compromise", 4, rho_prime=1.0))
    return ops


# (suite, space, trials at scale 1, extra CLI arguments)
_SUITES = (
    ("comparison", "sphere", 2000, []),
    ("comparison", "real_projective", 2000, []),
    ("comparison", "hyperbolic", 100, ["--kappa=-1"]),
    ("tethering", "sphere", 1000, []),
    ("tethering", "so3", 1000, []),
    ("tethering", "circle", 1000, []),
    ("hull", "sphere", 60, []),
    ("hull", "hyperbolic", 50, ["--kappa=-1"]),
    ("hull", "euclidean", 300, []),
)


def certify_suites(rng, scale=1.0):
    """The three Monte Carlo suites on three spaces each, plus the
    exit-time step-size table.  Hyperbolic suites pass kappa = -1 because
    the CLI default kappa = 1 is outside the hyperbolic domain."""
    ops = []
    for suite, space, trials, extra in _SUITES:
        trials = max(2, int(round(trials * scale)))
        seed = int(rng.integers(2 ** 31))
        ops.append({"id": f"{suite}-{space}", "kind": suite,
                    "argv": ["check", suite, "--space", space, *extra,
                             "--trials", str(trials), "--seed", str(seed)],
                    "expect": 0, "trials": trials, "space": space})
    ops.append({"id": "table", "kind": "table",
                "argv": ["stepsize", "--table"], "expect": 0})
    return ops


def make_ops(workload, seed, scale=1.0):
    """The workload's operation list for a seed; same seed, same list.

    The mean workloads draw their problems once from a fixed Philox key,
    then the seed draws a rigid motion of each dataset, a point order
    and, on projective spaces, each point's sign.  Every seed so gets
    different input coordinates and results but problems of the same
    difficulty, which keeps per-operation times comparable across seeds
    (with fresh random shapes the median operation time of small-means
    moved by about 15% from seed to seed).  The certify suites draw their
    trials inside the program from a seed that this seed chooses.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    if workload == "certify-suites":
        return certify_suites(rng, scale)
    base = np.random.Generator(np.random.Philox(key=PROBLEM_KEY))
    if workload == "bulk-mean":
        ops = bulk_mean(base, scale)
    elif workload == "small-means":
        ops = small_means(base, max(len(POLICIES), int(round(32 * scale))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    moved = {}
    for op in ops:
        key = id(op["dataset"])
        if key not in moved:
            moved[key] = _move(Geometry(op["space"]), op["dataset"], rng)
        op["dataset"] = moved[key]
    return ops


def _move(geo, dataset, rng):
    """The dataset under a random isometry, with its points shuffled."""
    iso = geo.random_isometry(rng)
    pts = iso(np.asarray(dataset["points"]))[rng.permutation(
        len(dataset["points"]))]
    out = {"space": dataset["space"], "points": pts.tolist()}
    if "ball" in dataset:
        center = iso(np.asarray([dataset["ball"]["center"]]))[0]
        out["ball"] = {"center": center.tolist(),
                       "radius": dataset["ball"]["radius"]}
    return out


def warmup_ops(workload):
    """One small call of each CLI subcommand the workload uses."""
    if workload != "certify-suites":
        geo = Geometry("sphere")
        o = np.array([0.0, 0.0, 1.0])
        pts = [geo.exp(o, np.array([0.3 * math.cos(a), 0.3 * math.sin(a), 0.0]))
               for a in (0.0, 2.0, 4.0)]
        return [_mean_op("warmup", geo, _dataset(geo, o, pts, 0.3, True),
                         2.0, "conjecture", 0)]
    return [{"id": f"warmup-{s}", "kind": s, "expect": 0, "trials": 2,
             "argv": ["check", s, "--space", "sphere", "--trials", "2"]}
            for s in ("comparison", "tethering", "hull")] + [
        {"id": "warmup-stepsize", "kind": "stepsize", "expect": 0,
         "argv": ["stepsize", "--space", "sphere", "--rho", "0.5",
                  "--rho-prime", "1.0"]}]


def write_inputs(ops, directory, prefix="data"):
    """Write each distinct dataset once and point the mean argv at it."""
    written = {}
    for op in ops:
        if op["kind"] != "mean":
            continue
        key = id(op["dataset"])
        if key not in written:
            path = os.path.join(directory, f"{prefix}-{len(written):04d}.json")
            with open(path, "w") as f:
                json.dump(op["dataset"], f)
            written[key] = path
        op["argv"][1] = written[key]
