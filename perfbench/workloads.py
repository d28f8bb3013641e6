"""The benchmark's workloads: the CLI calls each one makes, and the checks
that the files those calls write must pass against the committed reference.

Every workload uses lambda = (0.1, 0.9) and tol 1e-6. Econ A is
(rh, rl, ch, cl) = (3, 2, 1.2, 0.8); econ B raises rh to 3.7. Sizes come
from a profile: "full" is what the benchmark measures, "smoke" is a small
copy of every workload for the self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAMBDA = ("0.1", "0.9")
ECON = {"A": ("3", "2", "1.2", "0.8"), "B": ("3.7", "2", "1.2", "0.8")}
RUN_TOL = 1e-6
REFERENCE_TOL = 1e-12

PROFILES = {
    "full": {"sweep": 101, "points": (8, 10, 10), "patient": 201, "fine": 401,
             "verify": 101, "episodes": 10000, "horizon": 200},
    "smoke": {"sweep": 21, "points": (3, 3, 3), "patient": 21, "fine": 41,
              "verify": 21, "episodes": 1000, "horizon": 100},
}
SWEEP_RANGES = (("lambda0", 0.1, 0.8), ("rh_over_rl", 1.05, 1.95), ("ch_over_cl", 1.05, 1.95))
BASELINES = ("myopic", "always-balanced", "always-conservative", "random-uniform")

# Slack for float rounding when a solved field is held against its bound.
VALUE_SLACK = 1e-9
# A threshold is a bisection root (xtol 1e-10) of a Q difference of the
# solved field, so it moves with the field error, which tol 1e-6 bounds by
# beta/(1-beta)*tol <= 1e-4 here. At the seed the error is below 1e-10: value
# iteration's error is nearly uniform and cancels in Q differences.
THRESHOLD_TOL = 1e-4
# The reference roots are known to their bisection tolerance only, so every
# reported threshold error carries it as a floor.
THRESHOLD_FLOOR = 1e-10
# Region areas are tie-aware counts over n^2 points; allow two lattice points
# whose tie set differs from the reference's.
AREA_POINTS = 2
# The LP model's constraints hold at the reference fixed point up to its
# residual (<= 1e-12) plus 17-digit coefficient rounding.
LP_TOL = 1e-9


def param_argv(econ, beta, grid, tol):
    rh, rl, ch, cl = ECON[econ]
    return ["--lambda0", LAMBDA[0], "--lambda1", LAMBDA[1], "--rh", rh, "--rl", rl,
            "--ch", ch, "--cl", cl, "--beta", beta, "--grid", str(grid), "--tol", repr(tol)]


@dataclass(frozen=True)
class Case:
    """One solved parameter set and the lattice stride its reference keeps."""

    econ: str
    beta: str
    grid: int
    full_field: bool = False

    @property
    def key(self):
        return f"{self.econ}-beta{self.beta}-n{self.grid}"

    @property
    def stride(self):
        return 1 if self.full_field else max(1, (self.grid - 1) // 20)

    def solve_argv(self, out, tol=RUN_TOL, max_iter=5000):
        return ["solve", *param_argv(self.econ, self.beta, self.grid, tol),
                "--max-iter", str(max_iter), "--out", str(out)]


@dataclass(frozen=True)
class Sweep:
    param: str
    start: float
    stop: float
    points: int
    grid: int

    @property
    def key(self):
        return f"{self.param}-n{self.grid}-p{self.points}"

    def argv(self, out, tol=RUN_TOL):
        return ["sweep", *param_argv("A", "0.9", self.grid, tol), "--param", self.param,
                "--start", repr(self.start), "--stop", repr(self.stop),
                "--points", str(self.points), "--out", str(out)]


def cases(profile):
    p = PROFILES[profile]
    return {
        "base": Case("A", "0.9", p["verify"], full_field=True),
        "patient-A": Case("A", "0.99", p["patient"]),
        "patient-B": Case("B", "0.99", p["patient"]),
        "fine-A": Case("A", "0.9", p["fine"]),
    }


def sweeps(profile):
    p = PROFILES[profile]
    return [Sweep(name, lo, hi, k, p["sweep"])
            for (name, lo, hi), k in zip(SWEEP_RANGES, p["points"])]


@dataclass
class Outcome:
    """What the checks found in one op's files."""

    problems: list = field(default_factory=list)
    value_err: float | None = None
    threshold_err: float | None = None

    def fail(self, msg):
        self.problems.append(msg)

    def add_value_err(self, err):
        self.value_err = err if self.value_err is None else max(self.value_err, err)

    def threshold(self, name, got, want):
        if want is None or got is None:
            if got is not want:
                self.fail(f"{name}: got {got!r}, reference {want!r}")
            return
        err = abs(got - want)
        if not err <= THRESHOLD_TOL:
            self.fail(f"{name}: {got!r} is {err:.3e} from reference {want!r}")
        err += THRESHOLD_FLOOR
        self.threshold_err = err if self.threshold_err is None else max(self.threshold_err, err)


@dataclass
class Op:
    """One cli.main call, where it writes, and how its result is judged.

    `expect` is the path in the reference to the exit code the seed gives
    for this call; `check(ref)` runs after the whole pass.
    """

    label: str
    argv: list
    out: Path
    expect: tuple
    check: object


def _read_json(path, out):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        out.fail(f"{path}: {exc}")
        return None


def check_value_file(ref, out_dir, out):
    doc = _read_json(out_dir / "value.json", out)
    if doc is None:
        return
    n = ref["grid"]
    for key, want in ref["params"].items():
        if doc.get(key) != want:
            out.fail(f"value.json {key}={doc.get(key)!r}, expected {want!r}")
    try:
        values = np.asarray(doc["values"], dtype=np.float64).reshape(n, n)
    except (KeyError, TypeError, ValueError) as exc:
        out.fail(f"value.json values: {exc}")
        return
    s = ref["stride"]
    err = float(np.max(np.abs(values[::s, ::s] - np.asarray(ref["values"]))))
    beta = ref["params"]["beta"]
    allowed = beta / (1.0 - beta) * RUN_TOL + ref["bound"] + VALUE_SLACK
    if not err <= allowed:
        out.fail(f"value.json is {err:.3e} from the reference fixed point (allowed {allowed:.3e})")
    # The reference is itself within `bound` of the exact fixed point, so
    # this sum bounds the distance of the written field from it.
    out.add_value_err(err + ref["bound"])


def check_solve(ref, out_dir):
    out = Outcome()
    check_value_file(ref, out_dir, out)
    report = _read_json(out_dir / "solve_report.json", out)
    if report is not None:
        if report.get("converged") is not True or report.get("grid") != ref["grid"]:
            out.fail("solve_report.json: not converged or wrong grid")
        diag = report.get("diagonal", {})
        if diag.get("kind") != ref["structure"]["kind"]:
            out.fail(f"diagonal kind {diag.get('kind')!r}, reference {ref['structure']['kind']!r}")
        out.threshold("rho1", diag.get("rho1"), ref["structure"]["rho1"])
        out.threshold("rho2", diag.get("rho2"), ref["structure"]["rho2"])
    return out


def check_areas(out, what, got, want, n):
    tol = AREA_POINTS / (n * n)
    for name, w in want.items():
        g = got.get(name)
        if g is None or not abs(g - w) <= tol:
            out.fail(f"{what} area {name}: {g!r}, reference {w!r}")


def check_analyze(ref, out_dir):
    out = Outcome()
    want = ref["structure"]
    rep = _read_json(out_dir / "structure.json", out)
    if rep is not None:
        if rep.get("flags") != want["flags"]:
            out.fail(f"structure flags {rep.get('flags')}, reference {want['flags']}")
        if rep.get("diagonal", {}).get("kind") != want["kind"]:
            out.fail(f"diagonal kind {rep.get('diagonal', {}).get('kind')!r}")
        edges = rep.get("edge_thresholds", {})
        out.threshold("th1", edges.get("th1"), want["th1"])
        out.threshold("th2", edges.get("th2"), want["th2"])
        out.threshold("rho1", rep.get("diagonal", {}).get("rho1"), want["rho1"])
        out.threshold("rho2", rep.get("diagonal", {}).get("rho2"), want["rho2"])
        check_areas(out, "structure", rep.get("areas", {}), want["areas"], ref["grid"])
    n = ref["grid"]
    try:
        with open(out_dir / "policy.csv") as fh:
            rows = sum(1 for line in fh if line[:1].isdigit())
        if rows != n * n:
            out.fail(f"policy.csv has {rows} rows, expected {n * n}")
        with open(out_dir / "policy.ppm") as fh:
            head = [line.strip() for line in fh if not line.startswith("#")][:2]
        if head != ["P3", f"{n} {n}"]:
            out.fail(f"policy.ppm header {head}")
    except OSError as exc:
        out.fail(str(exc))
    return out


def read_sweep_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("swept-value"):
                continue
            c = line.rstrip("\n").split(",")
            opt = [None if x == "" else float(x) for x in c[6:10]]
            rows.append({
                "value": float(c[0]),
                "areas": dict(zip(("balanced", "bet1", "bet2", "conservative"),
                                  map(float, c[1:5]))),
                "class": c[5],
                "rho1": opt[0], "rho2": opt[1], "th1": opt[2], "th2": opt[3],
            })
    return rows


def check_sweep(ref, grid, out_dir):
    out = Outcome()
    try:
        rows = read_sweep_csv(out_dir / "sweep.csv")
    except (OSError, ValueError, IndexError) as exc:
        out.fail(f"sweep.csv: {exc}")
        return out
    if len(rows) != len(ref):
        out.fail(f"sweep.csv has {len(rows)} rows, reference {len(ref)}")
        return out
    for k, (got, want) in enumerate(zip(rows, ref)):
        if abs(got["value"] - want["value"]) > 1e-12 or got["class"] != want["class"]:
            out.fail(f"row {k}: value {got['value']!r} class {got['class']!r}, "
                     f"reference {want['value']!r} {want['class']!r}")
        check_areas(out, f"row {k}", got["areas"], want["areas"], grid)
        for name in ("rho1", "rho2", "th1", "th2"):
            out.threshold(f"row {k} {name}", got[name], want[name])
    return out


def check_simulate(ref, sim_dirs, label, seed, profile):
    """Summary sanity for every run; the grid policy's run also carries the
    Monte Carlo cross-check against V(0.5, 0.5) and the baselines."""
    out = Outcome()
    p = PROFILES[profile]
    docs = {}
    for name, d in sim_dirs.items():
        docs[name] = _read_json(d / "sim_summary.json", out)
    doc = docs[label]
    if doc is None:
        return out
    if (doc.get("policy"), doc.get("episodes"), doc.get("horizon"), doc.get("seed")) != (
            label, p["episodes"], p["horizon"], seed):
        out.fail(f"sim_summary.json header {doc.get('policy')} {doc.get('episodes')} "
                 f"{doc.get('horizon')} {doc.get('seed')}")
        return out
    if label != "grid-policy":
        return out
    v = ref["v_center"]
    mean, se = doc["mean"], doc["se"]
    if not abs(mean - v) <= 3.0 * se + 0.02 * abs(v):
        out.fail(f"policy mean {mean:.6f} (se {se:.6f}) is off V(0.5, 0.5) = {v:.6f}")
    for name in BASELINES:
        base = docs.get(name)
        if base is None:
            continue
        if mean < base["mean"] - 3.0 * (se + base["se"]):
            out.fail(f"policy mean {mean:.6f} is below baseline {name} {base['mean']:.6f}")
    return out


def check_lp(ref, out_dir):
    """Stream the LP file: 4 n^2 constraints, none violated by the reference field."""
    out = Outcome()
    n = ref["grid"]
    v = np.asarray(ref["values"], dtype=np.float64).ravel()
    if v.size != n * n:
        out.fail("reference for the LP check must be the full field")
        return out
    constraints = 0
    free = 0
    worst = -np.inf
    section = None
    lhs = 0.0
    try:
        with open(out_dir / "model.lp") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("\\"):
                    continue
                if line in ("Minimize", "Subject To", "Bounds", "End"):
                    section = line
                    continue
                if section == "Subject To":
                    if line.endswith(":"):
                        lhs = 0.0
                    elif line.startswith(">="):
                        worst = max(worst, float(line[2:]) - lhs)
                        constraints += 1
                    else:
                        tok = line.split()
                        for coef, name in zip(tok[0::2], tok[1::2]):
                            _, i, j = name.split("_")
                            lhs += float(coef) * v[int(i) * n + int(j)]
                elif section == "Bounds" and line.endswith(" free"):
                    free += 1
    except (OSError, ValueError, IndexError) as exc:
        out.fail(f"model.lp: {exc}")
        return out
    if constraints != 4 * n * n or free != n * n:
        out.fail(f"model.lp has {constraints} constraints and {free} free bounds, "
                 f"expected {4 * n * n} and {n * n}")
    if not worst <= LP_TOL:
        out.fail(f"reference field violates model.lp by {worst:.3e} (allowed {LP_TOL:g})")
    meta = _read_json(out_dir / "model_meta.json", out)
    if meta is not None and meta.get("n") != n:
        out.fail(f"model_meta.json n={meta.get('n')!r}")
    return out


def plan(name, profile, seed, work):
    """Set-up ops (run once, writing under `work`) and a function that gives
    one pass's ops, writing under the pass's own directory."""
    cs = cases(profile)
    p = PROFILES[profile]

    def solve_op(case, d):
        return Op(f"solve {case.key}", case.solve_argv(d), d, ("cases", case.key, "solve_exit"),
                  lambda ref: check_solve(ref["cases"][case.key], d))

    def analyze_op(case, d):
        return Op(f"analyze {case.key}", ["analyze", str(d / "value.json"), "--out", str(d)], d,
                  ("cases", case.key, "analyze_exit"),
                  lambda ref: check_analyze(ref["cases"][case.key], d))

    if name == "sweep-fig":
        def ops(d):
            out = [solve_op(cs["base"], d / "base")]
            for sw in sweeps(profile):
                out.append(Op(f"sweep {sw.param}", sw.argv(d / sw.param), d / sw.param,
                              ("sweeps", sw.key, "exit"),
                              lambda ref, sw=sw: check_sweep(ref["sweeps"][sw.key]["rows"],
                                                             sw.grid, d / sw.param)))
            return out
        return [], ops

    if name in ("solve-patient", "solve-fine"):
        keys = ("patient-A", "patient-B") if name == "solve-patient" else ("fine-A",)
        return [], lambda d: [op for k in keys
                              for op in (solve_op(cs[k], d / k), analyze_op(cs[k], d / k))]

    if name == "verify":
        base = cs["base"]
        value_file = work / "setup" / "value.json"
        sim_flags = ["--seed", str(seed), "--episodes", str(p["episodes"]),
                     "--horizon", str(p["horizon"])]
        econ_flags = param_argv("A", "0.9", base.grid, RUN_TOL)

        def ops(d):
            dirs = {"grid-policy": d / "grid-policy", **{b: d / b for b in BASELINES}}
            out = [Op("simulate grid-policy",
                      ["simulate", str(value_file), *sim_flags, "--out", str(dirs["grid-policy"])],
                      dirs["grid-policy"], ("exits", "simulate"),
                      lambda ref: check_simulate(ref["cases"][base.key], dirs, "grid-policy",
                                                 seed, profile))]
            for b in BASELINES:
                out.append(Op(f"simulate {b}",
                              ["simulate", "--baseline", b, *econ_flags, *sim_flags,
                               "--out", str(dirs[b])],
                              dirs[b], ("exits", "simulate"),
                              lambda ref, b=b: check_simulate(ref["cases"][base.key], dirs, b,
                                                              seed, profile)))
            out.append(Op("export-lp", ["export-lp", *econ_flags, "--out", str(d / "lp")],
                          d / "lp", ("exits", "export-lp"),
                          lambda ref: check_lp(ref["cases"][base.key], d / "lp")))
            return out
        return [solve_op(base, work / "setup")], ops

    raise KeyError(name)


def perturb(op):
    """Spoil the main output of one op so that its check must fail; the
    self-test uses this to show that a wrong answer counts in ops_failed."""
    command = op.argv[0]
    if command == "solve":
        path = op.out / "value.json"
        doc = json.loads(path.read_text())
        doc["values"][0] += 0.01
        path.write_text(json.dumps(doc))
    elif command == "analyze":
        path = op.out / "structure.json"
        doc = json.loads(path.read_text())
        doc["flags"]["symmetry_ok"] = not doc["flags"]["symmetry_ok"]
        path.write_text(json.dumps(doc))
    elif command == "sweep":
        path = op.out / "sweep.csv"
        lines = path.read_text().splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        cells = lines[k].split(",")
        cells[5] = "other"
        lines[k] = ",".join(cells)
        path.write_text("".join(lines))
    elif command == "simulate":
        path = op.out / "sim_summary.json"
        doc = json.loads(path.read_text())
        doc["seed"] += 1
        path.write_text(json.dumps(doc))
    elif command == "export-lp":
        path = op.out / "model.lp"
        head, tail = path.read_text().split("\n >= ", 1)
        path.write_text(head + "\n >= +1000\n" + tail.split("\n", 1)[1])
    else:
        raise KeyError(command)
