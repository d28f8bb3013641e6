"""gepower benchmark.

Runs one workload by calling gepower.cli.main(argv) in this process, checks
every file the calls wrote against perfbench/reference.json, and prints the
metrics. Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload sweep-fig --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --self-test         # smoke sizes and negative checks

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones. With --trace 1 the run alternates untraced and traced
passes and reports the per-layer ones. Scratch files go under .perfbench/
at the root of the checkout and are removed at exit; each run leaves its
record there, with the environment, and a traced run also its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"
WORKLOADS = ("sweep-fig", "solve-patient", "solve-fine", "verify")
SETUP_PROBES = 3
CHILD_TIMEOUT = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SIM_LABELS = ("grid-policy", "myopic", "always-balanced", "always-conservative",
              "random-uniform")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "value_err": "bits",
    "threshold_err": "prob",
}

PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.cmd.{c}_ms": "ms" for c in ("solve", "analyze", "sweep", "simulate", "export_lp")},
    "solver.solve_ms": "ms",
    "solver.sweeps": "count",
    "solver.bellman_backup_ms": "ms",
    "solver.sweep_ms": "ms",
    "solver.lattice_updates_per_s": "1/s",
    "solver.solve_overhead_ms": "ms",
    "solver.save_value_field_ms": "ms",
    "solver.load_value_field_ms": "ms",
    "solver.value_json_bytes": "B",
    "policy.analyze_structure_ms": "ms",
    "policy.edge_thresholds_ms": "ms",
    "policy.diagonal_structure_ms": "ms",
    "policy.check_contiguity_ms": "ms",
    "policy.check_connectivity_ms": "ms",
    "policy.q_probe_calls": "count",
    "policy.extract_policy_ms": "ms",
    "policy.extract_policy_calls": "count",
    "policy.export_policy_csv_ms": "ms",
    "policy.export_policy_ppm_ms": "ms",
    "policy.csv_bytes": "B",
    "lpmodel.build_all_kernels_ms": "ms",
    "lpmodel.kernel_nnz": "count",
    "lpmodel.export_lp_ms": "ms",
    "lpmodel.lp_bytes": "B",
    **{f"simulate.run_episodes.{label}_ms": "ms" for label in SIM_LABELS},
    "simulate.slots_per_s": "1/s",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
}


# Machine-speed calibration. On a shared VM the speed of the same code
# drifts by 15-30% over tens of seconds, and a 25-second run sees only one
# part of that drift. A fixed numpy kernel (150 four-way maxima over a
# 101x101 array, the shape of work the solver does) is timed three times
# before every pass and after every op. wall_s is the median pass time scaled by
# CAL_NOMINAL_S over the run's median kernel time: seconds at the speed at
# which the kernel takes CAL_NOMINAL_S, its median where the benchmark was
# tuned. The raw pass times stay in the record. See README.md, "Noise".
CAL_NOMINAL_S = 0.0080


class Calibrator:
    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.add.outer(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 0.5, 101))
        self.samples = []

    def sample(self):
        np, a = self._np, self._a
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(150):
                # Keep each result alive until the next one is made, as
                # solver code does; freeing it at once changes the kernel's
                # allocation pattern and its speed.
                kept = np.maximum.reduce([a * 1.1, a + 0.5, a[::-1] * 0.9, a.T])
            self.samples.append(perf_counter() - t0)
        return kept


class BenchError(RuntimeError):
    """The benchmark cannot measure here; no result is printed."""


def quiet_main(cli, argv):
    """One op: cli.main(argv) with its printing captured.

    Returns (exit code or None, text of a failure or "").
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            return cli.main(argv), ""
    except (Exception, SystemExit):  # an op that raises is a failed op, not a crash
        return None, buf.getvalue() + traceback.format_exc()


def layer_metrics(tot, counts):
    """Per-layer numbers of one traced pass from its span totals."""
    def ms(name, self_time=False):
        return 1000.0 * tot[name][2 if self_time else 1] if name in tot else 0.0

    def calls(name):
        return tot[name][0] if name in tot else 0

    m = {f"cli.cmd.{c}_ms": ms(f"cli.cmd.{c}")
         for c in ("solve", "analyze", "sweep", "simulate", "export_lp")}
    solve_ms = ms("solver.solve")
    sweeps = calls("solver.bellman_backup")
    m.update({
        "solver.solve_ms": solve_ms,
        "solver.sweeps": sweeps,
        "solver.bellman_backup_ms": ms("solver.bellman_backup", self_time=True),
        "solver.sweep_ms": solve_ms / sweeps if sweeps else 0.0,
        "solver.lattice_updates_per_s":
            counts["solver.bellman_backup"] / (solve_ms / 1000.0) if solve_ms else 0.0,
        "solver.solve_overhead_ms": ms("solver.solve", self_time=True),
        "solver.save_value_field_ms": ms("solver.save_value_field"),
        "solver.load_value_field_ms": ms("solver.load_value_field"),
        "solver.value_json_bytes": counts["solver.save_value_field"],
        "policy.q_probe_calls": calls("policy.q_probe"),
        "policy.extract_policy_calls": calls("policy.extract_policy"),
        "policy.csv_bytes": counts["policy.export_policy_csv"],
        "lpmodel.kernel_nnz": counts["lpmodel.build_all_kernels"],
        "lpmodel.lp_bytes": counts["lpmodel.export_lp"],
    })
    for name in ("analyze_structure", "edge_thresholds", "diagonal_structure",
                 "check_contiguity", "check_connectivity", "extract_policy",
                 "export_policy_csv", "export_policy_ppm"):
        m[f"policy.{name}_ms"] = ms(f"policy.{name}")
    for name in ("build_all_kernels", "export_lp"):
        m[f"lpmodel.{name}_ms"] = ms(f"lpmodel.{name}")
    sim_s = 0.0
    slots = 0
    for label in SIM_LABELS:
        m[f"simulate.run_episodes.{label}_ms"] = ms(f"simulate.run_episodes.{label}")
        sim_s += m[f"simulate.run_episodes.{label}_ms"] / 1000.0
        slots += counts[f"simulate.run_episodes.{label}"]
    m["simulate.slots_per_s"] = slots / sim_s if sim_s else 0.0
    return m


class Ledger:
    """Ops attempted and failed, the worst accuracy figures, and why ops failed."""

    def __init__(self, ref):
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.value_err = None
        self.threshold_err = None
        self.problems = []

    def expected_exit(self, op):
        got = self.ref
        for key in op.expect:
            got = got[key]
        return got

    def judge(self, ops, results):
        for op, (_, code, crash) in zip(ops, results):
            self.attempted += 1
            found = []
            if crash:
                found.append(f"raised:\n{crash}")
            else:
                if code != self.expected_exit(op):
                    found.append(f"exit {code}, expected {self.expected_exit(op)}")
                try:
                    outcome = op.check(self.ref)
                except Exception:  # a check that cannot read the output fails the op
                    found.append(f"check raised:\n{traceback.format_exc()}")
                else:
                    found += outcome.problems
                    for name in ("value_err", "threshold_err"):
                        v = getattr(outcome, name)
                        if v is not None:
                            cur = getattr(self, name)
                            setattr(self, name, v if cur is None else max(cur, v))
            if found:
                self.failed += 1
                self.problems.append({"op": op.label, "problems": found})


def run_ops(cli, ops, tracer=None, pass_no=0, calibrator=None):
    """Run one pass; per op (seconds, exit code, crash text). A calibrator
    is sampled before the first op and after every op, outside their times."""
    results = []
    if calibrator:
        calibrator.sample()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = [pass_no, k]
        t0 = perf_counter()
        code, crash = quiet_main(cli, op.argv)
        results.append((perf_counter() - t0, code, crash))
        if calibrator:
            calibrator.sample()
    return results


def probe_setup(args, work):
    """Set up the workload in a fresh interpreter; return its timings."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
           "--profile", args.profile, "--seed", str(args.seed), "--work", str(work),
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def probe_main(args):
    # Runs in the fresh interpreter. The parent passed its clock reading
    # from just before the spawn: time.monotonic() is one system-wide
    # clock, so the difference covers interpreter start-up too.
    t0 = perf_counter()
    from gepower import cli
    import_s = perf_counter() - t0
    import workloads

    setup_ops, _ = workloads.plan(args.workload, args.profile, args.seed, Path(args.work))
    codes = [quiet_main(cli, op.argv)[0] for op in setup_ops]
    setup_s = time.monotonic() - args.t0
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, "codes": codes}))
    return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_identity():
    """The git commit when the checkout is a repository, and a digest of
    src/ either way, so records of non-git checkouts can be told apart."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return commit, digest.hexdigest()


def environment(args):
    import numpy
    import scipy

    commit, src_sha = source_identity()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
        "src_sha256": src_sha,
        "workload": args.workload,
        "profile": args.profile,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args):
    import workloads
    from tracing import Tracer

    RUNS.mkdir(exist_ok=True)
    # Every pass keeps its files until the run ends. Deleting a pass's
    # ~14 MB between passes made the next pass's file writes up to twice as
    # slow on the ext4 volume the benchmark was tuned on.
    work = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=RUNS))
    try:
        probes = [probe_setup(args, work / f"probe{k}") for k in range(SETUP_PROBES)]
        from gepower import cli

        ref = json.loads((HERE / "reference.json").read_text())
        ledger = Ledger(ref)
        setup_ops, pass_ops = workloads.plan(args.workload, args.profile, args.seed, work)
        want = [ledger.expected_exit(op) for op in setup_ops]
        for p in probes:
            if p["codes"] != want:
                raise BenchError(f"set-up exit codes {p['codes']}, expected {want}")
        results = run_ops(cli, setup_ops)
        if args.perturb:
            for op in setup_ops:
                workloads.perturb(op)
        ledger.judge(setup_ops, results)

        tracer = Tracer() if args.trace else None
        calibrator = None if args.trace else Calibrator()
        walls = {False: [], True: []}
        layers = []
        passes = []
        start = perf_counter()
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            d = work / f"pass{k}"
            ops = pass_ops(d)
            if traced:
                first = len(tracer.spans)
                tracer.install()
            try:
                results = run_ops(cli, ops, tracer if traced else None, k, calibrator)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(sum(r[0] for r in results))
            if traced:
                layers.append(layer_metrics(tracer.totals(first), tracer.counts))
            if args.perturb:
                for op in ops:
                    workloads.perturb(op)
            ledger.judge(ops, results)
            passes.append({"traced": traced, "wall_s": walls[traced][-1],
                           "ops": {op.label: r[0] for op, r in zip(ops, results)}})
            k += 1
            # Stop when one more pass of average length would overrun the
            # budget; a traced run needs one untraced and one traced pass.
            elapsed = perf_counter() - start
            if elapsed + elapsed / k > args.seconds and (not args.trace or k >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.missing_spans"] = len(set(tracer.missing))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": statistics.median(walls[False]) * CAL_NOMINAL_S
                      / statistics.median(calibrator.samples),
            "peak_rss_mb": peak_rss_mb,
            "value_err": ledger.value_err,
            "threshold_err": ledger.threshold_err,
        }
        units = END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if metrics.get(name) is not None},
    }
    env = environment(args)
    stem = f"{args.workload}-{args.profile}-seed{args.seed}"
    record = {"env": env, "result": result, "setup_probes": probes, "passes": passes,
              "calibration_s": calibrator.samples if calibrator else None,
              "failures": ledger.problems}
    if args.trace:
        record["missing_spans"] = sorted(set(tracer.missing))
        (RUNS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "op", "parent", "start", "end"], "spans": tracer.spans}))
    (RUNS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in ledger.problems[:20]:
        print(f"FAILED {failure['op']}: " + "; ".join(failure["problems"])[:2000],
              file=sys.stderr)
    if args.trace and tracer.missing:
        print("missing spans: " + ", ".join(sorted(set(tracer.missing))), file=sys.stderr)
    n_passes = len(walls[False]) + len(walls[True])
    print(f"workload {args.workload} ({args.profile}), seed {args.seed}: {n_passes} passes "
          f"({len(walls[True])} traced), setup medians over {SETUP_PROBES} fresh interpreters")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if calibrator:
        print(f"  (wall_s is calibrated: raw median pass {statistics.median(walls[False]):.6g} s, "
              f"median kernel {statistics.median(calibrator.samples) * 1e3:.4g} ms "
              f"against {CAL_NOMINAL_S * 1e3:g} ms nominal)")
    print(f"  ops_attempted = {ledger.attempted}, ops_failed = {ledger.failed}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_child(args, workload, extra=(), cwd=None, script=None):
    """Run the benchmark for one workload in a fresh interpreter; return
    (exit code, stdout, parsed last line or None)."""
    cmd = [sys.executable, str(script or HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--profile", args.profile, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=cwd)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc.returncode, proc.stdout, last


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, out, last = run_child(args, w)
        if code != 0 or last is None:
            raise BenchError(f"workload {w} exited {code}")
        sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged))
    return 0


def self_test(args):
    """Smoke-size runs of every workload, traced and untraced; a run with
    every op's output perturbed, which must fail every op; and a run in a
    directory without the program, which must fail without a result."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            bad.append(what)

    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end_to_end metrics")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer metrics")
    smoke = argparse.Namespace(seed=args.seed, seconds=0, profile="smoke", trace=0)
    before = sorted(RUNS.glob("run-*")) if RUNS.exists() else []
    for w in WORKLOADS:
        for trace in (0, 1):
            smoke.trace = trace
            code, _, last = run_child(smoke, w)
            want = END_TO_END if trace == 0 else PER_LAYER
            expect(code == 0 and last is not None and last["correct"] and last["failed"] == 0
                   and set(last["metrics"]) == set(want),
                   f"{w} smoke --trace {trace}: every op passes, every metric reported")
        smoke.trace = 0
        code, _, last = run_child(smoke, w, ["--perturb"])
        expect(code == 0 and last is not None and not last["correct"]
               and last["failed"] == last["attempted"] > 0,
               f"{w} smoke with perturbed outputs: every op counted in ops_failed")
    after = sorted(RUNS.glob("run-*")) if RUNS.exists() else []
    expect(after == before, "no scratch directory left behind")

    RUNS.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=RUNS))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        code, out, last = run_child(smoke, WORKLOADS[0], cwd=bare,
                                    script=bare / HERE.name / "run.py")
        expect(code != 0 and last is None, "without src/gepower: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"self-test: {'FAILED ' + str(len(bad)) if bad else 'all passed'}")
    return 1 if bad else 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0, help="Monte Carlo seed of verify")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure passes until this much time has gone (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "smoke"), default="full")
    ap.add_argument("--self-test", action="store_true")
    # Internal: a set-up probe in a fresh interpreter, and the self-test's
    # negative check.
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fixed_layout():
    """Re-execute this process with address-space randomisation off and a
    fixed hash seed.

    Where numpy's arrays land relative to each other decides cache-set
    conflicts, so with randomisation on the same solve runs up to 20%
    faster or slower in one process than in the next, for the whole life
    of the process. Both settings are inherited by the set-up probes and
    reach nothing outside this process tree. Does nothing where the
    personality call is unavailable.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        current = libc.personality(0xFFFFFFFF)
        if current == -1 or current & addr_no_randomize:
            return
        if libc.personality(current | addr_no_randomize) == -1:
            return
    except (OSError, AttributeError):
        return
    os.environ["PYTHONHASHSEED"] = "0"
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gepower" / "cli.py").is_file():
        print(f"no gepower sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.probe:
        fixed_layout()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        if args.probe:
            return probe_main(args)
        if args.self_test:
            return self_test(args)
        if args.workload == "all":
            return run_all(args)
        return measure(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
