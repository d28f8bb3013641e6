"""Command line front end: solve, analyze, sweep, simulate, export-lp.

Configuration comes from built-in defaults, overridden by an optional JSON
config file, overridden by explicit flags. Every command writes files that
are byte-identical across repeated runs of the same inputs. A sweep solves
its points as two warm-started chains, the second in a forked child when a
second CPU may run it; its files are the same whether or not one does.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
from pathlib import Path

from .dynamics import ACTION_PRIORITY, Belief, ChannelParams, Discount, EconParams, ParameterError
from .lpmodel import build_all_kernels, export_lp
from .policy import (
    analyze_structure,
    diagonal_structure,
    edge_thresholds,
    extract_policy,
    export_policy_csv,
    export_policy_ppm,
    region_map,
    report_has_violations,
    save_structure_report,
)
from .simulate import BASELINES, SimConfig, _cpus, run_episodes, save_summary, write_traces_csv
from .solver import (
    BeliefGrid,
    NonConvergence,
    SolverConfig,
    ValueFileError,
    load_value_field,
    save_value_field,
    solve,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_VIOLATIONS = 4
EXIT_IO = 5

DEFAULTS = {
    "lambda0": 0.1,
    "lambda1": 0.9,
    "beta": 0.9,
    "rh": 3.0,
    "rl": 2.0,
    "ch": 1.2,
    "cl": 0.8,
    "grid": 101,
    "tol": 1e-6,
    "max_iter": 5000,
    "seed": 0,
    "episodes": 10000,
    "horizon": 200,
    "out": ".",
}

# The model's parameters; a value file carries its own.
MODEL_KEYS = ("lambda0", "lambda1", "beta", "rh", "rl", "ch", "cl")

SWEEP_PARAMS = MODEL_KEYS + ("rh_over_rl", "ch_over_cl")


def _add_param_flags(sp):
    for name in ("lambda0", "lambda1", "beta", "rh", "rl", "ch", "cl", "tol"):
        sp.add_argument(f"--{name}", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument(
        "--max-iter", dest="max_iter", type=int, default=None,
        help="cap on policy improvements before the solve fails with exit 3",
    )
    sp.add_argument("--config", type=str, default=None, help="JSON config file; flags win")
    sp.add_argument(
        "--out", type=str, default=None, help="output directory; default the config's out, else ."
    )


def _coerce(key, value):
    """A config-file value as the type of its default, or ParameterError."""
    kind = type(DEFAULTS[key])
    if kind is str:
        ok, out = isinstance(value, str), value
    else:
        try:
            out = kind(value)
            ok = not isinstance(value, bool) and (kind is float or out == float(value))
        except (TypeError, ValueError, OverflowError):
            ok = False
    if not ok:
        raise ParameterError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")
    return out


def _merge_config(args):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({k: _coerce(k, v) for k, v in loaded.items()})
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _params(cfg):
    ch = ChannelParams(cfg["lambda0"], cfg["lambda1"])
    econ = EconParams(cfg["rh"], cfg["rl"], cfg["ch"], cfg["cl"])
    discount = Discount(cfg["beta"])
    return ch, econ, discount


def _outdir(path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args):
    cfg = _merge_config(args)
    ch, econ, discount = _params(cfg)
    grid = BeliefGrid(int(cfg["grid"]))
    result = solve(SolverConfig(discount, cfg["tol"], int(cfg["max_iter"])), ch, econ, grid)
    out = _outdir(cfg["out"])
    save_value_field(out / "value.json", result, ch, econ, discount)
    policy = extract_policy(result.field, ch, econ, discount)
    diag = diagonal_structure(result.field, policy, ch, econ, discount)
    report = {
        "converged": True,
        "method": "policy-iteration",
        "iterations": result.iterations,
        "evaluation_steps": result.evaluation_steps,
        "residual": result.residual,
        "bound": result.bound,
        "tol": cfg["tol"],
        "grid": grid.n,
        "params": {k: cfg[k] for k in MODEL_KEYS},
        "diagonal": {"kind": diag.kind, "rho1": diag.rho1, "rho2": diag.rho2},
    }
    with open(out / "solve_report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(
        f"converged in {result.iterations} policy improvements, "
        f"residual {result.residual:.3e}, bound {result.bound:.3e}; "
        f"diagonal: {diag.kind}"
    )
    return EXIT_OK


def cmd_analyze(args):
    result, ch, econ, discount = load_value_field(args.value_file)
    out = _outdir(args.out)
    policy = extract_policy(result.field, ch, econ, discount, args.tie_tol)
    export_policy_csv(policy, out / "policy.csv")
    export_policy_ppm(policy, out / "policy.ppm")
    report = analyze_structure(result.field, policy, ch, econ, discount)
    save_structure_report(report, out / "structure.json")
    for name, ok in report.flags.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(
        f"diagonal: {report.diagonal.kind} "
        f"(rho1={report.diagonal.rho1}, rho2={report.diagonal.rho2}); "
        f"edges: th1={report.edges.th1}, th2={report.edges.th2}"
    )
    if report_has_violations(report):
        return EXIT_VIOLATIONS
    return EXIT_OK


def _sweep_values(start, stop, points):
    if points < 2:
        return [start]
    step = (stop - start) / (points - 1)
    return [start + k * step for k in range(points)]


def _sweep_point_config(cfg, param, value):
    point = dict(cfg)
    if param == "rh_over_rl":
        point["rh"] = value * point["rl"]
    elif param == "ch_over_cl":
        point["ch"] = value * point["cl"]
    else:
        point[param] = value
    return point


def _sweep_chain(cfg, param, values, skip):
    """The rows of the sweep points at values, solved in order; skip(message)
    is called for each point that is skipped.

    Neighbouring points have nearly equal fields, so each solve starts from
    the field of the chain's last point that solved; the chain's first
    point, and every point until one solves, starts cold.
    """
    rows = []
    solved = None
    for value in values:
        point = _sweep_point_config(cfg, param, value)
        try:
            ch, econ, discount = _params(point)
            grid = BeliefGrid(int(point["grid"]))
            result = solve(
                SolverConfig(discount, point["tol"], int(point["max_iter"])), ch, econ, grid,
                start=solved,
            )
        except (ParameterError, NonConvergence) as exc:
            skip(f"skipping {param}={value:g}: {exc}")
            continue
        solved = result.field
        policy = extract_policy(result.field, ch, econ, discount)
        areas = region_map(policy)
        diag = diagonal_structure(result.field, policy, ch, econ, discount)
        edges = edge_thresholds(result.field, ch, econ, discount)
        rows.append(
            (value, *(areas[a] for a in ACTION_PRIORITY), diag.kind, diag.rho1, diag.rho2,
             edges.th1, edges.th2)
        )
    return rows


@contextlib.contextmanager
def _forked(job):
    """Run job() in a forked child when one may: os.fork exists, the
    process may run on two CPUs or more, and no other Python thread is
    alive (a fork copies only the calling thread).

    Yields a function that returns job()'s result: the child's, sent back
    as one JSON document through a pipe, or, when no child ran or it did not
    exit 0 with a parseable result, job() run in this process, so every
    error surfaces as it would have in process. The child leaves by
    os._exit here, never unwinding into the caller, and is reaped when the
    block is left, killed first if it still runs.
    """
    pid = reader = None
    if hasattr(os, "fork") and _cpus() >= 2 and threading.active_count() == 1:
        fds = ()
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
        else:
            fd, write_fd = fds
            if pid == 0:
                code = 1
                try:
                    os.close(fd)
                    with open(write_fd, "w", encoding="utf-8") as fh:
                        json.dump(job(), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            reader = open(fd, "rb")

    def result():
        nonlocal pid
        if pid is not None:
            data = reader.read()
            _, status = os.waitpid(pid, 0)
            pid = None
            if status == 0:
                with contextlib.suppress(ValueError):
                    return json.loads(data)
        return job()

    try:
        yield result
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if reader is not None:
            reader.close()


def cmd_sweep(args):
    """Solve and analyze each point of one swept parameter into sweep.csv.

    The points are solved as two chains (see _sweep_chain), the first
    ceil(points / 2) of them and the rest, each starting cold; the second
    runs in a forked child when one may (see _forked). A point's row does
    not depend on where its solve starts, and the skip messages are printed
    in point order, so sweep.csv and stderr are the same whether or not a
    child ran.
    """
    cfg = _merge_config(args)
    if args.param not in SWEEP_PARAMS:
        raise ParameterError(f"unknown sweep parameter {args.param!r}; one of {SWEEP_PARAMS}")
    points = args.points
    if points is None:
        points = 8 if args.param.startswith("lambda") else 10
    if points < 1:
        raise ParameterError(f"sweep --points >= 1 violated: {points}")
    # grid, tol and max_iter are never swept, so a bad one would skip every
    # point: check them once, before any output (beta may be swept, so a
    # valid discount stands in). A model parameter's validity can depend on
    # the swept value, so it is checked per point.
    BeliefGrid(int(cfg["grid"]))
    SolverConfig(Discount(0.0), cfg["tol"], int(cfg["max_iter"]))
    out = _outdir(cfg["out"])
    values = _sweep_values(args.start, args.stop, points)
    first, second = values[:(points + 1) // 2], values[(points + 1) // 2:]

    def log(message):
        print(message, file=sys.stderr)

    def job():
        skips = []
        return _sweep_chain(cfg, args.param, second, skips.append), skips

    # A one-point sweep has no second chain, and forks nothing for it.
    with _forked(job) if second else contextlib.nullcontext(job) as result:
        rows = _sweep_chain(cfg, args.param, first, log)
        more, skips = result()
    for message in skips:
        log(message)
    rows += more
    path = out / "sweep.csv"
    with open(path, "w") as fh:
        fh.write(f"# sweep of {args.param}, {args.start:g} to {args.stop:g}, {points} points\n")
        fixed = {
            k: cfg[k]
            for k in MODEL_KEYS + ("grid", "tol")
            if k != args.param
        }
        fh.write("# fixed: " + " ".join(f"{k}={v:g}" for k, v in fixed.items()) + "\n")
        if args.param == "lambda1":
            fh.write(f"# note: lambda0 stays at {cfg['lambda0']:g} for the whole sweep\n")
        fh.write("swept-value,area_Bb,area_B1,area_B2,area_Br,class,rho1,rho2,Th1,Th2\n")
        for row in rows:
            cells = [repr(row[0])] + [repr(c) for c in row[1:5]] + [row[5]]
            cells += ["" if c is None else repr(c) for c in row[6:]]
            fh.write(",".join(cells) + "\n")
    print(f"swept {len(rows)} points -> {path}")
    return EXIT_OK


def cmd_simulate(args):
    if (args.value_file is None) == (args.baseline is None):
        raise ParameterError("exactly one of VALUE_FILE or --baseline is required")
    if args.value_file is not None:
        given = [f"--{k.replace('_', '-')}" for k in MODEL_KEYS + ("grid", "tol", "max_iter")
                 if getattr(args, k) is not None]
        if given:
            raise ParameterError(
                f"{' '.join(given)} cannot be used with VALUE_FILE, whose model and solve are fixed"
            )
    cfg = _merge_config(args)
    value_scale = None
    if args.value_file is not None:
        result, ch, econ, discount = load_value_field(args.value_file)
        policy = extract_policy(result.field, ch, econ, discount)
        value_scale = float(abs(result.field.values).max())
    else:
        ch, econ, discount = _params(cfg)
        policy = args.baseline
    sim_cfg = SimConfig(
        episodes=int(cfg["episodes"]),
        horizon=int(cfg["horizon"]),
        seed=int(cfg["seed"]),
        initial_belief=Belief(args.p1, args.p2),
    )
    out = _outdir(cfg["out"])
    try:
        run = run_episodes(policy, sim_cfg, ch, econ, discount, value_scale,
                           collect_traces=args.dump_traces)
    except MemoryError:
        # the run holds episodes x horizon slots; a value file's grid is read above
        raise ParameterError("out of memory: episodes times horizon is too large") from None
    if args.dump_traces:
        summary, batch = run
        write_traces_csv(batch, out / "traces.csv")
    else:
        summary = run
    save_summary(summary, out / "sim_summary.json")
    print(
        f"{summary.policy}: mean {summary.mean:.6f} (se {summary.se:.6f}), "
        f"truncation bound {summary.truncation_bound:.3e}"
    )
    return EXIT_OK


def cmd_export_lp(args):
    cfg = _merge_config(args)
    ch, econ, discount = _params(cfg)
    grid = BeliefGrid(int(cfg["grid"]))
    kernels = build_all_kernels(grid, ch)
    out = _outdir(cfg["out"])
    export_lp(out / "model.lp", grid, kernels, econ, discount, out / "model_meta.json")
    n_constraints = grid.n * grid.n * 4
    print(f"wrote model.lp ({grid.n * grid.n} variables, {n_constraints} constraints)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gepower",
        description="Solve, analyze, and simulate optimal power allocation "
        "over two good/bad Markov channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run policy iteration, write value.json")
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("analyze", help="policy map, structure report, structural checks")
    sp.add_argument("value_file")
    sp.add_argument("--tie-tol", dest="tie_tol", type=float, default=None)
    sp.add_argument("--out", type=str, default=".")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sweep", help="solve+analyze across one swept parameter")
    _add_param_flags(sp)
    sp.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sp.add_argument("--start", type=float, required=True)
    sp.add_argument("--stop", type=float, required=True)
    sp.add_argument("--points", type=int, default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("simulate", help="Monte Carlo a policy or baseline")
    sp.add_argument("value_file", nargs="?", default=None)
    sp.add_argument("--baseline", choices=BASELINES, default=None)
    _add_param_flags(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--episodes", type=int, default=None)
    sp.add_argument("--horizon", type=int, default=None)
    sp.add_argument("--p1", type=float, default=0.5)
    sp.add_argument("--p2", type=float, default=0.5)
    sp.add_argument("--dump-traces", dest="dump_traces", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("export-lp", help="write the LP model and metadata sidecar")
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_export_lp)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergence as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except json.JSONDecodeError as exc:
        print(
            f"parse error: {exc.msg} at line {exc.lineno}, column {exc.colno}",
            file=sys.stderr,
        )
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"parse error: not UTF-8 text ({exc.reason} at byte {exc.start})", file=sys.stderr)
        return EXIT_IO
    except ValueFileError as exc:
        print(f"bad value file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("invalid configuration: out of memory: the belief grid is too large", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
