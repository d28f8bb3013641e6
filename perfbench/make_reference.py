"""Regenerate perfbench/reference.json from tight-tolerance solves.

Runs the repository's own CLI at tol 1e-12 for every case and sweep the
workloads use, in both size profiles, and keeps what the checks compare
against: sub-lattice values (the full field for the n=101 base case),
V(0.5, 0.5), the structure report, the sweep rows and the exit codes.

    python3 perfbench/make_reference.py

Takes about a minute. Rerun it only when the model itself changes; a
faster solver must still match the committed file.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from gepower import cli  # noqa: E402
from gepower.dynamics import Belief  # noqa: E402
from gepower.solver import interpolate, load_value_field  # noqa: E402
from workloads import PROFILES, REFERENCE_TOL, cases, read_sweep_csv, sweeps  # noqa: E402

TIGHT_MAX_ITER = 20000


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def case_reference(case, d):
    solve_exit = run(case.solve_argv(d, REFERENCE_TOL, TIGHT_MAX_ITER))
    analyze_exit = run(["analyze", str(d / "value.json"), "--out", str(d)])
    result, _, _, discount = load_value_field(d / "value.json")
    doc = json.loads((d / "value.json").read_text())
    rep = json.loads((d / "structure.json").read_text())
    values = result.field.values[::case.stride, ::case.stride]
    beta = discount.beta
    return {
        "grid": case.grid,
        "stride": case.stride,
        "params": {k: doc[k] for k in ("n", "lambda0", "lambda1", "rh", "rl", "ch", "cl", "beta")},
        "iterations": result.iterations,
        "residual": result.residual,
        # Certified distance of the reference from the exact fixed point.
        "bound": beta / (1.0 - beta) * result.residual,
        "v_center": interpolate(result.field, Belief(0.5, 0.5)),
        "values": values.tolist(),
        "solve_exit": solve_exit,
        "analyze_exit": analyze_exit,
        "structure": {
            "flags": rep["flags"],
            "kind": rep["diagonal"]["kind"],
            "rho1": rep["diagonal"]["rho1"],
            "rho2": rep["diagonal"]["rho2"],
            "th1": rep["edge_thresholds"]["th1"],
            "th2": rep["edge_thresholds"]["th2"],
            "areas": rep["areas"],
        },
    }


def main():
    ref = {"tol": REFERENCE_TOL, "cases": {}, "sweeps": {}, "exits": {}}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="make-reference-", dir=ROOT / ".perfbench"))
    try:
        for profile in PROFILES:
            for case in cases(profile).values():
                if case.key not in ref["cases"]:
                    print(f"case {case.key}", file=sys.stderr)
                    ref["cases"][case.key] = case_reference(case, tmp / case.key)
            for sw in sweeps(profile):
                print(f"sweep {sw.key}", file=sys.stderr)
                d = tmp / sw.key
                code = run(sw.argv(d, REFERENCE_TOL))
                ref["sweeps"][sw.key] = {"exit": code, "rows": read_sweep_csv(d / "sweep.csv")}
        base = cases("smoke")["base"]
        value_file = tmp / base.key / "value.json"
        ref["exits"]["simulate"] = run(["simulate", str(value_file), "--episodes", "10",
                                        "--horizon", "10", "--out", str(tmp / "sim")])
        ref["exits"]["export-lp"] = run(["export-lp", "--grid", str(base.grid),
                                         "--out", str(tmp / "lp")])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {HERE / 'reference.json'}", file=sys.stderr)


if __name__ == "__main__":
    main()
