"""Spans around gepower's public entry points, recorded from outside the
package.

A Tracer replaces each traced function by a wrapper in every gepower
module that binds it (so `gepower.cli.solve` and `gepower.solver.solve` are
the same span), keeps spans in memory as (name, op, parent, start, end)
and restores the originals on uninstall. An entry point that a later
refactor removed is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter


def _file_size(position):
    def count(args, kwargs, result):
        return os.path.getsize(args[position])
    return count


def _lattice_points(args, kwargs, result):
    return args[0].grid.n ** 2


def _kernel_nnz(args, kwargs, result):
    return sum(k.cols.size for k in result.values())


def _slots(args, kwargs, result):
    return args[1].episodes * args[1].horizon


def _policy_label(args, kwargs):
    return args[0] if isinstance(args[0], str) else "grid-policy"


# (module, attribute, span name, counter, label). A counter maps a call to a
# number summed under the span name; a label splits one function's spans by
# an argument.
TARGETS = [
    ("gepower.cli", "cmd_solve", "cli.cmd.solve", None, None),
    ("gepower.cli", "cmd_analyze", "cli.cmd.analyze", None, None),
    ("gepower.cli", "cmd_sweep", "cli.cmd.sweep", None, None),
    ("gepower.cli", "cmd_simulate", "cli.cmd.simulate", None, None),
    ("gepower.cli", "cmd_export_lp", "cli.cmd.export_lp", None, None),
    ("gepower.solver", "solve", "solver.solve", None, None),
    ("gepower.solver", "bellman_backup", "solver.bellman_backup", _lattice_points, None),
    ("gepower.solver", "save_value_field", "solver.save_value_field", _file_size(0), None),
    ("gepower.solver", "load_value_field", "solver.load_value_field", None, None),
    ("gepower.policy", "extract_policy", "policy.extract_policy", None, None),
    ("gepower.policy", "analyze_structure", "policy.analyze_structure", None, None),
    ("gepower.policy", "edge_thresholds", "policy.edge_thresholds", None, None),
    ("gepower.policy", "diagonal_structure", "policy.diagonal_structure", None, None),
    ("gepower.policy", "check_contiguity", "policy.check_contiguity", None, None),
    ("gepower.policy", "check_connectivity", "policy.check_connectivity", None, None),
    ("gepower.policy", "q_balanced", "policy.q_probe", None, None),
    ("gepower.policy", "q_bet1", "policy.q_probe", None, None),
    ("gepower.policy", "q_bet2", "policy.q_probe", None, None),
    ("gepower.policy", "q_conservative", "policy.q_probe", None, None),
    ("gepower.policy", "export_policy_csv", "policy.export_policy_csv", _file_size(1), None),
    ("gepower.policy", "export_policy_ppm", "policy.export_policy_ppm", None, None),
    ("gepower.lpmodel", "build_all_kernels", "lpmodel.build_all_kernels", _kernel_nnz, None),
    ("gepower.lpmodel", "export_lp", "lpmodel.export_lp", _file_size(0), None),
    ("gepower.simulate", "run_episodes", "simulate.run_episodes", _slots, _policy_label),
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, op, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self.missing = []
        self.op = None
        self._stack = []
        self._patched = []

    def install(self):
        """Wrap every target; counts and missing names start afresh."""
        self.counts.clear()
        self.missing = []
        wrapped = {}
        for module, attr, name, counter, label in TARGETS:
            try:
                orig = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            if id(orig) not in wrapped:
                wrapped[id(orig)] = (orig, self._wrap(orig, name, counter, label))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gepower" or mod_name.startswith("gepower.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._patched.append((mod, key, value))

    def uninstall(self):
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched = []

    def _wrap(self, fn, name, counter, label):
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else f"{name}.{label(args, kwargs)}"
            rec = [span, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counts[span] += counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.missing.append(f"counter of {span}")
            return result

        return traced

    def totals(self, first=0):
        """Per span name: calls, inclusive seconds and self seconds, over
        the spans recorded from index `first` on."""
        child = defaultdict(float)
        for name, _, parent, start, end in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, _, _, start, end) in enumerate(self.spans[first:], first):
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[k]
        return out
