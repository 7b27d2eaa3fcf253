"""Out-of-process tracing of the fastfronts layers.

The benchmark never edits the package. A Tracer swaps selected public names
(module functions and DispersalStepper methods) for thin wrappers that record
one span per call, and puts the original objects back when its context ends,
also when the traced call raises. A wrapper passes its arguments and result
through untouched, so a traced run computes bitwise the same trajectory.

A span is [name, start, end, parent]: perf_counter seconds and the index of
the enclosing span in the same list (-1 at the top). Spans stay in memory
until the benchmark writes them out at its end.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, class or None, attribute, span name). Several modules import the
# same function under their own name, so each binding is wrapped where it is
# looked up at call time.
RUN_TARGETS = (
    ("integrator", None, "run", "integrator.run"),
    ("experiment", None, "run", "integrator.run"),
)
LAYER_TARGETS = RUN_TARGETS + (
    ("experiment", None, "run_preset", "experiment.run_preset"),
    ("integrator", "DispersalStepper", "__init__", "dispersal.setup"),
    ("integrator", "DispersalStepper", "step_values", "dispersal.step"),
    ("integrator", None, "logistic_exact_step", "reaction.logistic_exact_step"),
    ("integrator", None, "fast_diffusion_step", "dispersal.fast_diffusion_step"),
    ("integrator", None, "fractional_fast_diffusion_step",
     "dispersal.fractional_fast_diffusion_step"),
    ("integrator", None, "build_symbol", "dispersal.build_symbol"),
    ("dispersal", None, "build_symbol", "dispersal.build_symbol"),
    ("dispersal", None, "solve_banded", "dispersal.solve_banded"),
    ("experiment", None, "save_snapshots", "integrator.save_snapshots"),
    ("experiment", None, "build_report", "diagnostics.build_report"),
    ("experiment", None, "emit_csv", "experiment.emit_csv"),
    ("experiment", None, "emit_chart", "experiment.emit_chart"),
)


class Tracer:
    """Records spans around the calls named by `targets` while installed."""

    def __init__(self, package, targets):
        self.package = package
        self.targets = targets
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []

    def _owner(self, module, cls):
        owner = getattr(self.package, module)
        return owner if cls is None else getattr(owner, cls)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target, yield, then restore the original objects.

        A target whose name the package no longer has is skipped and listed
        in `missing`, so a refactor that drops a name loses that layer's
        numbers instead of the whole run.
        """
        self.spans = []
        self._stack.clear()
        saved = []
        try:
            for module, cls, attr, name in self.targets:
                try:
                    owner = self._owner(module, cls)
                    original = vars(owner)[attr]
                except (AttributeError, KeyError):
                    label = f"{module}.{cls + '.' if cls else ''}{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                        print(f"perfbench: {label} not found; not traced", file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()


def total(spans, name) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def self_times(spans) -> dict:
    """Seconds per span name, each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def layer_metrics(spans, n_nodes: int, newton_max_iter: int) -> dict:
    """Per-layer numbers of one traced workload body, keyed by metric name."""
    count = {}
    for s in spans:
        count[s[0]] = count.get(s[0], 0) + 1
    steps = count.get("dispersal.step", 0)
    run_s = total(spans, "integrator.run")
    step_s = total(spans, "dispersal.step")
    reaction_s = total(spans, "reaction.logistic_exact_step")
    solve_s = total(spans, "dispersal.solve_banded")
    newton_s = total(spans, "dispersal.fast_diffusion_step")
    solves = {i: 0 for i, s in enumerate(spans) if s[0] == "dispersal.fast_diffusion_step"}
    for s in spans:
        if s[0] == "dispersal.solve_banded" and s[3] in solves:
            solves[s[3]] += 1
    own = self_times(spans)
    reaction_calls = count.get("reaction.logistic_exact_step", 0)

    def per(value, base):
        return value / base if base else 0.0

    return {
        "dispersal.step_s": step_s,
        "dispersal.ns_per_node_step": 1e9 * per(step_s, steps * n_nodes),
        "dispersal.setup_s": total(spans, "dispersal.setup"),
        "dispersal.newton_solves_per_step": per(sum(solves.values()), len(solves)),
        "dispersal.newton_solves_max": max(solves.values(), default=0),
        "dispersal.newton_capped_steps": sum(1 for k in solves.values() if k >= newton_max_iter),
        "dispersal.solve_s": solve_s,
        "dispersal.residual_s": newton_s - solve_s,
        "dispersal.symbol_builds": count.get("dispersal.build_symbol", 0),
        "dispersal.symbol_s": total(spans, "dispersal.build_symbol"),
        "reaction.s": reaction_s,
        "reaction.ns_per_node": 1e9 * per(reaction_s, reaction_calls * n_nodes),
        "integrator.steps": steps,
        "integrator.self_s": own.get("integrator.run", 0.0),
        "integrator.ms_per_step": 1e3 * per(run_s, steps),
        "integrator.save_snapshots_s": total(spans, "integrator.save_snapshots"),
        "diagnostics.report_s": total(spans, "diagnostics.build_report"),
        "experiment.emit_csv_s": total(spans, "experiment.emit_csv"),
        "experiment.emit_chart_s": total(spans, "experiment.emit_chart"),
        "experiment.self_s": own.get("experiment.run_preset", 0.0),
        "share.dispersal_step_pct": 100.0 * per(step_s, run_s),
        "share.dispersal_solve_pct": 100.0 * per(solve_s, run_s),
        "share.reaction_pct": 100.0 * per(reaction_s, run_s),
        "share.integrator_self_pct": 100.0 * per(own.get("integrator.run", 0.0), run_s),
    }
