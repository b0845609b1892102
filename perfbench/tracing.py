"""Spans around decprox's public functions, recorded from outside the program.

``install`` replaces module and class attributes with timing wrappers.
The CLI reaches ``netgraph.*``, ``analysis.*``, ``costs.logistic_cost`` and
``engine.run`` through module attributes and ``grad_stack``, ``apply`` and
``apply_stack`` as methods, so every call it makes passes a wrapper.  Each
call records a span [name, start, end, parent index]; spans stay in memory
until ``dump``.
"""

import json
import os
import time

import scipy.optimize

from decprox import analysis, cli, costs, engine, netgraph, prox

MiB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.counts = {"grad_rows": 0, "csv_bytes": 0, "inner_iters": 0,
                       "inner_unconverged": 0, "engine_iters": 0}
        self.operator_bytes = {}  # id -> nbytes of every K x K operator built

    def _wrap(self, fn, name_of, on_result=None):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_of(args), 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def function(self, module, attr, layer, on_result=None):
        name = f"{layer}.{attr}"
        setattr(module, attr,
                self._wrap(getattr(module, attr), lambda args: name, on_result))

    def method(self, cls, attr, layer, on_result=None):
        # Name the span after the receiver's class, so a base-class method
        # is attributed to the operator that ran it.
        setattr(cls, attr, self._wrap(
            cls.__dict__[attr], lambda args: f"{layer}.{type(args[0]).__name__}.{attr}",
            on_result))

    def count(self, key, amount):
        self.counts[key] += amount

    def operator(self, *arrays):
        for a in arrays:
            self.operator_bytes[id(a)] = a.nbytes

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)

    def totals(self):
        """Per span name: (summed duration, calls, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            total, calls, own = out.get(name, (0.0, 0, 0.0))
            out[name] = (total + end - start, calls + 1, own + end - start - covered)
        return out


def install(tracer, full, on_problem=None):
    """Wrap the calls that time an experiment's phases; with ``full``, also
    wrap each layer boundary the CLI crosses, in every module."""
    tracer.function(cli, "build_problem", "cli",
                    on_result=(lambda a, p: on_problem(p)) if on_problem else None)
    tracer.function(cli, "resolve_algorithm", "cli")
    tracer.function(engine, "run", "engine",
                    on_result=lambda a, r: tracer.count("engine_iters", r.final_state.iter))
    if not full:
        return

    def matrix(a, m):
        tracer.operator(m)

    def triple(a, t):
        tracer.operator(t.A_bar, t.B_sq, t.C)

    def csv_size(a, r):
        tracer.count("csv_bytes", os.path.getsize(a[0]))

    def inner(a, res):
        tracer.count("inner_iters", int(res.nit))
        tracer.count("inner_unconverged", int(not res.success))

    tracer.function(netgraph, "build_graph", "netgraph")
    tracer.function(netgraph, "metropolis_matrix", "netgraph", on_result=matrix)
    tracer.function(netgraph, "laplacian_matrix", "netgraph", on_result=matrix)
    tracer.function(netgraph, "shift_positive", "netgraph", on_result=matrix)
    tracer.function(netgraph, "table1_matrices", "netgraph", on_result=triple)
    tracer.function(netgraph, "validate_assumptions", "netgraph")
    tracer.function(costs, "logistic_cost", "costs")
    tracer.method(costs.SmoothCostSet, "grad_stack", "costs",
                  on_result=lambda a, r: tracer.count("grad_rows", r.shape[0]))
    tracer.method(costs.SmoothCostSet, "average_grad", "costs")
    for cls in (prox.ProxOperator, prox.ZeroProx, prox.L1Prox,
                prox.CounterexampleProx, prox.ChainSumProx):
        for attr in ("apply", "apply_stack"):
            if attr in cls.__dict__:
                tracer.method(cls, attr, "prox")
    # ChainSumProx imports minimize from scipy.optimize on every solve.
    tracer.function(scipy.optimize, "minimize", "prox", on_result=inner)
    tracer.function(analysis, "fixed_point_residuals", "analysis")
    tracer.function(analysis, "centralized_reference", "analysis")
    tracer.function(analysis, "classify_decay", "analysis")
    tracer.function(cli, "write_trajectory_csv", "cli", on_result=csv_size)


def per_layer(tracer):
    """The per-layer metrics of one traced experiment, as {name: (value, unit)}."""
    t = tracer.totals()

    def total(name):
        return t.get(name, (0.0, 0, 0.0))[0]

    def calls(name):
        return t.get(name, (0.0, 0, 0.0))[1]

    def prox_sum(attr, field):
        return sum(v[field] for k, v in t.items()
                   if k.startswith("prox.") and k.endswith("." + attr))

    iters = tracer.counts["engine_iters"]
    engine_self = t.get("engine.run", (0.0, 0, 0.0))[2]
    c = tracer.counts
    return {
        "netgraph.build_graph_s": (total("netgraph.build_graph"), "s"),
        "netgraph.validate_assumptions_s": (total("netgraph.validate_assumptions"), "s"),
        "netgraph.validate_assumptions_calls": (calls("netgraph.validate_assumptions"), "count"),
        "netgraph.table1_matrices_s": (total("netgraph.table1_matrices"), "s"),
        "netgraph.operator_mb": (sum(tracer.operator_bytes.values()) / MiB, "MB-computed"),
        "costs.grad_stack_s": (total("costs.SmoothCostSet.grad_stack"), "s"),
        "costs.grad_stack_calls": (calls("costs.SmoothCostSet.grad_stack"), "count"),
        "costs.grad_rows": (c["grad_rows"], "count"),
        "costs.average_grad_s": (total("costs.SmoothCostSet.average_grad"), "s"),
        "costs.average_grad_calls": (calls("costs.SmoothCostSet.average_grad"), "count"),
        "costs.logistic_cost_s": (total("costs.logistic_cost"), "s"),
        "prox.L1Prox.apply_stack_s": (total("prox.L1Prox.apply_stack"), "s"),
        "prox.ChainSumProx.apply_stack_s": (total("prox.ChainSumProx.apply_stack"), "s"),
        "prox.apply_stack_calls": (prox_sum("apply_stack", 1), "count"),
        "prox.apply_s": (prox_sum("apply", 0), "s"),
        "prox.apply_calls": (prox_sum("apply", 1), "count"),
        "prox.inner_iters": (c["inner_iters"], "count"),
        "prox.inner_unconverged": (c["inner_unconverged"], "count"),
        "engine.run_s": (total("engine.run"), "s"),
        "engine.iters": (iters, "iterations"),
        "engine.self_s": (engine_self, "s"),
        "engine.self_us_per_iter": (1e6 * engine_self / iters if iters else 0.0, "us/iter"),
        "analysis.fixed_point_residuals_s": (total("analysis.fixed_point_residuals"), "s"),
        "analysis.fixed_point_residuals_calls": (calls("analysis.fixed_point_residuals"), "count"),
        "analysis.centralized_reference_s": (total("analysis.centralized_reference"), "s"),
        "analysis.classify_decay_s": (total("analysis.classify_decay"), "s"),
        "cli.build_problem_s": (total("cli.build_problem"), "s"),
        "cli.resolve_algorithm_s": (total("cli.resolve_algorithm"), "s"),
        "cli.write_trajectory_csv_s": (total("cli.write_trajectory_csv"), "s"),
        "cli.csv_bytes": (c["csv_bytes"], "bytes"),
    }
