"""Span tracing of the pipeline from outside the package.

Spans are kept in memory (name, start, end, parent, run id, counters) and
written out when the run ends.  The tracer replaces each binding of a layer
function in every module namespace that the pipeline looks it up from, since
``method`` imports its callees by name; operator methods are patched on the
class, which all namespaces share.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []      # dicts: name, start, end, parent, run, attrs
        self.calls = {}      # binding key -> number of calls
        self.run = "setup"
        self.paused = False
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, counters=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``counters(args, result)`` returns extra attributes for the span.
        Calls made while ``paused`` pass straight through.
        """
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        orig = getattr(owner, attr)
        self.calls.setdefault(key, 0)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.paused:
                return orig(*args, **kwargs)
            self.calls[key] += 1
            with self.span(name, binding=key) as rec:
                out = orig(*args, **kwargs)
                if counters is not None:
                    rec["attrs"].update(counters(args, out))
            return out

        setattr(owner, attr, wrapper)

    def hook(self, name):
        """A ``(fn, x) -> fn(x)`` hook that records a span with x's row count."""
        def run(fn, x):
            if self.paused:
                return fn(x)
            with self.span(name, points=int(len(x))):
                return fn(x)
        return run


def _op_pairs(args, _out):
    m, n = args[0].shape
    return {"pairs": int(m) * int(n)}


def _size(args, out):
    return {"size": int(len(out))}


def _lattice(args, out):
    return {"M": int(out.M), "size": int(len(args[0]))}


def _iters(_args, out):
    return {"iterations": int(out.iterations)}


def install(tracer: Tracer) -> list:
    """Wrap every layer binding the pipeline calls.

    Returns (binding key, predicate) pairs: the predicate takes a Workload
    and says whether the binding must fire on it (otherwise it must not).
    """
    from anovafourier import lattice, method, operator
    op = operator.BlockFourierOperator
    scattered = lambda w: w.kind == "scattered"
    lattice_kind = lambda w: w.kind == "lattice"
    table = [
        (method, "grouped", "index_sets.grouped", _size, lambda w: True),
        (method, "full_grid", "index_sets.full_grid", None,
         lambda w: "full_grid" in w.search_types()),
        (method, "hyperbolic_cross", "index_sets.hyperbolic_cross", None,
         lambda w: "hyperbolic_cross" in w.search_types()),
        (method, "weighted_index_set", "index_sets.weighted", None,
         lambda w: "weighted" in w.search_types()),
        (op, "__init__", "operator.setup", None, scattered),
        (op, "forward", "operator.forward", _op_pairs, scattered),
        (op, "adjoint", "operator.adjoint", _op_pairs, scattered),
        (method, "lsqr", "operator.lsqr", _iters, scattered),
        (method, "lattice_solve", "operator.lattice_solve", None, lattice_kind),
        (method, "cbc_construct", "lattice.cbc", _lattice, lattice_kind),
        (lattice, "is_reconstructing", "lattice.certify", None, lattice_kind),
        # lattice_solve re-certifies only when told the lattice is uncertified
        (operator, "is_reconstructing", "lattice.certify", None, lambda w: False),
        (method, "lattice_nodes", "lattice.nodes", None, lattice_kind),
        (operator, "lattice_reconstruct", "lattice.reconstruct", None, lattice_kind),
        (operator, "lattice_evaluate", "lattice.evaluate", None, lattice_kind),
        (method, "lattice_evaluate", "lattice.evaluate", None, lattice_kind),
        (method, "sensitivity", "anova.sensitivity", None, lambda w: True),
    ]
    expect = []
    for owner, attr, name, counters, pred in table:
        tracer.wrap(owner, attr, name, counters)
        expect.append((f"{getattr(owner, '__name__', owner)}.{attr}", pred))
    return expect


def self_times(spans) -> list:
    """Per span: duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    out = list(own)
    for s, d in zip(spans, own):
        if s["parent"] is not None:
            out[s["parent"]] -= d
    return out


def layer_metrics(spans, run) -> dict:
    """Per-layer numbers of one pipeline run (plus the setup's target work)."""
    selfs = self_times(spans)
    m = {k: 0.0 for k in (
        "operator.forward_s", "operator.adjoint_s", "operator.setup_s",
        "operator.lsqr_s", "operator.lsqr_self_s", "operator.lattice_solve_s",
        "lattice.cbc_s", "lattice.certify_s", "lattice.nodes_s",
        "lattice.reconstruct_s", "lattice.evaluate_s", "target.eval_s",
        "index_sets.build_s", "anova.sensitivity_s", "method.self_s")}
    m.update({k: 0 for k in (
        "operator.forward_calls", "operator.adjoint_calls", "lattice.cbc_calls",
        "operator.lsqr_iters_detect", "operator.lsqr_iters_approximate",
        "lattice.M_pilot", "lattice.M_final", "index_sets.pilot_size",
        "index_sets.final_size", "target.evals")})
    pairs = 0
    for i, s in enumerate(spans):
        if s["run"] not in (run, "setup"):
            continue
        name, dur, a = s["name"], s["end"] - s["start"], s["attrs"]
        stage = _stage(spans, i)
        if name == "target.eval":
            m["target.eval_s"] += dur
            m["target.evals"] += a["points"]
        elif s["run"] != run:
            continue
        elif name in ("operator.forward", "operator.adjoint"):
            kind = name.split(".")[1]
            m[f"operator.{kind}_s"] += dur
            m[f"operator.{kind}_calls"] += 1
            pairs += a["pairs"]
        elif name == "operator.setup":
            m["operator.setup_s"] += dur
        elif name == "operator.lsqr":
            m["operator.lsqr_s"] += dur
            m["operator.lsqr_self_s"] += selfs[i]
            m[f"operator.lsqr_iters_{stage}"] += a["iterations"]
        elif name == "operator.lattice_solve":
            m["operator.lattice_solve_s"] += dur
        elif name == "lattice.cbc":
            m["lattice.cbc_s"] += dur
            m["lattice.cbc_calls"] += 1
            m["lattice.M_pilot" if stage == "detect" else "lattice.M_final"] = a["M"]
        elif name in ("lattice.certify", "lattice.nodes", "lattice.reconstruct",
                      "lattice.evaluate"):
            m[name + "_s"] += dur
        elif name.startswith("index_sets."):
            m["index_sets.build_s"] += dur
            if name == "index_sets.grouped":
                key = "pilot_size" if stage == "detect" else "final_size"
                m[f"index_sets.{key}"] = a["size"]
        elif name == "anova.sensitivity":
            m["anova.sensitivity_s"] += dur
        elif name.startswith("method."):
            m["method.self_s"] += selfs[i]
    busy = m["operator.forward_s"] + m["operator.adjoint_s"]
    m["operator.pair_ns"] = busy / pairs * 1e9 if pairs else 0.0
    M = m["lattice.M_pilot"] + m["lattice.M_final"]
    m["lattice.I_over_M"] = (
        (m["index_sets.pilot_size"] + m["index_sets.final_size"]) / M if M else 0.0)
    return m


def _stage(spans, i):
    """'detect' or 'approximate': the method stage span enclosing span i."""
    while i is not None:
        name = spans[i]["name"]
        if name in ("method.detect", "method.approximate"):
            return name.split(".")[1]
        i = spans[i]["parent"]
    return None


def check(spans, tracer_calls, expect, wl, reports) -> list:
    """Consistency problems of a traced run (empty when consistent).

    ``reports`` maps run id -> {"detect": iterations, "approximate":
    iterations} taken from each stage's SolveReport.
    """
    problems = []
    for key, pred in expect:
        fired, want = tracer_calls.get(key, 0) > 0, pred(wl)
        if fired != want:
            problems.append(f"binding {key} {'fired' if fired else 'silent'} "
                            f"on {wl.name}")
    for i, t in enumerate(self_times(spans)):
        if t < -1e-6:
            problems.append(f"children of span {i} ({spans[i]['name']}) "
                            f"exceed it by {-t:.3g} s")
    for i, s in enumerate(spans):
        if s["name"] != "operator.lsqr":
            continue
        kids = [j for j, c in enumerate(spans) if c["parent"] == i]
        n_adj = sum(spans[j]["name"] == "operator.adjoint" for j in kids)
        n_fwd = sum(spans[j]["name"] == "operator.forward" for j in kids)
        it = s["attrs"]["iterations"]
        want = reports.get(s["run"], {}).get(_stage(spans, i))
        if it != want:
            problems.append(f"lsqr span reports {it} iterations, "
                            f"SolveReport {want}")
        if n_adj != it + 1 or n_fwd != it + 1:
            problems.append(f"lsqr with {it} iterations made {n_adj} adjoint "
                            f"and {n_fwd} forward calls (expected {it + 1})")
    return problems
