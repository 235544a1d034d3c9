"""Span tracing from outside the package, for the per-layer metrics.

Each traced function is replaced by a timing wrapper in every `relativize`
module that binds it, so calls made through any import site become spans and
nested calls become child spans (build_F -> build_A, solve_with_A ->
partition_code). Spans are (name, start, end, parent) rows kept in flat
arrays and written out when the benchmark ends. Nothing under src/ changes;
every wrapper is removed again by `Patches.undo`.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("formula", "encoding", "machine", "oracles", "analog", "harness")

# module -> public functions timed at that layer's boundary.  Dotted names are
# methods, wrapped on their class.
TRACED = {
    "formula": ("brute_force_sat",),
    "encoding": ("godel_number", "partition_code", "input_code"),
    "machine": ("nd_solve", "solve_with_A", "solve_with_B", "solve_with_C",
                "solve_conp_with_C_bar", "write_results_jsonl", "write_results_csv"),
    "oracles": ("build_A", "build_B", "build_C", "build_C_bar", "build_D", "build_E",
                "build_F", "kappa_ids", "save_oracle", "load_oracle"),
    "analog": ("lambda_report", "set_sum_naive", "build_lambda_oracle",
               "solve_lambda_with_oracle", "render_lambda_table", "write_lambda_csv"),
    "harness": ("run_suite", "gen_corpus", "save_corpus", "load_corpus", "main",
                "SuiteRunner.__init__", "SuiteRunner.write_reports"),
}

SOLVERS = ("nd_solve", "solve_with_A", "solve_with_B", "solve_with_C", "solve_conp_with_C_bar")
KINDS = ("A", "B", "C", "C_bar", "D", "E", "F")

# Functions whose arguments and results feed the counters; kept per call and
# read only after the pass, so counting adds no time inside any span.
COUNTED = {f"machine.{s}" for s in SOLVERS} | {f"oracles.build_{k}" for k in KINDS} | {
    "formula.brute_force_sat", "encoding.godel_number", "machine.write_results_jsonl",
    "oracles.save_oracle",
}


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "relativize" or name.startswith("relativize."))]


class Tracer:
    """Span recorder for one or more traced passes."""

    def __init__(self):
        self.names: list[str] = []
        self.passes: list[dict] = []
        self._stack: list[int] = []
        self._calls: list = []
        self._new_pass_arrays()

    def _new_pass_arrays(self):
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")

    def _wrapper(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        counted = name in COUNTED
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer._start)
            tracer._name.append(idx)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._start[sid] = t0
                tracer._end[sid] = t1
            if counted:
                tracer._calls.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every traced function at each of its binding sites."""
        modules = package_modules()
        for layer, functions in TRACED.items():
            owner_module = sys.modules[f"relativize.{layer}"]
            for qual in functions:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(owner_module, cls_name)
                    patches.set(cls, meth, self._wrapper(name, cls.__dict__[meth]))
                    continue
                original = getattr(owner_module, qual)
                wrapped = self._wrapper(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.set(module, attr, wrapped)

    def start_pass(self) -> None:
        self._new_pass_arrays()
        self._stack.clear()
        self._calls = []

    def end_pass(self, wall: float) -> dict:
        """Aggregate the pass just traced into per-layer numbers and counters."""
        spans = (self._name, self._start, self._end, self._parent)
        stats = aggregate(self.names, spans, self._calls, wall)
        self.passes.append({"wall_s": wall, "spans": spans})
        self._calls = []
        return stats

    def write(self, path) -> None:
        """All spans of all traced passes as one JSON document."""
        doc = {
            "names": self.names,
            "passes": [
                {"wall_s": p["wall_s"],
                 "name": p["spans"][0].tolist(), "start": p["spans"][1].tolist(),
                 "end": p["spans"][2].tolist(), "parent": p["spans"][3].tolist()}
                for p in self.passes
            ],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)


def aggregate(names, spans, calls, wall: float) -> dict:
    """Inclusive and self time, calls, and counters for one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap in a single thread.
    """
    name_idx, start, end, parent = spans
    n = len(name_idx)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    incl = defaultdict(float)
    self_t = defaultdict(float)
    ncalls = Counter()
    ground_truth = 0.0
    for i in range(n):
        name = names[name_idx[i]]
        dur = end[i] - start[i]
        incl[name] += dur
        self_t[name] += dur - child[i]
        ncalls[name] += 1
        p = parent[i]
        if (name == "formula.brute_force_sat" and p >= 0
                and names[name_idx[p]].startswith("harness.")):
            ground_truth += dur

    m: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_t.items():
        layer_self[name.split(".")[0]] += value
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    def times(key, with_self=True, with_calls=True):
        m[f"{key}.s"] = incl[key]
        if with_self:
            m[f"{key}.self_s"] = self_t[key]
        if with_calls:
            m[f"{key}.calls"] = ncalls[key]

    times("formula.brute_force_sat")
    times("encoding.partition_code", with_self=False)
    times("encoding.input_code", with_self=False)
    m["encoding.godel_number.calls"] = ncalls["encoding.godel_number"]
    for s in SOLVERS:
        times(f"machine.{s}")
    times("machine.write_results_jsonl", with_self=False, with_calls=False)
    times("machine.write_results_csv", with_self=False, with_calls=False)
    for k in KINDS:
        times(f"oracles.build_{k}", with_calls=False)
    for key in ("oracles.kappa_ids", "oracles.save_oracle", "oracles.load_oracle",
                "analog.build_lambda_oracle", "harness.gen_corpus", "harness.save_corpus",
                "harness.load_corpus", "harness.main"):
        times(key, with_self=False, with_calls=False)
    times("analog.lambda_report", with_calls=False)
    times("analog.set_sum_naive", with_self=False)
    m["harness.write_reports.s"] = incl["harness.SuiteRunner.write_reports"]
    m["harness.ground_truth.s"] = ground_truth

    counters = count(calls)
    godel_calls = ncalls["encoding.godel_number"]
    m["encoding.godel_number.distinct_ratio"] = (
        counters.pop("distinct_godel") / godel_calls if godel_calls else 0.0)
    queries = counters["machine.queries"]
    m["machine.query_yes_ratio"] = counters.pop("query_yes", 0) / queries if queries else 0.0
    for key in ("formula.assignments_examined", "machine.queries", "machine.steps",
                "machine.simulated_work", "machine.write_results_jsonl.bytes",
                "oracles.save_oracle.bytes"):
        m[key] = counters[key]
    for k in KINDS:
        m[f"oracles.build_{k}.members"] = counters[f"members.{k}"]

    m["trace.wall_s"] = wall
    m["trace.self_share"] = sum(layer_self.values()) / wall if wall else 0.0
    m["trace.spans"] = n
    return {"metrics": m, "counters": dict(counters)}


def count(calls) -> Counter:
    """Behaviour counters taken at the traced boundaries."""
    c = Counter()
    godels = set()
    for name, args, result in calls:
        if name == "formula.brute_force_sat":
            c["formula.assignments_examined"] += result.assignments_examined
        elif name == "encoding.godel_number":
            godels.add(result)
        elif name.startswith("machine.solve") or name == "machine.nd_solve":
            c["machine.queries"] += result.queries
            c["machine.steps"] += result.steps
            c["machine.simulated_work"] += result.simulated_work or 0
            c["query_yes"] += sum(answer for _code, answer in result.transcript)
        elif name == "machine.write_results_jsonl":
            c["machine.write_results_jsonl.bytes"] += os.path.getsize(args[1])
        elif name == "oracles.save_oracle":
            c["oracles.save_oracle.bytes"] += os.path.getsize(args[1])
        elif name == "oracles.build_D":
            c["members.D"] += len(result[0]) + len(result[1])
        else:
            c[f"members.{name[len('oracles.build_'):]}"] += len(result)
    c["distinct_godel"] = len(godels)
    return c
