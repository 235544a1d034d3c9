#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for relativize.

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The package is imported from that
checkout's `src/`; nothing is installed. One process, no threads. Each
workload repeats its unit of work (one "pass") for about `--seconds`. A
fixed probe loop timed every 50 ms gives the host's speed during each pass,
and the timings are reported at a reference speed (see SpeedProbe and
README.md, Noise). Every pass's outputs are checked: verdicts against an
independent reference, artifacts byte-identical to the first pass, and, for
seeds pinned in golden.json, against the committed hashes and behaviour
counters. With `--trace 1` the passes alternate between untraced and traced,
and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Everything else a run learns (quartiles, counters, digests, machine facts)
goes to .perfbench_work/<workload>/result.json, spans to trace.json there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Patches, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
GOLDEN = HERE / "golden.json"
# Set-up is repeated before the first pass and again between passes, so its
# median spans the same stretch of time as the passes and rides out the
# host's speed drift the same way. Most repeats fall between passes.
SETUP_REPS = 3
SETUP_REPS_BETWEEN = 3

# Verdicts on the complement question: their ground truth is "no accepting input".
COMPLEMENT_LABELS = frozenset({"C_bar", "D_bar", "F[co]"})


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


# ---------------------------------------------------------------- reference

def reference_sat(rz, problem) -> bool:
    """Satisfiability by the per-assignment evaluator, never brute_force_sat.

    Assignments are built here rather than taken from the package's
    enumeration, so a faster ground-truth path can not grade itself.
    """
    k = problem.k
    for e in range(1 << k):
        if rz.evaluate(problem, tuple(bool((e >> j) & 1) for j in range(k))):
            return True
    return False


def grade(label, accepted, ground_truth, correct, truth) -> str | None:
    """Why a verdict record disagrees with the reference, or None."""
    expected = (not truth) if label in COMPLEMENT_LABELS else truth
    if ground_truth is not expected:
        return f"{label}: ground_truth {ground_truth}, reference says {expected}"
    if correct is not (accepted is expected):
        return f"{label}: correct={correct} for verdict {accepted} against truth {expected}"
    return None


def tally(records) -> dict:
    """Behaviour counters of a list of (label, steps, queries, simulated_work, accepted)."""
    c = {"runs": 0, "queries": 0, "steps": 0, "simulated_work": 0, "accepted": 0}
    for label, steps, queries, work, accepted in records:
        c["runs"] += 1
        c["queries"] += queries
        c["steps"] += steps
        c["simulated_work"] += work or 0
        c["accepted"] += accepted
        c[f"runs.{label}"] = c.get(f"runs.{label}", 0) + 1
    return c


@dataclass
class PassReport:
    """What the checks made of one pass's outputs."""

    artifacts: dict[str, bytes] = field(default_factory=dict)
    verdicts: int = 0
    ops: int = 0
    failures: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def op(self, problem: str | None) -> None:
        self.ops += 1
        if problem:
            self.failures.append(problem)


# ---------------------------------------------------------------- workloads

class Suite:
    """run_suite over one ExperimentConfig; the artifacts are its three reports."""

    def __init__(self, k_range, per_k):
        self.k_range = k_range
        self.per_k = per_k

    def setup(self, rz, seed, work):
        config = rz.ExperimentConfig(seed=seed, k_range=self.k_range,
                                     formulas_per_k=self.per_k, out_dir=str(work / "out"))
        corpora = {"main": rz.gen_corpus(config), "D": rz.craft_d_corpus(),
                   "E": rz.craft_e_corpus()}
        return {"config": config, "corpora": corpora}

    def reference(self, rz, inputs):
        return {name: {f.id: reference_sat(rz, f) for f in corpus}
                for name, corpus in inputs["corpora"].items()}

    def run_pass(self, rz, inputs):
        return sys.modules["relativize.harness"].run_suite(inputs["config"])

    def check(self, rz, inputs, ref, status) -> PassReport:
        rep = PassReport()
        rep.op(None if status == 0 else f"run_suite exited {status}")
        out = Path(inputs["config"].out_dir)
        for name in ("runs.csv", "runs.jsonl", "summary.json"):
            rep.artifacts[name] = (out / name).read_bytes()
        records = []
        corpus = "main"
        for line in rep.artifacts["runs.jsonl"].splitlines():
            run = json.loads(line)
            label = run["oracle"]
            # Runs come out in construction order; the ND runs that follow D's
            # runs are over D's crafted corpus, E's runs over E's.
            if label in ("D", "D_bar"):
                corpus = "D"
            elif label == "E":
                corpus = "E"
            elif label != "ND":
                corpus = "main"
            accepted = run["verdict"] == "accept"
            truth = ref[corpus][run["formula_id"]]
            rep.op(grade(label, accepted, run["ground_truth"], run["correct"], truth))
            rep.verdicts += 1
            records.append((label, run["steps"], run["queries"], run["simulated_work"], accepted))
        rep.counters = tally(records)
        return rep


def battery_instances(rz, seed, count, r_min, r_max):
    """Set-sum instances whose sizes cycle through r_min..r_max and which miss
    their target on every odd index.

    gen_instances draws each size and each hit independently, which moves the
    total 2^r work of a 40-instance battery by about 18% (one standard
    deviation) between seeds; fixing the
    mix leaves the seed to choose values and targets only.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        r = r_min + i % (r_max - r_min + 1)
        values = tuple(rng.randint(-20, 20) for _ in range(r))
        target = sum(values) + (rng.randint(1, 10) if i % 2 else 0)
        out.append(rz.SetSumInstance(values, target))
    return out


# The solvers lambda_report calls through its own module namespace.
BATTERY_SOLVERS = ("solve_lambda_with_oracle", "solve_with_A", "solve_with_B", "solve_with_C",
                   "solve_conp_with_C_bar", "nd_solve")


class Battery:
    """lambda_report plus its rendered table and CSV.

    The battery keeps its RunResults to itself, so each pass binds a result
    collector (no clock, one list append per run) over the solvers in the
    analog module's namespace to grade every run.
    """

    def __init__(self, count, r_min, r_max):
        self.count, self.r_min, self.r_max = count, r_min, r_max

    def setup(self, rz, seed, work):
        return {"instances": battery_instances(rz, seed, self.count, self.r_min, self.r_max),
                "csv": work / "battery.csv"}

    def reference(self, rz, inputs):
        return None

    def run_pass(self, rz, inputs):
        analog = sys.modules["relativize.analog"]
        runs = []
        patches = Patches()
        for name in BATTERY_SOLVERS:
            patches.set(analog, name, _collecting(analog.__dict__[name], runs,
                                                  name == "solve_lambda_with_oracle"))
        try:
            report = analog.lambda_report(inputs["instances"])
            table = analog.render_lambda_table(report)
            analog.write_lambda_csv(report, inputs["csv"])
        finally:
            patches.undo()
        return report, table, runs

    def check(self, rz, inputs, ref, out) -> PassReport:
        report, table, runs = out
        rep = PassReport()
        rep.op(None if report.all_demonstrated() else "battery: a question was not demonstrated")
        rep.artifacts["battery.csv"] = inputs["csv"].read_bytes()
        rep.artifacts["table.txt"] = table.encode("utf-8")
        records = []
        for inst, r in runs:
            rep.op(grade(r.oracle, r.accepted, r.ground_truth, r.correct, rz.set_sum_direct(inst)))
            rep.verdicts += 1
            records.append((r.oracle, r.steps, r.queries, r.simulated_work, r.accepted))
        rep.counters = tally(records)
        expected = tuple((i, inst.r, inst.r, 1 << inst.r)
                         for i, inst in enumerate(inputs["instances"]))
        rep.op(None if report.work_table == expected else "battery: work table differs from 2^r")
        rep.counters["naive_work"] = sum(row[3] for row in report.work_table)
        return rep


def _collecting(fn, sink, by_index):
    def collect(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append((args[1] if by_index else args[0].instance, result))
        return result
    return collect


class OracleFiles:
    """The CLI in-process: build-oracle per kind over a corpus file, then solve
    one seed-chosen formula per k against every oracle file."""

    KINDS = ("A", "B", "C", "C_bar", "E", "F")

    def __init__(self, k_range, per_k):
        self.k_range = k_range
        self.per_k = per_k

    def setup(self, rz, seed, work):
        config = rz.ExperimentConfig(seed=seed, k_range=self.k_range, formulas_per_k=self.per_k)
        corpus = rz.gen_corpus(config)
        corpus_path = str(work / "corpus.json")
        rz.save_corpus(corpus, corpus_path)
        rng = random.Random(seed)
        lo, hi = self.k_range
        picks = [rng.choice([f.id for f in corpus if f.k == k]) for k in range(lo, hi + 1)]
        oracles = {kind: str(work / f"oracle_{kind}.json") for kind in self.KINDS}
        argvs = [["build-oracle", "--kind", kind, "--corpus", corpus_path, "--out", path]
                 for kind, path in oracles.items()]
        argvs += [["solve", "--oracle", path, "--formula", str(fid), "--corpus", corpus_path]
                  for path in oracles.values() for fid in picks]
        return {"corpus": corpus, "picks": picks, "oracles": oracles, "argvs": argvs}

    def reference(self, rz, inputs):
        return {fid: reference_sat(rz, inputs["corpus"].by_id(fid)) for fid in inputs["picks"]}

    def run_pass(self, rz, inputs):
        harness = sys.modules["relativize.harness"]
        buf = io.StringIO()
        with redirect_stdout(buf):
            statuses = [harness.main(argv) for argv in inputs["argvs"]]
        return statuses, buf.getvalue()

    def check(self, rz, inputs, ref, out) -> PassReport:
        statuses, stdout = out
        rep = PassReport()
        for argv, status in zip(inputs["argvs"], statuses):
            rep.op(None if status == 0 else f"{' '.join(argv[:3])}: exit {status}")
        for kind, path in inputs["oracles"].items():
            rep.artifacts[f"oracle_{kind}.json"] = Path(path).read_bytes()
        rep.artifacts["stdout.txt"] = stdout.encode("utf-8")
        records = []
        members = {}
        for line in stdout.splitlines():
            if line.startswith("wrote oracle "):
                words = line.split()
                members[f"members.{words[2]}"] = int(words[4])
                continue
            run = json.loads(line)
            accepted = run["verdict"] == "accept"
            rep.op(grade(run["oracle"], accepted, run["ground_truth"], run["correct"],
                         ref[run["formula_id"]]))
            rep.verdicts += 1
            records.append((run["oracle"], run["steps"], run["queries"], run["simulated_work"],
                            accepted))
        rep.counters = {**tally(records), **members}
        return rep


WORKLOADS = {
    "suite-default": Suite((6, 12), 10),
    "suite-large-k": Suite((14, 15), 1),
    "lambda-battery": Battery(40, 8, 14),
    "cli-oracle-files": OracleFiles((6, 10), 10),
}


# ---------------------------------------------------------------- host speed

# A fixed loop of small Python calls, owned by the benchmark so no change to
# the program moves it. It allocates no containers, so it never starts the
# garbage collector. Of the probes tried (an integer loop, strided reads from
# 4 MiB, a mix), its speed followed the passes' most closely. PROBE_REF_S is
# about its time when the 2-vCPU host runs at its fast speed; it only sets
# the scale of wall_s and setup_s.
PROBE_REF_S = 55e-6
PROBE_EVERY_S = 0.05


def _add(a, b):
    return a + b


def probe_work() -> int:
    total = 0
    for i in range(700):
        total = _add(total, i)
    return total


class SpeedProbe:
    """Times probe_work every PROBE_EVERY_S seconds from a SIGALRM handler.

    The host's speed drifts by up to 2x within a pass and between runs (see
    README, Noise); the probes taken during a pass show how fast the host ran
    it, and wall_s scales each pass's wall time by that speed.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        probe_work()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def during(self, t0: float, t1: float) -> float:
        """Mean probe time within [t0, t1]; one probe now if none fell there.

        The mean, like the pass's wall time, adds up fast and slow stretches
        in proportion to their length.
        """
        inside = [t for s, t in zip(self.starts, self.times) if t0 <= s <= t1]
        if not inside:
            self._sample()
            inside = self.times[-1:]
        return statistics.fmean(inside)


# ---------------------------------------------------------------- harness

def fresh_import():
    """Import relativize from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "relativize" or n.startswith("relativize.")]:
        del sys.modules[name]
    rz = importlib.import_module("relativize")
    if not Path(rz.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"relativize imported from {rz.__file__}, not from {SRC}")
    return rz


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def digests(artifacts):
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}


class Book:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, rep: PassReport, tag: str):
        self.attempted += rep.ops
        self.failures += [f"{tag}: {msg}" for msg in rep.failures]

    def compare(self, what: str, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: {got!r} != {want!r}")


def run(workload: str, seed: int, seconds: float, trace: bool, *, workloads=None,
        golden_path: Path = GOLDEN, record: bool = False) -> dict:
    """One benchmark run; returns the result line's object plus a `detail` dict."""
    workloads = WORKLOADS if workloads is None else workloads
    if workload not in workloads:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(workloads)}")
    if not (SRC / "relativize" / "__init__.py").is_file():
        raise BenchError(f"no package to measure at {SRC / 'relativize'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = workloads[workload]
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
               "loadavg_at_start": list(os.getloadavg())}
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    setups = []  # (seconds, mean probe time) per set-up

    def set_up():
        t0 = perf_counter()
        rz = fresh_import()
        inputs = wl.setup(rz, seed, work)
        t1 = perf_counter()
        setups.append((t1 - t0, speed.during(t0, t1)))
        return rz, inputs

    book = Book()
    golden = json.loads(golden_path.read_text(encoding="utf-8")) if golden_path.is_file() else {}
    pinned = golden.get(workload, {}).get(str(seed))
    tracer = Tracer() if trace else None
    first: PassReport | None = None
    first_trace = None
    walls, traced_walls, layer_stats = [], [], []
    probes = []  # the mean probe time during each untraced pass
    with SpeedProbe() as speed:
        for _ in range(SETUP_REPS):
            rz, inputs = set_up()
        ref = wl.reference(rz, inputs)
        start = cycle_start = perf_counter()
        cycles = []  # seconds per pass, with its checks and the set-up before it
        n = 0
        while True:
            traced = trace and n % 2 == 1
            patches = Patches()
            if traced:
                tracer.install(patches)
                tracer.start_pass()
            gc.collect()
            t0 = perf_counter()
            try:
                out = wl.run_pass(rz, inputs)
            except Exception:  # a failing pass is a failed operation, not a crash
                out = None
                traceback.print_exc()
            t1 = perf_counter()
            patches.undo()
            tag = f"pass {n}"
            try:
                rep = wl.check(rz, inputs, ref, out)
            except Exception:  # missing or unreadable outputs
                traceback.print_exc()
                rep = PassReport()
                rep.op("outputs missing or malformed" if out is not None else "the pass raised")
            book.add(rep, tag)
            if traced:
                stats = tracer.end_pass(t1 - t0)
                layer_stats.append(stats["metrics"])
                traced_walls.append(t1 - t0)
                if first_trace is None:
                    first_trace = stats["counters"]
                else:
                    book.compare(f"{tag} traced counters", stats["counters"], first_trace)
            else:
                walls.append(t1 - t0)
                probes.append(speed.during(t0, t1))
            if first is None:
                first = rep
            else:
                want = digests(first.artifacts)
                for name, digest in digests(rep.artifacts).items():
                    book.compare(f"{tag} {name} vs pass 0", digest, want.get(name))
                book.compare(f"{tag} counters vs pass 0", rep.counters, first.counters)
            n += 1
            now = perf_counter()
            cycles.append(now - cycle_start)
            cycle_start = now
            # End at the pass end nearest the budget: go on only if the next pass
            # (a traced pair when tracing) is expected to end less than half its
            # length past it. A run then lasts about `seconds`, passes are never
            # cut short, and a long pass is not dropped for a small overrun.
            if not trace or n % 2 == 0:
                ahead = statistics.median(cycles) * (2 if trace else 1)
                if now - start + ahead / 2 > seconds:
                    break
            for _ in range(SETUP_REPS_BETWEEN):
                rz, inputs = set_up()

    observed = {"files": digests(first.artifacts), "counters": first.counters}
    if first_trace is not None:
        observed["trace_counters"] = first_trace
    if pinned:
        for name, digest in pinned["files"].items():
            book.compare(f"golden {name}", observed["files"].get(name), digest)
        book.compare("golden counters", observed["counters"], pinned["counters"])
        if first_trace is not None and "trace_counters" in pinned:
            book.compare("golden trace counters", first_trace, pinned["trace_counters"])
    if record:
        entry = golden.setdefault(workload, {}).setdefault(str(seed), {})
        entry.update(observed)
        golden_path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")

    # Each pass's wall time at the host's reference speed: scaled by the
    # probes taken during that pass. The raw times, their quartiles and the
    # probe times go to result.json.
    wall = statistics.fmean(w * PROBE_REF_S / p for w, p in zip(walls, probes))
    raw_wall = statistics.fmean(walls)
    values = {
        "wall_s": wall,
        "verdicts_per_s": first.verdicts / wall,
        "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": sum(len(data) for data in first.artifacts.values()),
        "ops_ok_share": 1 - len(book.failures) / book.attempted,
    }
    section = "end_to_end"
    if trace:
        section = "per_layer"
        values = {name: statistics.median(s[name] for s in layer_stats) for name in layer_stats[0]}
        values["trace.wall_s"] = statistics.fmean(traced_walls)
        values["trace.untraced_wall_s"] = raw_wall
        values["trace.overhead_s"] = values["trace.wall_s"] - raw_wall
        tracer.write(work / "trace.json")
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise BenchError(f"BENCHMARK.json names {m['name']!r}, which this run did not measure")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    q1, q2, q3 = quartiles(walls)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine,
        "wall_s": wall,
        "raw_wall_s": {"mean": raw_wall, "q1": q1, "median": q2, "q3": q3,
                       "samples": len(walls), "all": walls},
        "probe_s": probes,
        "traced_wall_s": traced_walls, "setup_s_raw_and_probe": setups,
        "verdicts_per_pass": first.verdicts, "observed": observed,
        "golden_checked": bool(pinned), "failures": book.failures[:50],
        "all_values": values,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return {"correct": not book.failures, "attempted": book.attempted,
            "failed": len(book.failures), "metrics": metrics, "detail": detail}


def main(argv=None, **kwargs) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="pin this seed's digests and counters in golden.json")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     record=args.record, **kwargs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    w = detail["raw_wall_s"]
    print(f"# {detail['workload']} seed={detail['seed']} trace={int(detail['trace'])} "
          f"wall_s={detail['wall_s']:.4f} raw mean={w['mean']:.4f} median={w['median']:.4f} "
          f"q1={w['q1']:.4f} q3={w['q3']:.4f} n={w['samples']} "
          f"probe_us={1e6 * statistics.median(detail['probe_s']):.1f} "
          f"verdicts/pass={detail['verdicts_per_pass']} machine={json.dumps(detail['machine'])}")
    for msg in detail["failures"]:
        print(f"# FAILED {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
