"""pslift benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload ff-heavy --seed 1 --seconds 45 --trace 0

Run from the repository root; pslift is imported from ./src. Everything runs
in this one process and thread, as a closed loop: each solve starts when the
previous one has ended. The solve matrix of the workload (see workloads.py)
is run pass after pass, each pass in an order drawn from --seed, until
--seconds have passed; the first pass always completes. Later untraced passes
solve cheap cells several times. Reported times are scaled by the speed of a
fixed reference loop timed during the run (reference_work).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (spans around each module's public functions, see spans.py).
Every metric is printed as "<name> <value> <unit>"; the last line of standard
output is one JSON object for machines. The exit code is 1 if a plan is
invalid or the run is otherwise incorrect, 2 if pslift cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up is repeated at least SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 50
# An untraced pass repeats a cheap cell until its solves in the pass add up to
# about MIN_CELL_SECONDS (at most MAX_REPEATS times), so that the cells in the
# middle of the time distribution, which set solve_s.p50, get many samples.
MIN_CELL_SECONDS = 0.75
MAX_REPEATS = 20
# Reported times are scaled to a machine that runs reference_work() in
# REFERENCE_S seconds (NOTES.md, "Steadiness"). The loop is timed
# REFERENCE_CALLS times before every set-up and every solve; set-up times are
# scaled by the loop's median time during set-up, solve times by its median
# time during the solves.
REFERENCE_S = 0.004
REFERENCE_CALLS = 3
HASH_SEED = "0"
REPLAY_NODES_PER_CELL = 2
REPLAY_REPEATS = 3
INF = float("inf")

# (name, unit); the end-to-end ones are reported by --trace 0, the per-layer
# ones by --trace 1, in this order. BENCHMARK.json lists the same names.
END_TO_END = (
    ("wall_s", "s"), ("solve_s.p50", "s"), ("evals_per_s", "1/s"),
    ("coverage", "ratio"), ("plan_length", "steps"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("pddl.load_s", "s"), ("pddl.load_calls", "count"),
    ("lifted.children_s", "s"), ("lifted.children_calls", "count"),
    ("lifted.instantiations_s", "s"), ("lifted.instantiations_calls", "count"),
    ("lifted.actions", "count"),
    ("relaxation.h_s", "s"), ("relaxation.h_calls", "count"),
    ("relaxation.action_set_size", "actions"), ("relaxation.dead_ends", "ratio"),
    ("relaxation.fixpoint_s_per_call", "s"), ("relaxation.extract_s_per_call", "s"),
    ("graphs.build_s", "s"), ("graphs.calls", "count"),
    ("graphs.vertices", "vertices"), ("graphs.edges", "edges"),
    ("wl.refine_s", "s"), ("wl.calls", "count"), ("wl.dict_size", "colours"),
    ("wl.known_ratio", "ratio"),
    ("ranking.dataset_s", "s"), ("ranking.tuples", "count"),
    ("ranking.informative_ratio", "ratio"),
    ("ranking.lp_s", "s"), ("ranking.lp_calls", "count"), ("ranking.lp_rows", "rows"),
    ("ranking.lp_cols", "cols"), ("ranking.lp_nnz", "count"),
    ("ranking.dot_s", "s"), ("ranking.dot_calls", "count"),
    ("ranking.train_self_s", "s"),
    ("search.self_s", "s"), ("search.expansions", "count"),
    ("search.evaluations", "count"), ("search.generated", "count"),
    ("search.branching_factor", "ratio"), ("search.evals_per_step", "ratio"),
    ("trace.overhead", "ratio"),
)
# span name -> layer it belongs to, for the self-time shares
LAYER_OF = {
    "pddl.load": "pddl", "lifted.children": "lifted", "lifted.instantiations": "lifted",
    "relaxation.h": "relaxation", "graphs.build": "graphs", "wl.refine": "wl",
    "ranking.dataset": "ranking", "ranking.lp": "ranking", "ranking.dot": "ranking",
    "ranking.train": "ranking", "search": "search",
}


@dataclass
class Solve:
    """What is kept of one solve: plain values only, so that no task or
    search state outlives its solve and slows the next one's GC."""

    cell: str
    seconds: float       # wall clock
    status: str          # solved, unsolvable, exhausted:<reason> or error
    plan: str = ""
    plan_length: int = 0
    expansions: int = 0
    evaluations: int = 0
    generated: int = 0
    problem: str = ""    # why the output is wrong, if it is
    pass_no: int = 0
    traced: bool = False

    def key(self) -> str:
        return (f"{self.cell}|{self.status}|{self.plan}|{self.expansions}|"
                f"{self.evaluations}|{self.generated}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emit(name: str, value, unit: str, note: str = "") -> None:
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
    print(f"{name} {shown} {unit}{'  # ' + note if note else ''}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy is imported
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "pslift")):
        print(f"no pslift sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import pslift  # noqa: F401
    except ImportError as exc:
        print(f"cannot import pslift from {src}: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return Run(workloads.WORKLOADS[args.workload], args).execute()


class Run:
    def __init__(self, workload, args):
        import spans
        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.tracer = spans.Tracer() if self.traced else None
        self.problems: list[str] = []   # anything that makes the run incorrect
        self.reference_times: list[float] = []

    # -- phases -------------------------------------------------------------

    def execute(self) -> int:
        import workloads
        from pslift import load_task

        load = self.tracer.wrap("pddl.load", load_task) if self.traced else load_task
        setup_times = []
        while not setup_times or not self.traced and len(setup_times) < SETUP_MAX_REPEATS and (
                len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS):
            self.time_reference()
            t0 = perf_counter()
            prepared = workloads.setup(self.workload, load)
            setup_times.append(perf_counter() - t0)

        self.setup_references, self.reference_times = self.reference_times, []
        if self.traced:
            self.tracer.install()
        models, reports, train_times = self.train(prepared)
        if self.traced:
            self.tracer.uninstall()

        self.cells = workloads.cells(self.workload, prepared, models)
        self.node_log: dict[str, tuple] = {}   # cell id -> (task, heuristic, nodes)
        solves, passes = self.measure()
        self.check(solves)
        digest = self.digest(solves, prepared, models)

        print(f"# workload {self.workload.name}, seed {self.seed}, "
              f"{len(self.cells)} cells, {passes} passes begun, {len(solves)} solves")
        first = self.first_solves(solves)
        counts = Counter(s.cell for s in solves)
        raw_time = self.cell_times(solves)
        for s in (first[c.cell_id] for c in self.cells):
            print(f"# cell {s.cell} {s.status} plan={s.plan_length} exp={s.expansions} "
                  f"evals={s.evaluations} gen={s.generated} "
                  f"raw_s={raw_time[s.cell]:.4f} solves={counts[s.cell]}")
        emit("digest", digest, "sha256", self.baseline_note(digest))
        failed = sum(1 for s in solves if self.failed(s))
        emit("failed", failed / len(solves), "ratio", f"{failed} of {len(solves)} solves")
        for kind in reports:
            emit(f"train_s.{kind}", train_times[kind], "s")
            emit(f"val_loss.{kind}", reports[kind].validation_loss, "loss",
                 f"chosen C {reports[kind].chosen_c}")
        if reports:
            emit("train_s", sum(train_times.values()), "s")

        if self.traced:
            metrics = self.layer_metrics(solves, models)
            table = PER_LAYER
            path = os.path.join(HERE, "out", f"spans-{self.workload.name}-seed{self.seed}.csv")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            self.tracer.write(path)
            print(f"# {len(self.tracer)} spans written to {os.path.relpath(path, ROOT)}")
        else:
            metrics = self.end_to_end(solves, setup_times)
            table = END_TO_END
        for name, unit in table:
            emit(name, metrics.get(name), unit)
        for p in self.problems:
            print(f"INCORRECT: {p}")

        result = {
            "correct": not self.problems,
            "attempted": len(solves),
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name) or 0.0, "unit": unit}
                        for name, unit in table},
        }
        print(json.dumps(result))
        return 0 if not self.problems else 1

    def time_reference(self) -> None:
        for _ in range(REFERENCE_CALLS):
            t0 = perf_counter()
            reference_work()
            self.reference_times.append(perf_counter() - t0)

    def train(self, prepared):
        import workloads
        from pslift import train_model

        models, reports, times = {}, {}, {}
        if not prepared.corpus:
            return models, reports, times
        train = self.tracer.wrap("ranking.train", train_model) if self.traced else train_model
        for kind in self.workload.heuristics:
            if self.traced:
                self.tracer.solve = f"train-{kind}"
            t0 = perf_counter()
            models[kind], reports[kind] = train(prepared.corpus, workloads.train_config(kind))
            times[kind] = perf_counter() - t0
        return models, reports, times

    def measure(self):
        """Closed loop over the solve matrix until the time is up; returns
        the solves and the number of passes begun. An untraced run stops
        after any solve once the first pass is complete. A traced run
        alternates untraced and traced passes and stops only between passes,
        after at least one of each."""
        solves: list[Solve] = []
        start = perf_counter()
        p = 0
        while not (self.traced and p >= 2 and perf_counter() - start >= self.seconds):
            order = [k for k, cell in enumerate(self.cells)
                     for _ in range(self.repeats(cell.cell_id, solves))]
            random.Random(f"{self.workload.name}|{self.seed}|{p}").shuffle(order)
            traced = self.traced and p % 2 == 1
            if traced:
                self.tracer.install()
            try:
                for k in order:
                    if not self.traced and p >= 1 and perf_counter() - start >= self.seconds:
                        return solves, p + 1
                    solves.append(self.solve(self.cells[k], p, traced))
            finally:
                if traced:
                    self.tracer.uninstall()
            p += 1
        return solves, p

    def repeats(self, cell_id: str, solves) -> int:
        """Solves of the cell in the next pass: one in a traced run, where
        counts are per pass, and in the first pass."""
        times = [s.seconds for s in solves if s.cell == cell_id]
        if self.traced or not times:
            return 1
        return max(1, min(MAX_REPEATS, round(MIN_CELL_SECONDS / statistics.median(times))))

    def solve(self, cell, pass_no: int, traced: bool) -> Solve:
        from pslift import Limits, gbfs_partial, gbfs_state
        from pslift.bench import validate_plan

        task, heuristic = cell.fresh()
        gc.collect()  # every solve starts from the same heap
        search = gbfs_partial if cell.space == "partial" else gbfs_state
        if traced:
            self.tracer.solve = f"{cell.cell_id}@{pass_no}"
            search = self.tracer.wrap("search", search)
            if cell.kind == "ff":
                heuristic = self.traced_ff(cell, task, heuristic, pass_no)
        limits = Limits(max_expansions=self.workload.max_expansions)
        self.time_reference()
        t0 = perf_counter()
        try:
            result = search(task, heuristic, limits)
        except Exception as exc:  # noqa: BLE001 - a raising solve is counted as failed
            return Solve(cell.cell_id, perf_counter() - t0, "error",
                         problem=f"raised {exc!r}", pass_no=pass_no, traced=traced)
        seconds = perf_counter() - t0
        status = result.status + (f":{result.reason}" if result.reason else "")
        plan = result.plan or []
        problem = ""
        if result.solved:
            check = validate_plan(task, plan)
            if not check.valid:
                problem = f"invalid plan at step {check.step}: {check.reason}"
        elif result.status == "unsolvable":
            problem = "reported unsolvable; every generated instance is solvable"
        st = result.stats
        return Solve(cell.cell_id, seconds, status, " ".join(repr(a) for a in plan),
                     len(plan), st.expansions, st.evaluations, st.generated, problem,
                     pass_no, traced)

    def traced_ff(self, cell, task, heuristic, pass_no: int):
        """The FF heuristic in a relaxation.h span; the first traced pass also
        logs every evaluated node with its h, for the replay."""
        inner = self.tracer.wrap("relaxation.h", heuristic)
        log = None
        if pass_no == 1:
            log = []
            self.node_log[cell.cell_id] = (task, heuristic, log)
        if cell.space == "partial":
            def h(state, rho):
                value = inner(state, rho)
                if log is not None:
                    log.append((state, rho, value))
                return value
        else:
            def h(state):
                value = inner(state)
                if log is not None:
                    log.append((state, None, value))
                return value
        return h

    # -- output checks ------------------------------------------------------

    def check(self, solves) -> None:
        """Collect wrong outputs (each plan was validated after its solve,
        outside the timed region) and require every repeat of a cell to
        behave exactly like its first solve."""
        first = self.first_solves(solves)
        for s in solves:
            if s.problem:
                self.problems.append(f"{s.cell}: {s.problem}")
            if s.key() != first[s.cell].key():
                self.problems.append(f"{s.cell}: differs from its first solve")

    @staticmethod
    def failed(s: Solve) -> bool:
        """Raised, returned a wrong answer, or hit the per-solve limit."""
        return s.status != "solved" or bool(s.problem)

    @staticmethod
    def first_solves(solves) -> dict:
        first = {}
        for s in solves:
            first.setdefault(s.cell, s)
        return first

    def digest(self, solves, prepared, models) -> str:
        h = hashlib.sha256()
        first = self.first_solves(solves)
        for cell in self.cells:
            h.update((first[cell.cell_id].key() + "\n").encode())
        for name, _, plan in prepared.corpus:
            h.update(f"corpus|{name}|{' '.join(repr(a) for a in plan)}\n".encode())
        for kind, model in models.items():
            items = "\n".join(f"{k}\t{i}" for k, i in sorted(model.dictionary.items()))
            h.update(f"model|{kind}|{model.weights.tobytes().hex()}|{items}\n".encode())
        return h.hexdigest()

    def baseline_note(self, digest: str) -> str:
        path = os.path.join(HERE, "baseline.json")
        try:
            with open(path, encoding="utf-8") as f:
                expected = json.load(f)["digests"].get(self.workload.name)
        except (OSError, KeyError, ValueError):
            return "no recorded digest"
        if expected is None:
            return "no recorded digest"
        return "same as the seed commit" if expected == digest else "differs from the seed commit"

    # -- metrics ------------------------------------------------------------

    def cell_times(self, solves) -> dict:
        times = defaultdict(list)
        for s in solves:
            times[s.cell].append(s.seconds)
        return {c: statistics.median(v) for c, v in times.items()}

    def end_to_end(self, solves, setup_times) -> dict:
        first = self.first_solves(solves)
        reference = statistics.median(self.reference_times)
        scale = REFERENCE_S / reference
        setup_reference = statistics.median(self.setup_references)
        raw_time = self.cell_times(solves)
        cell_time = {c: t * scale for c, t in raw_time.items()}
        wall = sum(cell_time.values())
        solved = [s for s in first.values() if s.status == "solved"]

        emit("reference_s", reference, "s", f"median of {len(self.reference_times)} "
             f"reference loops during the solves; solve times are scaled by {scale:.4f}")
        emit("reference_s.setup", setup_reference, "s",
             f"median of {len(self.setup_references)} reference loops during set-up")
        emit("raw.wall_s", sum(raw_time.values()), "s", "unscaled")
        emit("raw.solve_s.p50", statistics.median(raw_time.values()), "s", "unscaled")
        emit("raw.setup_s", statistics.median(setup_times), "s", "unscaled")
        pooled = sorted(s.seconds * scale for s in solves)
        n = len(pooled)
        if n > 10:
            emit("solve_s.tail", pooled[n - 11], "s",
                 f"p{100 * (n - 10) / n:.0f} of {n} solves, 10 beyond it")
        else:
            emit("solve_s.tail", None, "s", f"only {n} solves")
        return {
            "wall_s": wall,
            "solve_s.p50": statistics.median(cell_time.values()),
            "evals_per_s": sum(s.evaluations for s in first.values()) / wall,
            "coverage": len(solved) / len(first),
            "plan_length": sum(s.plan_length for s in solved),
            "setup_s": statistics.median(setup_times) * REFERENCE_S / setup_reference,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def layer_metrics(self, solves, models) -> dict:
        tr = self.tracer
        traced = [s for s in solves if s.traced]
        n_passes = len({s.pass_no for s in traced})
        solve_ids = {f"{s.cell}@{s.pass_no}" for s in traced}

        def weight(solve_id: str) -> float:
            return 1.0 / n_passes if solve_id in solve_ids else 1.0

        def per_pass(totals) -> dict:
            """(in a solve?, name) -> integer total, as values per pass; every
            traced pass counts the same, so solve totals divide exactly."""
            out = defaultdict(float)
            for (in_solve, name), c in totals.items():
                out[name] += c / n_passes if in_solve else c
            return out

        self_s = defaultdict(float)
        span_calls = Counter()              # (in a solve?, span name) -> calls
        accounted = 0.0                     # self time inside traced solves
        layer_solve = defaultdict(float)    # layer -> self time per pass, solves only
        span_train = defaultdict(float)     # span name -> self time, training only
        for name_id, solve_index, st in zip(tr.name, tr.solve_of, tr.self_times()):
            name, sid = tr.names[name_id], tr.solves[solve_index]
            w = weight(sid)
            self_s[name] += st * w
            span_calls[(sid in solve_ids, name)] += 1
            if sid in solve_ids:
                accounted += st
                layer_solve[LAYER_OF[name]] += st * w
            elif sid.startswith("train-"):
                span_train[name] += st
        calls = per_pass(span_calls)
        count_totals = Counter()
        for (sid, name), c in tr.counts.items():
            count_totals[(sid in solve_ids, name)] += c
        counts = per_pass(count_totals)

        # self times must partition the measured solve time
        measured = sum(s.seconds for s in traced)
        unaccounted = 1 - accounted / measured if measured else 0.0
        emit("trace.unaccounted", unaccounted, "ratio",
             "1 - (sum of self times) / (traced solve wall time)")
        if abs(unaccounted) > 0.01:
            self.problems.append(f"self times cover {accounted:.4f} s of {measured:.4f} s")

        solve_wall = measured / n_passes if n_passes else 0.0
        print(f"# self time per pass, share of the traced solve wall time {solve_wall:.4f} s")
        for layer, sec in sorted(layer_solve.items(), key=lambda kv: -kv[1]):
            print(f"share.solve.{layer} {sec / solve_wall:.4f} ratio  # {sec:.4f} s")
        train_wall = sum(span_train.values())
        if train_wall:
            print(f"# self time per span name, share of the traced training time "
                  f"{train_wall:.4f} s")
        for name, sec in sorted(span_train.items(), key=lambda kv: -kv[1]):
            print(f"share.train.{name} {sec / train_wall:.4f} ratio  # {sec:.4f} s")

        m = {
            "pddl.load_s": self_s["pddl.load"], "pddl.load_calls": calls["pddl.load"],
            "lifted.children_s": self_s["lifted.children"],
            "lifted.children_calls": calls["lifted.children"],
            "lifted.instantiations_s": self_s["lifted.instantiations"],
            "lifted.instantiations_calls": counts["lifted.instantiations_calls"],
            "lifted.actions": counts["lifted.actions"],
            "relaxation.h_s": self_s["relaxation.h"],
            "relaxation.h_calls": calls["relaxation.h"],
            "graphs.build_s": self_s["graphs.build"], "graphs.calls": calls["graphs.build"],
            "wl.refine_s": self_s["wl.refine"], "wl.calls": calls["wl.refine"],
            "ranking.dataset_s": self_s["ranking.dataset"],
            "ranking.lp_s": self_s["ranking.lp"], "ranking.lp_calls": calls["ranking.lp"],
            "ranking.dot_s": self_s["ranking.dot"], "ranking.dot_calls": calls["ranking.dot"],
            "ranking.train_self_s": self_s["ranking.train"],
            "search.self_s": self_s["search"],
        }
        m.update(self.relaxation_metrics(counts))
        m.update(self.notes_metrics(models, solve_ids, weight))
        m.update(self.search_metrics(traced))
        m["trace.overhead"] = self.overhead(solves)
        return m

    def relaxation_metrics(self, counts) -> dict:
        logs = [entry for _, _, log in self.node_log.values() for entry in log]
        if not logs:
            return {}
        restricted = sum(1 for _, rho, _ in logs if rho is not None)
        fixpoint, extract = self.replay()
        return {
            "relaxation.action_set_size":
                counts["lifted.actions_in:relaxation.h"] / restricted if restricted else None,
            "relaxation.dead_ends": sum(1 for *_, h in logs if h == INF) / len(logs),
            "relaxation.fixpoint_s_per_call": fixpoint,
            "relaxation.extract_s_per_call": extract,
        }

    def replay(self):
        """Re-evaluate a deterministic sample of the logged nodes, evenly
        spaced over each cell's evaluations. The public h_ff/h_ff_restricted
        must give the h the search saw. The fixpoint is timed through the
        public relaxed_reach. Extraction (about 0.02 ms against a 9-180 ms
        fixpoint, far below the noise of a difference of two calls) is timed
        on the replayed fixpoint through the program's own _extract; without
        that name it reads n/a. Each timing is the fastest of REPLAY_REPEATS."""
        from pslift import instantiations

        reach_total = extract_total = 0.0
        n = 0
        extract_known = True
        for cell in self.cells:
            if cell.cell_id not in self.node_log:
                continue
            task, heuristic, log = self.node_log[cell.cell_id]
            if not log:
                continue
            k = min(REPLAY_NODES_PER_CELL, len(log))
            picks = sorted({round(j * (len(log) - 1) / max(k - 1, 1)) for j in range(k)})
            program = heuristic.program
            extract = getattr(program, "_extract", None)
            extract_known &= extract is not None
            for i in picks:
                state, rho, seen = log[i]
                if rho is None:
                    args = (state,)
                    value = program.h_ff(state)
                else:
                    actions = list(instantiations(task, state, rho))
                    if not actions:
                        continue  # h is decided without the program
                    args = (state, actions)
                    value = program.h_ff_restricted(state, actions)
                if value != seen:
                    self.problems.append(f"{cell.cell_id}: replayed h {value} != {seen}")
                runs = [_timed(program.relaxed_reach, *args) for _ in range(REPLAY_REPEATS)]
                reach_total += min(t for t, _ in runs)
                if extract is not None:
                    reach = runs[0][1]
                    extracted = [_timed(extract, reach) for _ in range(REPLAY_REPEATS)]
                    if extracted[0][1] != seen:
                        self.problems.append(f"{cell.cell_id}: extracted h "
                                             f"{extracted[0][1]} != {seen}")
                    extract_total += min(t for t, _ in extracted)
                n += 1
        emit("relaxation.replayed_nodes", n, "count")
        if not n:
            return None, None
        return reach_total / n, extract_total / n if extract_known else None

    def notes_metrics(self, models, solve_ids, weight) -> dict:
        notes = self.tracer.notes
        graphs = [(weight(sid), v, e) for sid, (v, e) in notes["graphs.build"]]
        graph_calls = sum(w for w, _, _ in graphs)
        wl_solve = [v for sid, v in notes["wl.refine"] if sid in solve_ids]
        datasets = [d for _, d in notes["ranking.dataset"]]
        tuples = sum(len(d) for d in datasets)
        lps = [_lp_shape(d, dim) for _, (d, dim) in notes["ranking.lp"]]
        vertex_iterations = sum(v for v, _ in wl_solve)

        def mean(values):
            return sum(values) / len(values) if values else None

        return {
            "graphs.vertices":
                sum(w * v for w, v, _ in graphs) / graph_calls if graphs else None,
            "graphs.edges": sum(w * e for w, _, e in graphs) / graph_calls if graphs else None,
            "wl.dict_size": sum(len(m.dictionary) for m in models.values()),
            "wl.known_ratio": (sum(c for _, c in wl_solve) / vertex_iterations
                               if vertex_iterations else None),
            "ranking.tuples": tuples,
            "ranking.informative_ratio":
                (sum(1 for d in datasets for t in d if t.x != t.x_prime) / tuples
                 if tuples else None),
            "ranking.lp_rows": mean([r for r, _, _ in lps]),
            "ranking.lp_cols": mean([c for _, c, _ in lps]),
            "ranking.lp_nnz": mean([z for _, _, z in lps]),
        }

    def search_metrics(self, traced) -> dict:
        one_pass = list(self.first_solves(traced).values())
        exp = sum(s.expansions for s in one_pass)
        evals = sum(s.evaluations for s in one_pass)
        steps = sum(s.plan_length for s in one_pass)
        return {
            "search.expansions": exp,
            "search.evaluations": evals,
            "search.generated": sum(s.generated for s in one_pass),
            "search.branching_factor":
                sum(s.generated for s in one_pass) / exp if exp else None,
            "search.evals_per_step": evals / steps if steps else None,
        }

    def overhead(self, solves) -> float:
        plain = self.cell_times([s for s in solves if not s.traced])
        traced = self.cell_times([s for s in solves if s.traced])
        return sum(traced.values()) / sum(plain.values()) - 1


def reference_work() -> int:
    """A fixed pure-Python loop of tuple hashing and set and dict updates,
    the kind of work pslift does. It does not call the program, so its time
    follows the speed the machine gives this process."""
    seen, counts = set(), {}
    for i in range(6000):
        key = (i % 97, i % 89)
        if key not in seen:
            seen.add(key)
        counts[key] = counts.get(key, 0) + 1
    return len(seen) + len(counts)


def _timed(fn, *args):
    t0 = perf_counter()
    value = fn(*args)
    return perf_counter() - t0, value


def _lp_shape(dataset, dim: int):
    """(rows, columns, nonzeros) of the LP train_lp builds: one row per tuple,
    columns w+, w- and one slack per tuple, two entries per differing feature
    plus the slack entry."""
    m = len(dataset)
    nnz = m
    for t in dataset:
        keys = set(t.x) | set(t.x_prime)
        nnz += 2 * sum(1 for k in keys if t.x.get(k, 0) != t.x_prime.get(k, 0))
    return m, 2 * dim + m, nnz


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Start again with string hashing fixed: dict and set layouts then
        # are the same in every run, which steadies the times (NOTES.md).
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
