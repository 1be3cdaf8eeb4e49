"""In-memory span tracing around the public functions of each pslift module.

The tracer never edits program code: it replaces a public name in every module
that imports it with a wrapper that opens a span, calls the original and closes
the span. A span is (name, start, end, parent span, solve id). Self time is a
span's duration minus the durations of its direct children; spans nest
strictly, so the self times of one solve add up to its root span. The spans
are kept in memory and written out as CSV at the end of the run.

Generators are timed while they are consumed: every ``next()`` on a wrapped
generator is its own span, so the work the consumer does between two items
is not charged to the generator.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, public name, span name, is a generator)
PATCHES = (
    ("pslift.search", "children", "lifted.children", False),
    ("pslift.ranking", "children", "lifted.children", False),
    ("pslift.search", "instantiations", "lifted.instantiations", True),
    ("pslift.relaxation", "instantiations", "lifted.instantiations", True),
    ("pslift.graphs", "instantiations", "lifted.instantiations", True),
    ("pslift.wl", "aoag", "graphs.build", False),
    ("pslift.wl", "aeg", "graphs.build", False),
    ("pslift.wl", "wl_features", "wl.refine", False),
    ("pslift.ranking", "generate_dataset", "ranking.dataset", False),
    ("pslift.ranking", "train_lp", "ranking.lp", False),
    ("pslift.ranking", "evaluate", "ranking.dot", False),
)

# What each call leaves for the per-layer counters. Only O(1) work happens
# here, outside the child span; the datasets are measured after the run.
NOTES = {
    "graphs.build": lambda args, g: (len(g.colors), len(g.edges)),
    # (vertex-iterations refined, colours counted by the dictionary)
    "wl.refine": lambda args, fv: (len(args[0].colors) * (args[1] + 1), sum(fv.values())),
    "ranking.dataset": lambda args, dataset: dataset,
    # (dataset, feature dimension)
    "ranking.lp": lambda args, result: (args[0], args[2]),
}


class Tracer:
    """Spans live in flat arrays, not in one Python object each, so that the
    garbage collector does not slow down as the trace grows."""

    def __init__(self):
        self.names: list[str] = []      # span name of each name id
        self.solves: list[str] = []     # solve id of each solve index
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.solve_of = array("I")
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._solve = self._solve_index("setup")
        # (solve id, counter name) -> count
        self.counts: Counter = Counter()
        # span name -> [(solve id, note)], see NOTES
        self.notes: dict[str, list] = defaultdict(list)
        self._saved: list = []

    @property
    def solve(self) -> str:
        return self.solves[self._solve]

    @solve.setter
    def solve(self, solve_id: str) -> None:
        self._solve = self._solve_index(solve_id)

    def _solve_index(self, solve_id: str) -> int:
        self.solves.append(solve_id)
        return len(self.solves) - 1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_of.append(self._solve)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """`fn` inside a span; `note(args, result)` is recorded per call."""
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if note is not None:
                self.notes[name].append((self.solve, note(args, result)))
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            parent = self.names[self.name[self._stack[-1]]] if self._stack else ""
            self.counts[(self.solve, name + "_calls")] += 1
            while True:
                i = self.open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.counts[(self.solve, "lifted.actions")] += 1
                self.counts[(self.solve, "lifted.actions_in:" + parent)] += 1
                yield item

        return traced

    def install(self) -> None:
        """Replace every name in PATCHES with its traced wrapper."""
        if self._saved:
            return
        for module_name, attr, span, is_gen in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if is_gen:
                wrapped = self.wrap_generator(span, original)
            else:
                wrapped = self.wrap(span, original, NOTES.get(span))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> array:
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path: str) -> None:
        """Spans as CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start,end,parent,solve\n")
            for i in range(len(self)):
                f.write(f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                        f"{self.end[i] - t0:.9f},{self.parent[i]},"
                        f"{self.solves[self.solve_of[i]]}\n")

