"""The three workloads: their fixed solve matrices and their set-up.

A workload is a list of instances, each solved in both search spaces with the
workload's heuristics. Every (instance, configuration) pair is one cell of the
solve matrix. The instances are fixed: generator parameters and generator
seeds never depend on the benchmark's ``--seed``, because solve cost differs
by two orders of magnitude between generator seeds of one family, and the
run-to-run spread must stay within the bounds in BENCHMARK.json (NOTES.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from pslift import FFHeuristic, RestrictedFFHeuristic, TrainConfig, gbfs_state, generators, load_task
from pslift.bench import validate_plan


@dataclass(frozen=True)
class Instance:
    family: str
    params: tuple  # ((name, value), ...) passed to the generator
    gen_seed: int

    @property
    def name(self) -> str:
        shown = "".join(f"-{k}{v}" for k, v in self.params)
        return f"{self.family}{shown}-s{self.gen_seed}"

    def texts(self) -> tuple[str, str]:
        return generators.generate(self.family, seed=self.gen_seed, **dict(self.params))


def _family(family: str, params: dict, seeds) -> list[Instance]:
    return [Instance(family, tuple(params.items()), s) for s in seeds]


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    heuristics: tuple      # "ff", or model kinds "aoag"/"aeg"
    max_expansions: int    # per-solve limit; a hit counts as failed


# Heavy fixpoints, few evaluations. Of generator seeds 0-4, the cheapest
# warehouse-like seed and the two cheapest blocksworld-large seeds, so that a
# 45 s run solves every cell about five times (NOTES.md has the costs).
# Blocksworld-large seed 0 already satisfies its goal and stays in as a
# 0-expansion solve.
FF_HEAVY = Workload(
    "ff-heavy",
    tuple(_family("warehouse-like", {"stacks": 6, "marked": 2}, (0,))
          + _family("blocksworld-large", {"blocks": 30, "goal_atoms": 2}, (0, 3))),
    ("ff",),
    max_expansions=100,
)

# Many small fixpoints; ferry-like seeds 3 and 4 satisfy the goal at the root.
FF_LIGHT = Workload(
    "ff-light",
    tuple(_family("blocksworld", {"blocks": 8}, range(5))
          + _family("ferry-like", {"cars": 4, "locations": 4}, range(5))),
    ("ff",),
    max_expansions=2000,
)

LEARNED = Workload(
    "learned",
    tuple(_family("blocksworld", {"blocks": 15}, range(3))),
    ("aoag", "aeg"),
    max_expansions=10000,
)

WORKLOADS = {w.name: w for w in (FF_HEAVY, FF_LIGHT, LEARNED)}

# Training corpus of the learned workload: blocksworld with 6, 7 and 8 blocks
# in turn, generator seeds counting up from 0, keeping instances whose plan
# has at least CORPUS_MIN_PLAN steps (as the acceptance tests' corpus does).
CORPUS_SIZE = 30
CORPUS_BLOCKS = (6, 7, 8)
CORPUS_MIN_PLAN = 4
WL_ITERATIONS = 2


@dataclass
class Cell:
    """One (instance, configuration) pair of the solve matrix."""

    cell_id: str
    texts: tuple     # (domain, problem) PDDL text
    space: str       # "partial" or "state"
    kind: str        # "ff", "aoag" or "aeg"
    model: object = None

    def fresh(self):
        """A newly loaded task and its heuristic. Every solve gets its own,
        as a command-line solve would, so that no solve runs on atoms another
        solve interned."""
        task = load_task(*self.texts)
        if self.kind == "ff":
            h = RestrictedFFHeuristic(task) if self.space == "partial" else FFHeuristic(task)
        elif self.space == "partial":
            h = self.model.heuristic(task)
        else:
            h = self.model.state_heuristic(task)
        return task, h


@dataclass
class Prepared:
    texts: dict                # instance name -> (domain, problem)
    corpus: list               # learned only: (name, task, plan)


def setup(workload: Workload, load) -> Prepared:
    """What a user does before the first solve: generate and load every
    instance and build its FF heuristics; for the learned workload also make
    and validate the corpus plans. `load` is `load_task`, possibly wrapped by
    the tracer."""
    texts = {}
    for inst in workload.instances:
        texts[inst.name] = inst.texts()
        task = load(*texts[inst.name])
        if "ff" in workload.heuristics:  # built to time their construction
            RestrictedFFHeuristic(task)
            FFHeuristic(task)
    corpus = make_corpus(load) if workload is LEARNED else []
    return Prepared(texts, corpus)


def make_corpus(load) -> list:
    corpus = []
    seed = 0
    while len(corpus) < CORPUS_SIZE:
        blocks = CORPUS_BLOCKS[len(corpus) % len(CORPUS_BLOCKS)]
        inst = Instance("blocksworld", (("blocks", blocks),), seed)
        seed += 1
        task = load(*inst.texts())
        result = gbfs_state(task, FFHeuristic(task))
        if not result.solved:
            raise RuntimeError(f"corpus instance {inst.name} unsolved: {result.status}")
        check = validate_plan(task, result.plan)
        if not check:
            raise RuntimeError(f"corpus plan of {inst.name} invalid: {check.reason}")
        if len(result.plan) >= CORPUS_MIN_PLAN:
            corpus.append((inst.name, task, result.plan))
    return corpus


def train_config(kind: str) -> TrainConfig:
    return TrainConfig(graph_kind=kind, iterations=WL_ITERATIONS)


def cells(workload: Workload, prepared: Prepared, models: dict) -> list[Cell]:
    """The solve matrix in canonical order; `models` maps kind -> LinearModel."""
    return [
        Cell(f"{inst.name}/{space}-{kind}", prepared.texts[inst.name], space, kind,
             models.get(kind))
        for inst in workload.instances
        for kind in workload.heuristics
        for space in ("partial", "state")
    ]
