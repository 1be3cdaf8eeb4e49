"""Greedy best-first search over the state space and over the partial space.

Partial-space nodes pair a state with a partial action; the state changes only
when a fully instantiated partial action is crossed. Single-successor chains
are collapsed: the hop creates the node (it counts as generated) but is neither
expanded nor evaluated, so the expansion/evaluation counters reflect real
decisions only. Goal states are recognised at generation time.

Both spaces run one loop, `_gbfs`; they differ only in the successor model
and in the node the heuristic is given.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import resource
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .lifted import ROOT, GroundAction, PartialAction, _apply_effects, children, instantiations
from .pddl import Task

INF = float("inf")

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
EXHAUSTED = "exhausted"

_LIMIT_CHECK_EVERY = 256


@dataclass
class Limits:
    time_s: float | None = None
    memory_mb: float | None = None
    max_expansions: int | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not value >= 0:  # also NaN, never reached
                raise ValueError(f"{name} must be at least 0, not {value}")


@dataclass
class SearchStats:
    expansions: int = 0
    evaluations: int = 0
    generated: int = 0
    wall_time: float = 0.0

    @property
    def branching_factor(self) -> float:
        return self.generated / self.expansions if self.expansions else 0.0


class BestH(NamedTuple):
    """A new best heuristic value, and the expansions, evaluations and
    seconds of the search at the evaluation that found it."""

    h: float
    expansions: int
    evaluations: int
    seconds: float


@dataclass
class SearchResult:
    status: str
    plan: list[PartialAction] | None
    stats: SearchStats
    reason: str = ""
    # each new best h, strictly decreasing; the first is the root's
    best_h: list[BestH] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


class SearchNode:
    __slots__ = ("state", "rho", "parent", "generating_action")

    def __init__(self, state, rho, parent=None, generating_action=None):
        self.state = state
        self.rho = rho
        self.parent = parent
        self.generating_action = generating_action


def extract_plan(goal_node: SearchNode) -> list[PartialAction]:
    """The generating actions along the root-to-goal chain, i.e. exactly the
    fully instantiated partial actions that were crossed."""
    plan: list[PartialAction] = []
    node = goal_node
    while node is not None:
        if node.generating_action is not None:
            plan.append(node.generating_action)
        node = node.parent
    plan.reverse()
    return plan


def _current_rss_kb() -> int:
    """Resident set size of this process now. Where /proc is missing, the
    lifetime peak is the best available stand-in."""
    try:
        with open("/proc/self/statm", encoding="ascii") as f:
            pages = int(f.read().split()[1])
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return pages * resource.getpagesize() // 1024


def _gbfs(task: Task, evaluate, expand, limits: Limits | None) -> SearchResult:
    """The GBFS loop of both spaces. `expand(node, stats)` gives the children
    of an expanded node, counting them in `stats.generated`; the loop
    goal-tests each child, then evaluates it with `evaluate(node)` (inf
    prunes) before it takes the next one. Ties are broken FIFO.

    Time is polled before every heuristic evaluation, since one evaluation
    can take longer than many expansions; memory every _LIMIT_CHECK_EVERY
    expansions. Each new best h is recorded, and logged at level INFO.
    """
    lim = limits or Limits()
    start = time.monotonic()
    stats = SearchStats(generated=1)
    open_heap: list = []
    counter = itertools.count()
    best_h: list[BestH] = []
    best = INF
    log = logging.getLogger(__name__)

    def finish(status, plan=None, reason=""):
        stats.wall_time = time.monotonic() - start
        return SearchResult(status, plan, stats, reason, best_h)

    def time_up() -> bool:
        return lim.time_s is not None and time.monotonic() - start > lim.time_s

    def push(node: SearchNode) -> bool:
        """Evaluate and queue a node; False when time is up first."""
        nonlocal best
        if time_up():
            return False
        hv = evaluate(node)
        stats.evaluations += 1
        if hv < best:
            best = hv
            best_h.append(BestH(hv, stats.expansions, stats.evaluations,
                                time.monotonic() - start))
            log.info("New best heuristic value: %s [%d evaluated, %d expanded, t=%.3fs]",
                     hv, stats.evaluations, stats.expansions, best_h[-1].seconds)
        if hv < INF:
            heapq.heappush(open_heap, (hv, next(counter), node))
        return True

    root = SearchNode(task.initial_state, ROOT)
    if task.is_goal(root.state):
        return finish(SOLVED, [])
    if not push(root):
        return finish(EXHAUSTED, reason="time")

    while open_heap:
        if lim.max_expansions is not None and stats.expansions >= lim.max_expansions:
            return finish(EXHAUSTED, reason="expansions")
        if stats.expansions % _LIMIT_CHECK_EVERY == 0:
            if time_up():
                return finish(EXHAUSTED, reason="time")
            if lim.memory_mb is not None and _current_rss_kb() > lim.memory_mb * 1024:
                return finish(EXHAUSTED, reason="memory")
        _, _, node = heapq.heappop(open_heap)
        stats.expansions += 1
        for child in expand(node, stats):
            if task.is_goal(child.state):
                return finish(SOLVED, extract_plan(child))
            if not push(child):
                return finish(EXHAUSTED, reason="time")
    return finish(UNSOLVABLE)


def _cross(task: Task, node: SearchNode, action: PartialAction, closed: set, stats):
    """The child that applying `action` at `node` reaches, or None when its
    state is closed; generated either way."""
    succ = _apply_effects(task, node.state, action)
    stats.generated += 1
    if succ in closed:
        return None
    closed.add(succ)
    return SearchNode(succ, ROOT, node, action)


def gbfs_state(task: Task, heuristic, limits: Limits | None = None) -> SearchResult:
    """GBFS over states. `heuristic` maps a state to a float; inf prunes.

    Ties are broken FIFO, duplicates are pruned by a closed list, and the goal
    test runs when a node is generated.
    """
    closed = {task.initial_state}

    def expand(node, stats):
        for action in instantiations(task, node.state, ROOT):
            child = _cross(task, node, action, closed, stats)
            if child is not None:
                yield child

    return _gbfs(task, lambda node: heuristic(node.state), expand, limits)


def gbfs_partial(task: Task, heuristic, limits: Limits | None = None) -> SearchResult:
    """GBFS over (state, partial action) nodes guided by an action-set
    heuristic `heuristic(state, rho) -> float` (inf prunes).

    Expanding a node with a non-full rho yields its applicable children in the
    partial action tree; a full rho yields the single node for the resulting
    state. The closed list applies to the resulting states only: partial nodes
    with equal states but different rho are distinct decisions.
    """
    closed = {task.initial_state}

    def successors(node, stats):
        if node.rho.is_full:
            child = _cross(task, node, node.rho, closed, stats)
            return [] if child is None else [child]
        kids = children(task, node.state, node.rho)
        stats.generated += len(kids)
        return [SearchNode(node.state, k, node) for k in kids]

    def expand(node, stats):
        succs = successors(node, stats)
        # collapse single-successor chains without expanding or evaluating
        # them; a goal ends the chain, so that the loop's goal test sees it
        while len(succs) == 1 and not task.is_goal(succs[0].state):
            succs = successors(succs[0], stats)
        return succs

    return _gbfs(task, lambda node: heuristic(node.state, node.rho), expand, limits)


# ---------------------------------------------------------------------------
# plan text format (IPC style)

def format_plan(plan: list[PartialAction]) -> str:
    lines = [f"({' '.join((a.schema.name,) + a.args)})" for a in plan]
    lines.append(f"; cost = {len(plan)} (unit cost)")
    return "\n".join(lines) + "\n"


def parse_plan(text: str, task: Task) -> list[PartialAction]:
    plan: list[PartialAction] = []
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if not (line.startswith("(") and line.endswith(")")):
            raise ValueError(f"malformed plan line: {raw!r}")
        # PDDL names are case-insensitive: fold them as the PDDL reader does
        parts = line[1:-1].lower().split()
        if not parts:
            raise ValueError(f"malformed plan line: {raw!r}")
        schema = task.schema(parts[0])
        plan.append(GroundAction(schema, tuple(parts[1:])))
    return plan
