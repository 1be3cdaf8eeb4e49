"""Plan validation, run records, and coverage/quality reporting.

The stats CSV has one comment line noting the counter convention, one header
line, and one row per run. Coverage counts solved instances per domain and
config; the quality score of a run is best-cost / cost against the best cost
any supplied config achieved on that instance (0 when unsolved).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .lifted import PartialAction, _apply_effects, unsatisfied
from .pddl import Task
from .search import SearchStats

SOLVED = "Solved"
UNSOLVED = "Unsolved"
TIMEOUT = "Timeout"
MEMORY_OUT = "MemoryOut"
ERROR = "Error"
OUTCOMES = (SOLVED, UNSOLVED, TIMEOUT, MEMORY_OUT, ERROR)

CSV_COMMENT = "# partial-space expansions/evaluations exclude collapsed single-successor hops"
CSV_HEADER = "domain,instance,config,outcome,plan_length,expansions,evaluations,generated,branching_factor,wall_ms"


class MalformedCSV(ValueError):
    pass


@dataclass
class PlanCheck:
    valid: bool
    step: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


def validate_plan(task: Task, plan: list[PartialAction]) -> PlanCheck:
    """Apply the plan from the initial state; valid iff every action is
    applicable in turn and the final state satisfies the goal."""
    state = task.initial_state
    for step, action in enumerate(plan):
        if len(action.args) != len(action.schema.params):
            return PlanCheck(False, step, "arity mismatch")
        if any(o not in task.object_index for o in action.args):
            return PlanCheck(False, step, "undeclared object")
        reason = unsatisfied(task, state, action)
        if reason is not None:
            return PlanCheck(False, step, reason)
        state = _apply_effects(task, state, action)
    if not task.is_goal(state):
        missing = sorted(task.format_atom(g) for g in task.goal_fluent - state)
        if not missing:
            missing = ["static goal atom"]
        return PlanCheck(False, len(plan), f"goal not satisfied: missing {missing[0]}")
    return PlanCheck(True)


@dataclass
class RunRecord:
    domain: str
    instance: str
    config: str
    outcome: str
    plan_length: int | None
    stats: SearchStats
    wall_ms: int

    def row(self) -> str:
        def clean(s: str) -> str:
            return str(s).replace(",", "_").replace("\n", " ")

        length = "" if self.plan_length is None else str(self.plan_length)
        return ",".join(
            [
                clean(self.domain),
                clean(self.instance),
                clean(self.config),
                self.outcome,
                length,
                str(self.stats.expansions),
                str(self.stats.evaluations),
                str(self.stats.generated),
                f"{self.stats.branching_factor:.4f}",
                str(self.wall_ms),
            ]
        )


def append_record(path: str, record: RunRecord) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as f:
        if fresh:
            f.write(CSV_COMMENT + "\n" + CSV_HEADER + "\n")
        f.write(record.row() + "\n")


def read_records(path: str) -> list[RunRecord]:
    records: list[RunRecord] = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line == CSV_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 10:
                raise MalformedCSV(f"{path}:{lineno}: expected 10 fields")
            try:
                stats = SearchStats(
                    expansions=int(parts[5]),
                    evaluations=int(parts[6]),
                    generated=int(parts[7]),
                )
                record = RunRecord(
                    domain=parts[0],
                    instance=parts[1],
                    config=parts[2],
                    outcome=parts[3],
                    plan_length=int(parts[4]) if parts[4] else None,
                    stats=stats,
                    wall_ms=int(parts[9]),
                )
            except ValueError as exc:
                raise MalformedCSV(f"{path}:{lineno}: {exc}") from exc
            if record.outcome not in OUTCOMES:
                raise MalformedCSV(f"{path}:{lineno}: bad outcome {record.outcome!r}")
            if (record.plan_length is None) == (record.outcome == SOLVED):
                raise MalformedCSV(f"{path}:{lineno}: plan length iff solved")
            records.append(record)
    return records


def quality_score(length: int | None, best: int | None) -> float:
    if length is None or best is None:
        return 0.0
    if best == 0:
        return 1.0 if length == 0 else 0.0
    return best / length


def report(records: list[RunRecord]) -> tuple[str, str]:
    """Coverage and quality tables as CSV text, one row per domain and one
    column per config, totals last."""
    configs = sorted({r.config for r in records})
    domains = sorted({r.domain for r in records})

    best: dict[tuple[str, str], int] = {}
    for r in records:
        if r.outcome == SOLVED:
            key = (r.domain, r.instance)
            if key not in best or r.plan_length < best[key]:
                best[key] = r.plan_length

    coverage = {(d, c): 0 for d in domains for c in configs}
    quality = {(d, c): 0.0 for d in domains for c in configs}
    for r in records:
        if r.outcome == SOLVED:
            coverage[(r.domain, r.config)] += 1
            quality[(r.domain, r.config)] += quality_score(
                r.plan_length, best.get((r.domain, r.instance))
            )

    def table(values, fmt):
        lines = ["domain," + ",".join(configs)]
        for d in domains:
            lines.append(d + "," + ",".join(fmt(values[(d, c)]) for c in configs))
        lines.append(
            "total,"
            + ",".join(fmt(sum(values[(d, c)] for d in domains)) for c in configs)
        )
        return "\n".join(lines) + "\n"

    return table(coverage, str), table(quality, lambda v: f"{v:.3f}")
