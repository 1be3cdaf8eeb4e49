"""Command-line interface: solve, train, generate-data, report, gen, validate.

Exit codes for solve: 0 solved, 1 unsolved or resource limits, 2 error. The
LL_LOG environment variable sets the log level (a name such as INFO); at INFO
a search logs each new best heuristic value and why it stopped.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import bench, generators, ranking, relaxation, search, wl
from .pddl import PddlError, load_task, parse_domain, parse_instance
from .ranking import TrainConfig, load_model, save_model, train_model
from .search import Limits

log = logging.getLogger("pslift")


def _setup_logging() -> None:
    """Log at the level LL_LOG names, or at WARNING, with a warning, if it
    names none."""
    value = os.environ.get("LL_LOG", "")
    # a registered level name gives its number, anything else a string
    level = logging.getLevelName(value.upper() or "WARNING")
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if not isinstance(level, int):
        log.warning("LL_LOG=%s is not a log level; logging at WARNING", value)


def _make_heuristic(task, spec: str, space: str):
    """(heuristic, label) for 'ff' or 'model:PATH', built for the search
    space ("state" or "partial") only."""
    partial = space == "partial"
    if spec == "ff":
        if partial:
            return relaxation.RestrictedFFHeuristic(task), "ff"
        return relaxation.FFHeuristic(task), "ff"
    if spec.startswith("model:"):
        model = load_model(spec.split(":", 1)[1])
        declared = model.metadata.get("domain")
        if declared and declared != task.domain_name:
            log.warning("model was trained on domain %s, task is %s", declared,
                        task.domain_name)
        heuristic = model.heuristic(task) if partial else model.state_heuristic(task)
        return heuristic, model.graph_kind
    raise ValueError(f"unknown heuristic {spec!r} (use 'ff' or 'model:PATH')")


def cmd_solve(args) -> int:
    # checked here as well as in Limits, so that the message names the flag
    for flag, value in (("--time-limit", args.time_limit), ("--memory-limit", args.memory_limit),
                        ("--expansion-cap", args.expansion_cap)):
        if value is not None and not value >= 0:  # also NaN
            raise ValueError(f"{flag} must be at least 0, not {value}")
    limits = Limits(time_s=args.time_limit, memory_mb=args.memory_limit,
                    max_expansions=args.expansion_cap)
    task = load_task(Path(args.domain).read_text(), Path(args.problem).read_text())
    heuristic, label = _make_heuristic(task, args.heuristic, args.search)
    config = args.config_name or f"{args.search}-{label}"

    if args.dump_datalog:
        sys.stderr.write(relaxation.DatalogProgram(task).dump())

    run = search.gbfs_partial if args.search == "partial" else search.gbfs_state
    started = time.monotonic()
    try:
        result = run(task, heuristic, limits)
        outcome = {
            search.SOLVED: bench.SOLVED,
            search.UNSOLVABLE: bench.UNSOLVED,
        }.get(result.status)
        if outcome is None:
            log.info("search stopped: %s limit reached", result.reason)
            outcome = {
                "time": bench.TIMEOUT,
                "memory": bench.MEMORY_OUT,
            }.get(result.reason, bench.UNSOLVED)
        stats = result.stats
        plan = result.plan
        # solved, unsolvable, or the limit that stopped the search
        reason = result.reason or result.status
        best_h = result.best_h
    except Exception as exc:  # noqa: BLE001 - reported as an Error row
        log.error("search failed: %s", exc)
        log.debug("traceback of the failed search", exc_info=True)
        outcome, stats, plan, reason = bench.ERROR, search.SearchStats(), None, "error"
        best_h = []

    wall_s = time.monotonic() - started
    if args.stats_json:
        Path(args.stats_json).write_text(json.dumps({
            "reason": reason,
            "expansions": stats.expansions,
            "evaluations": stats.evaluations,
            "generated": stats.generated,
            "wall_s": wall_s,
            "best_h": [best._asdict() for best in best_h],
        }, indent=1) + "\n")
    wall_ms = int(1000 * wall_s)
    record = bench.RunRecord(
        domain=task.domain_name,
        instance=task.problem_name or Path(args.problem).stem,
        config=config,
        outcome=outcome,
        plan_length=len(plan) if outcome == bench.SOLVED else None,
        stats=stats,
        wall_ms=wall_ms,
    )
    if args.stats_csv:
        bench.append_record(args.stats_csv, record)
    print(record.row())

    if outcome == bench.SOLVED:
        text = search.format_plan(plan)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    return 2 if outcome == bench.ERROR else 1


def _checked_plan(path: Path, task) -> tuple[list, bench.PlanCheck]:
    """The plan in a plan file, and its check; a line that names no ground
    action of the task fails the check at its step."""
    try:
        plan = search.parse_plan(path.read_text(), task)
    except search.PlanLineError as exc:
        return [], bench.PlanCheck(False, exc.step, exc.reason)
    return plan, bench.validate_plan(task, plan)


def _load_training_corpus(args):
    domain = parse_domain(Path(args.domain).read_text())
    instance_dir = Path(args.instances)
    plan_dir = Path(args.plans)
    corpus = []
    # `pslift gen` writes domain.pddl next to the problems it generates
    problems = sorted(p for p in instance_dir.glob("*.pddl") if not p.samefile(args.domain))
    if not problems:
        raise PddlError(f"no .pddl instances under {instance_dir}")
    for prob_path in problems:
        task = parse_instance(prob_path.read_text(), domain)
        plan_path = plan_dir / (prob_path.stem + ".plan")
        if not plan_path.exists():
            raise FileNotFoundError(f"no training plan for instance {prob_path.name}")
        plan, check = _checked_plan(plan_path, task)
        if not check:
            raise ranking.InvalidPlan(
                f"{prob_path.name}: step {check.step}: {check.reason}")
        corpus.append((prob_path.stem, task, plan))
    return corpus


def _train_config(args) -> TrainConfig:
    importances = None
    if args.importances:
        parts = [float(x) for x in args.importances.split(",")]
        if len(parts) != 4:
            raise ValueError("--importances wants four values: lp,ls,sp,ss")
        importances = dict(zip(ranking.KINDS, parts))
    return TrainConfig(
        graph_kind=args.graph,
        iterations=args.iterations,
        importances=importances,
        c_grid=(tuple(float(x) for x in args.c_grid.split(","))
                if args.c_grid else ranking.DEFAULT_C_GRID),
        split=args.split,
        sibling_cap=args.sibling_cap,
    )


def cmd_train(args) -> int:
    config = _train_config(args)
    corpus = _load_training_corpus(args)
    model, report = train_model(
        corpus, config, metadata={"domain": corpus[0][1].domain_name}
    )
    save_model(model, args.output)
    print(f"dataset size:    {report.dataset_size} "
          f"(train {report.train_tuples}, validation {report.val_tuples})")
    print("tuple kinds:     "
          + " ".join(f"{k}={report.kind_counts[k]}" for k in ranking.KINDS))
    print(f"chosen C:        {report.chosen_c}")
    print(f"dictionary size: {report.dictionary_size} colors")
    rows, columns, nonzeros = report.lp_shape
    print(f"LP shape:        {rows} rows, {columns} columns, {nonzeros} nonzeros")
    print("LP seconds:      "
          + " ".join(f"C={c:g}:{seconds:.3f}" for c, seconds in report.c_seconds))
    print(f"validation loss: {report.validation_loss:.6f}")
    print(f"train satisfied: {report.satisfied:.3f}")
    print(f"model:           {args.output}")
    return 0


def cmd_generate_data(args) -> int:
    config = _train_config(args)
    corpus = _load_training_corpus(args)
    importances = config.resolved_importances()
    dictionary = ranking.ColorDictionary()
    rows = ["kind,delta,sigma,x,x_prime"]
    for _, task, plan in corpus:
        feature_fn = wl.keyed_features(task, config.graph_kind, config.iterations, dictionary)
        for t in ranking.generate_dataset(task, plan, feature_fn, importances,
                                          config.sibling_cap):
            x = " ".join(f"{i}:{c}" for i, c in sorted(t.x.items()))
            xp = " ".join(f"{i}:{c}" for i, c in sorted(t.x_prime.items()))
            rows.append(f"{t.kind},{t.delta},{t.sigma},{x},{xp}")
    Path(args.output).write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} tuples to {args.output}")
    return 0


def cmd_report(args) -> int:
    records = []
    for path in args.csv:
        records.extend(bench.read_records(path))
    coverage, quality = bench.report(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "coverage.csv").write_text(coverage)
    (out / "quality.csv").write_text(quality)
    print(coverage)
    print(quality)
    return 0


def cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    takes = inspect.signature(generators.FAMILIES[args.family]).parameters
    params = {}
    for key in ("blocks", "goal_atoms", "stacks", "boxes", "marked", "cars", "locations"):
        value = getattr(args, key, None)
        if value is not None:
            if key not in takes:
                raise ValueError(f"--{key.replace('_', '-')} is not an option of family "
                                 f"{args.family}")
            params[key] = value
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    domain_text = None
    for i in range(args.count):
        domain_text, problem = generators.generate(args.family, seed=args.seed + i, **params)
        (out / f"{args.family}-{args.seed + i:03d}.pddl").write_text(problem)
    (out / "domain.pddl").write_text(domain_text)
    print(f"wrote {args.count} instance(s) and domain.pddl to {out}")
    return 0


def cmd_validate(args) -> int:
    task = load_task(Path(args.domain).read_text(), Path(args.problem).read_text())
    plan, check = _checked_plan(Path(args.plan), task)
    if check:
        print(f"valid plan, cost {len(plan)}")
        return 0
    print(f"invalid plan at step {check.step}: {check.reason}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pslift",
                                     description="lifted planner with partial-space search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("domain")
    p.add_argument("problem")
    p.add_argument("--search", choices=("state", "partial"), default="partial")
    p.add_argument("--heuristic", default="ff", help="'ff' or 'model:PATH'")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    p.add_argument("--memory-limit", type=float, default=None, metavar="MB")
    p.add_argument("--expansion-cap", type=int, default=None)
    p.add_argument("--output", default=None, help="plan file (default: stdout)")
    p.add_argument("--stats-csv", default=None)
    p.add_argument("--stats-json", default=None, metavar="PATH",
                   help="write the counters, the stop reason, the wall seconds and each "
                        "new best h as JSON")
    p.add_argument("--config-name", default=None)
    p.add_argument("--dump-datalog", action="store_true",
                   help="write the relaxation's rule program, which both search "
                        "spaces run, to stderr")
    p.set_defaults(fn=cmd_solve)

    for name, fn in (("train", cmd_train), ("generate-data", cmd_generate_data)):
        p = sub.add_parser(name)
        p.add_argument("domain")
        p.add_argument("instances", help="directory of .pddl problems")
        p.add_argument("plans", help="directory of matching .plan files")
        p.add_argument("--graph", choices=("aoag", "aeg"), default="aoag")
        p.add_argument("--iterations", type=int, default=2)
        p.add_argument("--importances", default=None, metavar="LP,LS,SP,SS")
        p.add_argument("--c-grid", default=None, metavar="C1,C2,...")
        p.add_argument("--split", type=float, default=0.8)
        p.add_argument("--sibling-cap", type=int, default=None)
        p.add_argument("--output", required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("report", help="coverage and quality tables from stats CSVs")
    p.add_argument("csv", nargs="+")
    p.add_argument("--out", default="report")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("gen", help="generate desk-scale instances")
    p.add_argument("family", choices=sorted(generators.FAMILIES))
    p.add_argument("--out", default="instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--goal-atoms", type=int, default=None)
    p.add_argument("--stacks", type=int, default=None)
    p.add_argument("--boxes", type=int, default=None)
    p.add_argument("--marked", type=int, default=None)
    p.add_argument("--cars", type=int, default=None)
    p.add_argument("--locations", type=int, default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="check a plan file")
    p.add_argument("domain")
    p.add_argument("problem")
    p.add_argument("plan")
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # OSError: a missing file, or a directory where a file is expected
    except (PddlError, ranking.InvalidPlan, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
