import json
import logging
import pathlib

import numpy as np
import pytest

from pslift import cli, relaxation
from pslift.bench import (
    CSV_HEADER,
    MalformedCSV,
    PlanCheck,
    RunRecord,
    append_record,
    quality_score,
    read_records,
    report,
    validate_plan,
)
from pslift.generators import FAMILIES, generate, generate_task
from pslift.lifted import ROOT, GroundAction, instantiations
from pslift.pddl import load_task
from pslift.ranking import LinearModel, load_model, save_model
from pslift.search import SearchStats, gbfs_partial, gbfs_state
from pslift.relaxation import FFHeuristic, RestrictedFFHeuristic
from pslift.wl import ColorDictionary

import oracles
from conftest import BW2_TEXT, BW_DOMAIN_TEXT, SPANNER_MINI_DOMAIN, SPANNER_MINI_PROBLEM


def write_blocksworld_corpus(tmp_path, count: int):
    """(domain file, instance dir, plan dir) of `count` 3-block instances
    with optimal plans."""
    inst_dir = tmp_path / "train"; inst_dir.mkdir()
    plan_dir = tmp_path / "plans"; plan_dir.mkdir()
    made = seed = 0
    while made < count:
        domain_text, problem = generate("blocksworld", seed=seed, blocks=3)
        plan = oracles.bfs_plan(load_task(domain_text, problem))
        seed += 1
        if not plan:
            continue
        (inst_dir / f"p{made}.pddl").write_text(problem)
        lines = [f"({name} {' '.join(args)})" for name, args in plan]
        (plan_dir / f"p{made}.plan").write_text("\n".join(lines) + "\n")
        made += 1
    domain_file = tmp_path / "domain.pddl"
    domain_file.write_text(domain_text)
    return domain_file, inst_dir, plan_dir


def plan_of(task, *steps):
    return [GroundAction(task.schema(name), tuple(args)) for name, *args in steps]


class TestValidatePlan:
    def test_valid_two_step_plan(self, bw2):
        check = validate_plan(bw2, plan_of(bw2, ("pickup", "a"), ("stack", "a", "b")))
        assert check

    def test_inapplicable_first_action(self, bw2):
        check = validate_plan(bw2, plan_of(bw2, ("stack", "a", "b")))
        assert not check
        assert check.step == 0
        assert "holding" in check.reason

    def test_goal_not_reached(self, bw2):
        check = validate_plan(bw2, plan_of(bw2, ("pickup", "a")))
        assert not check and check.step == 1
        assert "on(a,b)" in check.reason

    def test_empty_plan_on_goal_init(self, bw_domain):
        from pslift.pddl import parse_instance
        task = parse_instance(BW2_TEXT.replace("(on a b)", "(clear a)"), bw_domain)
        assert validate_plan(task, [])

    def test_undeclared_object(self, bw2):
        plan = [GroundAction(bw2.schema("pickup"), ("zonk",))]
        check = validate_plan(bw2, plan)
        assert not check and check.reason == "undeclared object"


class TestRunRecords:
    def record(self, **kw):
        base = dict(domain="bw", instance="i1", config="partial-ff", outcome="Solved",
                    plan_length=3, stats=SearchStats(4, 9, 12), wall_ms=17)
        base.update(kw)
        return RunRecord(**base)

    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "stats.csv"
        append_record(str(path), self.record())
        append_record(str(path), self.record(instance="i2", outcome="Timeout",
                                              plan_length=None))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == CSV_HEADER
        records = read_records(str(path))
        assert len(records) == 2
        assert records[0].plan_length == 3
        assert records[1].outcome == "Timeout" and records[1].plan_length is None

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nonly,three,fields\n")
        with pytest.raises(MalformedCSV):
            read_records(str(path))

    def test_plan_length_iff_solved_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nbw,i,cfg,Solved,,1,2,3,1.0,5\n")
        with pytest.raises(MalformedCSV):
            read_records(str(path))


class TestReport:
    def test_quality_definition(self):
        records = [
            RunRecord("d", "i1", "fast", "Solved", 10, SearchStats(), 1),
            RunRecord("d", "i1", "slow", "Solved", 20, SearchStats(), 1),
            RunRecord("d", "i2", "fast", "Unsolved", None, SearchStats(), 1),
            RunRecord("d", "i2", "slow", "Solved", 4, SearchStats(), 1),
        ]
        coverage, quality = report(records)
        assert coverage.splitlines()[0] == "domain,fast,slow"
        assert coverage.splitlines()[1] == "d,1,2"
        qrow = quality.splitlines()[1].split(",")
        assert float(qrow[1]) == pytest.approx(1.0)       # fast: 10/10 + 0
        assert float(qrow[2]) == pytest.approx(1.5)       # slow: 10/20 + 4/4

    def test_single_config_quality_is_coverage(self):
        records = [
            RunRecord("d", "i1", "only", "Solved", 7, SearchStats(), 1),
            RunRecord("d", "i2", "only", "Solved", 2, SearchStats(), 1),
        ]
        _, quality = report(records)
        assert float(quality.splitlines()[1].split(",")[1]) == pytest.approx(2.0)

    def test_report_of_report_is_identical(self):
        records = [
            RunRecord("d", "i1", "a", "Solved", 3, SearchStats(), 1),
            RunRecord("e", "i1", "a", "Unsolved", None, SearchStats(), 1),
        ]
        assert report(records) == report(records)

    def test_zero_length_plans(self):
        assert quality_score(0, 0) == 1.0
        assert quality_score(3, 0) == 0.0
        assert quality_score(None, 0) == 0.0


class TestGenerators:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_deterministic_per_seed(self, family):
        assert generate(family, seed=3) == generate(family, seed=3)
        assert generate(family, seed=3) != generate(family, seed=4)

    @pytest.mark.parametrize("family,params", [
        ("blocksworld", dict(blocks=4)),
        ("blocksworld-large", dict(blocks=12, goal_atoms=2)),
        ("warehouse-like", dict(stacks=3, boxes=5, marked=2)),
        ("ferry-like", dict(cars=2, locations=3)),
    ])
    def test_instances_solvable_by_blind_search(self, family, params):
        for seed in range(3):
            task = generate_task(family, seed=seed, **params)
            assert oracles.bfs_plan(task) is not None

    def test_warehouse_quadratic_branching(self):
        task = generate_task("warehouse-like", seed=1, stacks=10, boxes=12, marked=2)
        branching = len(list(instantiations(task, task.initial_state, ROOT)))
        assert branching >= 45

    def test_blocksworld_large_goal_small(self):
        task = generate_task("blocksworld-large", seed=2, blocks=50, goal_atoms=2)
        assert len(task.goal) <= 2
        mentioned = {o for g in task.goal for o in task.atom(g).args}
        assert len(mentioned) <= 4

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate("towers-of-hanoi", seed=0)


@pytest.fixture()
def bw_files(tmp_path):
    domain = tmp_path / "domain.pddl"
    problem = tmp_path / "bw2.pddl"
    domain.write_text(BW_DOMAIN_TEXT)
    problem.write_text(BW2_TEXT)
    return domain, problem


class TestCli:
    def test_solve_partial_writes_valid_plan(self, bw_files, tmp_path, capsys):
        domain, problem = bw_files
        plan_file = tmp_path / "out.plan"
        csv_file = tmp_path / "stats.csv"
        rc = cli.main(["solve", str(domain), str(problem), "--search", "partial",
                       "--heuristic", "ff", "--output", str(plan_file),
                       "--stats-csv", str(csv_file)])
        assert rc == 0
        task = load_task(BW_DOMAIN_TEXT, BW2_TEXT)
        from pslift.search import parse_plan
        plan = parse_plan(plan_file.read_text(), task)
        assert validate_plan(task, plan)
        records = read_records(str(csv_file))
        assert records[0].outcome == "Solved" and records[0].config == "partial-ff"

    def test_solve_time_limit_reports_timeout(self, tmp_path):
        domain, problem = generate("blocksworld-large", seed=5, blocks=14, goal_atoms=3)
        d = tmp_path / "d.pddl"; d.write_text(domain)
        p = tmp_path / "p.pddl"; p.write_text(problem)
        csv_file = tmp_path / "stats.csv"
        rc = cli.main(["solve", str(d), str(p), "--search", "state",
                       "--heuristic", "ff", "--time-limit", "0.0",
                       "--stats-csv", str(csv_file)])
        assert rc == 1
        assert read_records(str(csv_file))[0].outcome == "Timeout"

    def test_solve_expansion_cap_logs_its_reason(self, bw_files, tmp_path, caplog):
        domain, problem = bw_files
        csv_file = tmp_path / "stats.csv"
        with caplog.at_level(logging.INFO, logger="pslift"):
            rc = cli.main(["solve", str(domain), str(problem), "--expansion-cap", "1",
                           "--stats-csv", str(csv_file)])
        assert rc == 1
        assert read_records(str(csv_file))[0].outcome == "Unsolved"
        assert [r.message for r in caplog.records
                if r.levelno == logging.INFO] == ["search stopped: expansions limit reached"]

    @pytest.mark.parametrize("space", ["state", "partial"])
    @pytest.mark.parametrize("reason, flags, rc", [
        ("solved", [], 0),
        ("unsolvable", [], 1),
        ("time", ["--time-limit", "0.0"], 1),
        ("memory", ["--memory-limit", "1"], 1),
        ("expansions", ["--expansion-cap", "1"], 1),
    ])
    def test_stats_json_gives_the_stop_reason(self, bw_files, tmp_path, capsys, space,
                                              reason, flags, rc):
        domain, problem = bw_files
        if reason == "unsolvable":
            domain.write_text(SPANNER_MINI_DOMAIN)
            problem.write_text(SPANNER_MINI_PROBLEM.replace("(link p2 p3)", ""))
        json_file = tmp_path / "stats.json"
        csv_file = tmp_path / "stats.csv"
        assert cli.main(["solve", str(domain), str(problem), "--search", space,
                         "--stats-json", str(json_file), "--stats-csv", str(csv_file),
                         "--output", str(tmp_path / "p.plan"), *flags]) == rc
        stats = json.loads(json_file.read_text())
        record = read_records(str(csv_file))[0]
        assert stats["reason"] == reason
        assert (stats["expansions"], stats["evaluations"], stats["generated"]) == (
            record.stats.expansions, record.stats.evaluations, record.stats.generated)
        assert int(1000 * stats["wall_s"]) == record.wall_ms
        assert sorted(stats) == ["evaluations", "expansions", "generated", "reason", "wall_s"]

    @pytest.mark.parametrize("space", ["state", "partial"])
    def test_solve_builds_the_datalog_program_of_its_space_only(self, bw_files, monkeypatch,
                                                                 tmp_path, space):
        built = []
        real = relaxation.DatalogProgram

        class Counted(real):
            def __init__(self, task):
                built.append(task)
                super().__init__(task)

        monkeypatch.setattr(relaxation, "DatalogProgram", Counted)
        domain, problem = bw_files
        assert cli.main(["solve", str(domain), str(problem), "--search", space,
                         "--output", str(tmp_path / "p.plan")]) == 0
        # one program serves both spaces: a solve builds it once
        assert len(built) == 1

    def test_solve_malformed_domain_exits_2_without_traceback(self, bw_files, tmp_path,
                                                              capsys):
        _, problem = bw_files
        domain = tmp_path / "bad.pddl"
        domain.write_text("(define (domain d) (:action a :parameters))")
        rc = cli.main(["solve", str(domain), str(problem)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_solve_at_sign_predicate_exits_2(self, tmp_path, capsys):
        domain = tmp_path / "d.pddl"
        domain.write_text("(define (domain d) (:predicates (@goal) (p))"
                          " (:action a :parameters () :precondition (@goal) :effect (p)))")
        problem = tmp_path / "p.pddl"
        problem.write_text("(define (problem q) (:domain d) (:init (@goal)) (:goal (p)))")
        rc = cli.main(["solve", str(domain), str(problem), "--heuristic", "ff"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["not a model\n", "LLMODEL v9 aoag 2\nchecksum 0\n"],
                             ids=["corrupt", "version"])
    def test_solve_bad_model_exits_2(self, bw_files, tmp_path, capsys, text):
        domain, problem = bw_files
        model = tmp_path / "m.model"
        model.write_text(text)
        rc = cli.main(["solve", str(domain), str(problem), "--heuristic", f"model:{model}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_solve_model_of_unknown_kind_exits_2(self, bw_files, tmp_path, capsys):
        """A model whose graph kind no encoding implements fails at load, also
        on an instance whose goal already holds and needs no evaluation."""
        domain, _ = bw_files
        problem = tmp_path / "done.pddl"
        problem.write_text("(define (problem done) (:domain blocksworld) (:objects a)"
                           " (:init (ontable a) (clear a) (handempty)) (:goal (ontable a)))")
        model = tmp_path / "m.model"
        save_model(LinearModel(np.zeros(0), ColorDictionary(), "xyz", 2), str(model))
        rc = cli.main(["solve", str(domain), str(problem), "--heuristic", f"model:{model}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_validate_command(self, bw_files, tmp_path):
        domain, problem = bw_files
        good = tmp_path / "good.plan"
        good.write_text("(pickup a)\n(stack a b)\n; cost = 2 (unit cost)\n")
        assert cli.main(["validate", str(domain), str(problem), str(good)]) == 0
        bad = tmp_path / "bad.plan"
        bad.write_text("(stack a b)\n")
        assert cli.main(["validate", str(domain), str(problem), str(bad)]) == 1

    def test_gen_writes_files(self, tmp_path):
        out = tmp_path / "inst"
        rc = cli.main(["gen", "blocksworld", "--out", str(out), "--seed", "2",
                       "--count", "3", "--blocks", "3"])
        assert rc == 0
        assert (out / "domain.pddl").exists()
        assert len(list(out.glob("blocksworld-*.pddl"))) == 3

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_gen_count_below_one_exits_2(self, tmp_path, capsys, count):
        rc = cli.main(["gen", "blocksworld", "--out", str(tmp_path / "inst"),
                       "--count", count])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("family,name,minimum", [
        ("blocksworld", "blocks", 1),
        ("blocksworld", "goal_atoms", 0),
        ("blocksworld-large", "blocks", 1),
        ("ferry-like", "cars", 0),
        ("ferry-like", "locations", 1),
        ("warehouse-like", "stacks", 1),
        ("warehouse-like", "marked", 1),
    ])
    def test_gen_size_below_its_minimum_exits_2(self, tmp_path, capsys, family, name, minimum):
        rc = cli.main(["gen", family, "--out", str(tmp_path / "inst"),
                       "--" + name.replace("_", "-"), str(minimum - 1)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{name} must be at least {minimum}" in err

    @pytest.mark.parametrize("flag,value", [
        ("--time-limit", "-1"),
        ("--time-limit", "nan"),
        ("--memory-limit", "-3"),
        ("--expansion-cap", "-5"),
    ])
    def test_solve_meaningless_limit_exits_2(self, bw_files, tmp_path, capsys, flag, value):
        domain, problem = bw_files
        csv_file = tmp_path / "stats.csv"
        rc = cli.main(["solve", str(domain), str(problem), "--stats-csv", str(csv_file),
                       flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be at least 0" in err
        # rejected before the search: no result row is written
        assert not csv_file.exists()

    def test_train_and_solve_with_model(self, tmp_path, capsys):
        inst_dir = tmp_path / "train"
        plan_dir = tmp_path / "plans"
        inst_dir.mkdir(); plan_dir.mkdir()
        domain_text = None
        made = 0
        seed = 0
        while made < 5:
            domain_text, problem = generate("blocksworld", seed=seed, blocks=3)
            task = load_task(domain_text, problem)
            plan = oracles.bfs_plan(task)
            seed += 1
            if not plan:
                continue
            (inst_dir / f"p{made}.pddl").write_text(problem)
            lines = [f"({name} {' '.join(args)})" for name, args in plan]
            (plan_dir / f"p{made}.plan").write_text("\n".join(lines) + "\n")
            made += 1
        domain_file = tmp_path / "domain.pddl"
        domain_file.write_text(domain_text)
        model_file = tmp_path / "bw.model"
        rc = cli.main(["train", str(domain_file), str(inst_dir), str(plan_dir),
                       "--graph", "aoag", "--output", str(model_file),
                       "--c-grid", "1,10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dataset size" in out and "chosen C" in out
        assert f"dictionary size: {len(load_model(str(model_file)).dictionary)} colors" in out
        assert "LP shape:" in out and " rows, " in out and " nonzeros" in out
        assert "LP seconds:      C=1:" in out and " C=10:" in out

        test_problem = tmp_path / "test.pddl"
        _, problem = generate("blocksworld", seed=33, blocks=4)
        test_problem.write_text(problem)
        rc = cli.main(["solve", str(domain_file), str(test_problem),
                       "--search", "partial", "--heuristic", f"model:{model_file}",
                       "--expansion-cap", "50000"])
        assert rc == 0

    def test_solve_dump_datalog(self, bw_files, tmp_path, capsys):
        domain, problem = bw_files
        rc = cli.main(["solve", str(domain), str(problem), "--search", "state",
                       "--heuristic", "ff", "--output", str(tmp_path / "p.plan"),
                       "--dump-datalog"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "holding(?x) :- clear(?x), ontable(?x), handempty." in err

    def test_model_domain_mismatch_warns_but_runs(self, bw_files, tmp_path, caplog):
        import logging
        inst_dir = tmp_path / "train"; inst_dir.mkdir()
        plan_dir = tmp_path / "plans"; plan_dir.mkdir()
        domain_text = None
        made = 0
        seed = 0
        while made < 3:
            domain_text, problem = generate("ferry-like", seed=seed, cars=2, locations=2)
            task = load_task(domain_text, problem)
            plan = oracles.bfs_plan(task)
            seed += 1
            if not plan:
                continue
            (inst_dir / f"f{made}.pddl").write_text(problem)
            lines = [f"({name} {' '.join(args)})" for name, args in plan]
            (plan_dir / f"f{made}.plan").write_text("\n".join(lines) + "\n")
            made += 1
        (tmp_path / "ferry.pddl").write_text(domain_text)
        model_file = tmp_path / "ferry.model"
        rc = cli.main(["train", str(tmp_path / "ferry.pddl"), str(inst_dir),
                       str(plan_dir), "--output", str(model_file),
                       "--c-grid", "1"])
        assert rc == 0
        # a ferry model applied to blocksworld: advisory warning, search still runs
        domain, problem = bw_files
        with caplog.at_level(logging.WARNING):
            rc = cli.main(["solve", str(domain), str(problem), "--search", "state",
                           "--heuristic", f"model:{model_file}",
                           "--expansion-cap", "1000"])
        assert rc in (0, 1)
        assert any("trained on domain" in r.message for r in caplog.records)

    @pytest.mark.parametrize("command", ["train", "generate-data"])
    def test_corpus_in_the_gen_layout(self, tmp_path, monkeypatch, command):
        """The README's layout: `pslift gen --out instances/` puts domain.pddl
        next to the problems, and training reads the instance directory with
        that domain file in it."""
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen", "blocksworld", "--blocks", "3", "--count", "3",
                         "--out", "instances/"]) == 0
        domain_text = pathlib.Path("instances/domain.pddl").read_text()
        pathlib.Path("plans").mkdir()
        for problem in pathlib.Path("instances").glob("blocksworld-*.pddl"):
            plan = oracles.bfs_plan(load_task(domain_text, problem.read_text()))
            lines = [f"({name} {' '.join(args)})" for name, args in plan]
            (pathlib.Path("plans") / f"{problem.stem}.plan").write_text("\n".join(lines) + "\n")
        rc = cli.main([command, "instances/domain.pddl", "instances/", "plans/",
                       "--c-grid", "1", "--output", "out"])
        assert rc == 0
        assert pathlib.Path("out").exists()

    def test_train_missing_plan_names_instance(self, tmp_path, capsys):
        inst_dir = tmp_path / "train"; inst_dir.mkdir()
        plan_dir = tmp_path / "plans"; plan_dir.mkdir()
        domain_text, problem = generate("blocksworld", seed=0, blocks=3)
        (inst_dir / "lonely.pddl").write_text(problem)
        domain_file = tmp_path / "domain.pddl"
        domain_file.write_text(domain_text)
        rc = cli.main(["train", str(domain_file), str(inst_dir), str(plan_dir),
                       "--output", str(tmp_path / "m.model")])
        assert rc == 2
        assert "lonely" in capsys.readouterr().err

    def test_generate_data_dump(self, tmp_path):
        inst_dir = tmp_path / "train"; inst_dir.mkdir()
        plan_dir = tmp_path / "plans"; plan_dir.mkdir()
        domain_text = None
        made = 0
        seed = 0
        while made < 2:
            domain_text, problem = generate("blocksworld", seed=seed, blocks=3)
            task = load_task(domain_text, problem)
            plan = oracles.bfs_plan(task)
            seed += 1
            if not plan:
                continue
            (inst_dir / f"p{made}.pddl").write_text(problem)
            lines = [f"({name} {' '.join(args)})" for name, args in plan]
            (plan_dir / f"p{made}.plan").write_text("\n".join(lines) + "\n")
            made += 1
        (tmp_path / "domain.pddl").write_text(domain_text)
        out_csv = tmp_path / "tuples.csv"
        rc = cli.main(["generate-data", str(tmp_path / "domain.pddl"), str(inst_dir),
                       str(plan_dir), "--output", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "kind,delta,sigma,x,x_prime"
        assert len(lines) > 1
        kinds = {l.split(",")[0] for l in lines[1:]}
        assert kinds <= {"lp", "ls", "sp", "ss"}

    @pytest.mark.parametrize("command", ["train", "generate-data"])
    @pytest.mark.parametrize("flag", ["--sibling-cap", "--iterations", "--c-grid"])
    def test_negative_cap_or_iterations_exits_2(self, tmp_path, capsys, command, flag):
        domain_file, inst_dir, plan_dir = write_blocksworld_corpus(tmp_path, 2)
        output = tmp_path / "out"
        rc = cli.main([command, str(domain_file), str(inst_dir), str(plan_dir),
                       flag, "-1", "--output", str(output)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 0, not -1" in err
        assert not output.exists()

    @pytest.mark.parametrize("command", ["train", "generate-data"])
    @pytest.mark.parametrize("option, message", [
        ("--importances=-1,1,1,1", "importance lp must be finite and at least 0, not -1"),
        ("--importances=nan,1,1,1", "importance lp must be finite and at least 0, not nan"),
        ("--split=-1", "split must lie strictly between 0 and 1, not -1"),
        ("--split=nan", "split must lie strictly between 0 and 1, not nan"),
    ], ids=["negative-importance", "nan-importance", "negative-split", "nan-split"])
    def test_bad_importance_or_split_exits_2(self, tmp_path, capsys, command, option, message):
        """A negative importance makes the LP unbounded, and a split outside
        (0, 1) or a NaN fails deep in training; both exit 2 before any work."""
        domain_file, inst_dir, plan_dir = write_blocksworld_corpus(tmp_path, 4)
        output = tmp_path / "out"
        rc = cli.main([command, str(domain_file), str(inst_dir), str(plan_dir),
                       option, "--output", str(output)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not output.exists()

    def test_report_command(self, tmp_path):
        csv_file = tmp_path / "stats.csv"
        append_record(str(csv_file), RunRecord("bw", "i1", "partial-ff", "Solved", 2,
                                               SearchStats(1, 2, 3), 5))
        out_dir = tmp_path / "report"
        rc = cli.main(["report", str(csv_file), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "coverage.csv").exists()
        assert (out_dir / "quality.csv").exists()

    def test_report_malformed_csv_exits_2(self, tmp_path, capsys):
        csv_file = tmp_path / "stats.csv"
        csv_file.write_text("bw,i1,partial-ff,Solved\n")
        rc = cli.main(["report", str(csv_file), "--out", str(tmp_path / "report")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
