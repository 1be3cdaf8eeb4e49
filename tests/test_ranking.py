import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

from pslift.generators import generate_task
from pslift.lifted import ROOT, GroundAction, PartialAction, _apply_effects, instantiations
from pslift import ranking
from pslift.pddl import ActionSchema, Atom, Task
from pslift.ranking import (
    AOAG_IMPORTANCES,
    CorruptModel,
    FormatVersionMismatch,
    InvalidPlan,
    LinearModel,
    RankingTuple,
    TrainConfig,
    evaluate,
    generate_dataset,
    hinge_slack,
    kind_histogram,
    load_model,
    order_instances,
    save_model,
    split_train_val,
    train_lp,
    train_model,
    tune_c,
)
from pslift.wl import ColorDictionary, phi

import oracles

MODEL_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "models"

IMPS = {"lp": 1.0, "ls": 1.0, "sp": 1.0, "ss": 1.0}


def stub_phi_factory():
    """Distinct vector per (state, rho) so no tuple degenerates."""
    seen = {}

    def fn(state, rho):
        key = (state, rho)
        if key not in seen:
            seen[key] = {len(seen): 1}
        return seen[key]

    return fn


def bw2_plan(task):
    return [GroundAction(task.schema("pickup"), ("a",)),
            GroundAction(task.schema("stack"), ("a", "b"))]


class TestGenerateDataset:
    def test_bw2_step_counts_by_hand(self, bw2):
        data = generate_dataset(bw2, bw2_plan(bw2), stub_phi_factory(), IMPS)
        hist = kind_histogram(data)
        # step 0: 2 lp, 1 ls (pickup b at level 2), 2 sp, 1 ss
        # step 1: 3+1 lp, 2 ls, 3 sp, 1 ss
        assert hist == {"lp": 6, "ls": 3, "sp": 5, "ss": 2}
        assert len(data) == 16

    def test_deltas_and_sigmas(self, bw2):
        imps = {"lp": 0.5, "ls": 2.0, "sp": 0.5, "ss": 1.0}
        data = generate_dataset(bw2, bw2_plan(bw2), stub_phi_factory(), imps)
        for t in data:
            assert t.delta == (1.0 if t.kind in ("lp", "sp") else 0.0)
            assert t.sigma == imps[t.kind]

    def test_empty_plan_empty_dataset(self, bw2):
        assert generate_dataset(bw2, [], stub_phi_factory(), IMPS) == []

    def test_invalid_plan_rejected(self, bw2):
        bad = [GroundAction(bw2.schema("stack"), ("a", "b"))]
        with pytest.raises(InvalidPlan):
            generate_dataset(bw2, bad, stub_phi_factory(), IMPS)

    def test_plan_not_reaching_goal_rejected(self, bw2):
        short = [GroundAction(bw2.schema("pickup"), ("a",))]
        with pytest.raises(InvalidPlan):
            generate_dataset(bw2, short, stub_phi_factory(), IMPS)

    def test_degenerate_single_schema_task(self):
        schema = ActionSchema("tick", (), (), (Atom("done", ()),), ())
        task = Task("d", "p", [("done", 0)], [schema], ["o"], [], [Atom("done", ())])
        plan = [GroundAction(schema, ())]
        data = generate_dataset(task, plan, stub_phi_factory(), IMPS)
        # one in-state pair, one state predecessor, no siblings, no cross-state
        assert kind_histogram(data) == {"lp": 1, "ls": 0, "sp": 1, "ss": 0}
        assert len(data) == oracles.dataset_size_closed_form(1, 1, 0, 1) == 2

    def test_sibling_relations_hold(self, bw3_stack):
        plan = oracles.bfs_plan(bw3_stack)
        actions = [GroundAction(bw3_stack.schema(n), a) for n, a in plan]
        feats = {}

        def fn(state, rho):
            key = (state, rho)
            feats.setdefault(key, {len(feats): 1})
            return feats[key]

        inverse = {}

        def tracking(state, rho):
            fv = fn(state, rho)
            inverse[tuple(fv)] = (state, rho)
            return fv

        data = generate_dataset(bw3_stack, actions, tracking, IMPS)
        for t in data:
            s1, r1 = inverse[tuple(t.x)]
            s2, r2 = inverse[tuple(t.x_prime)]
            if t.kind in ("ls", "ss"):
                assert s1 == s2
                assert r1.specificity() == r2.specificity() or t.kind == "ss"
                assert r1 != r2
                applicable = list(instantiations(bw3_stack, s1, r2))
                assert applicable, "sibling must be applicable"
            if t.kind == "ss":
                assert r1.is_full and r2.is_full
            if t.kind == "sp":
                assert s1 == s2 and r2 is ROOT and r1.specificity() >= 1

    def test_sibling_cap(self, bw2):
        capped = generate_dataset(bw2, bw2_plan(bw2), stub_phi_factory(), IMPS,
                                  sibling_cap=0)
        hist = kind_histogram(capped)
        assert hist["ls"] == 0 and hist["ss"] == 0 and hist["lp"] == 6

    def test_negative_sibling_cap_rejected(self, bw2):
        """A cap of -1 would slice off the last sibling of every list."""
        with pytest.raises(ValueError, match="sibling cap"):
            generate_dataset(bw2, bw2_plan(bw2), stub_phi_factory(), IMPS, sibling_cap=-1)

    def test_negative_iterations_rejected(self, bw2):
        """Refinement with -1 iterations would count as with 0."""
        def feature_fn(state, rho):
            return phi(bw2, state, rho, "aoag", -1, ColorDictionary())

        with pytest.raises(ValueError, match="iterations"):
            generate_dataset(bw2, bw2_plan(bw2), feature_fn, IMPS)


def synthetic_task(alpha: int, beta: int, k: int) -> Task:
    """alpha schemas with k parameters, beta objects, no preconditions."""
    predicates = [("mark", 1)]
    schemas = [
        ActionSchema(f"op{i}", tuple(f"?x{j}" for j in range(k)), (), (), ())
        for i in range(alpha)
    ]
    objects = [f"o{i}" for i in range(beta)]
    return Task("synthetic", "s", predicates, schemas, objects, [], [])


class TestClosedForm:
    def test_hand_computed_values(self):
        assert oracles.dataset_size_closed_form(1, 1, 1, 1) == 4
        assert oracles.dataset_size_closed_form(2, 2, 1, 1) == 11
        assert oracles.dataset_size_closed_form(3, 2, 0, 0) == 0

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_generation_on_synthetic_family(self, alpha, beta, k, n):
        task = synthetic_task(alpha, beta, k)
        rng = random.Random(alpha * 100 + beta * 10 + k + n)
        plan = []
        for _ in range(n):
            schema = task.schemas[rng.randrange(alpha)]
            args = tuple(task.objects[rng.randrange(beta)] for _ in range(k))
            plan.append(GroundAction(schema, args))
        data = generate_dataset(task, plan, stub_phi_factory(), IMPS)
        assert len(data) == oracles.dataset_size_closed_form(alpha, beta, k, n)


class TestTrainLp:
    def test_single_tuple_prefers_weight_over_slack(self):
        data = [RankingTuple({0: 1}, {}, 1.0, 1.0, "lp")]
        res = train_lp(data, C=10.0, dim=1)
        assert res.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert res.slacks[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_c_gives_zero_weights(self):
        data = [RankingTuple({0: 1}, {}, 1.0, 1.0, "lp")]
        res = train_lp(data, C=0.0, dim=1)
        assert np.allclose(res.weights, 0.0)

    def test_contradictory_tuples_finite_with_slack(self):
        data = [
            RankingTuple({0: 1}, {}, 1.0, 1.0, "lp"),
            RankingTuple({}, {0: 1}, 1.0, 1.0, "lp"),
        ]
        res = train_lp(data, C=1.0, dim=1)
        assert res.weights[0] == pytest.approx(0.0, abs=1e-9)
        assert res.slacks.sum() == pytest.approx(2.0, abs=1e-9)

    def test_slack_reconstruction_matches_solver(self):
        rng = random.Random(2)
        dim = 12
        data = []
        for _ in range(60):
            x = {rng.randrange(dim): rng.randint(1, 3) for _ in range(3)}
            xp = {rng.randrange(dim): rng.randint(1, 3) for _ in range(3)}
            delta = float(rng.random() < 0.5)
            data.append(RankingTuple(x, xp, delta, rng.choice((0.5, 1.0, 2.0)), "lp"))
        res = train_lp(data, C=5.0, dim=dim)
        for t, z in zip(data, res.slacks):
            assert abs(hinge_slack(res.weights, t) - z) <= 1e-6

    def test_shape(self):
        """One row per tuple; columns w+, w- and one slack per tuple; two
        entries per feature that differs, plus the slack's."""
        data = [
            RankingTuple({0: 1}, {}, 1.0, 1.0, "lp"),
            RankingTuple({0: 1, 1: 2}, {1: 2, 2: 1}, 0.0, 1.0, "ls"),
        ]
        res = train_lp(data, C=1.0, dim=3)
        assert (res.rows, res.columns, res.nonzeros) == (2, 2 * 3 + 2, 3 + 5)


class TestTuneC:
    def test_single_value_grid(self):
        data = [RankingTuple({0: 1}, {}, 1.0, 1.0, "lp")]
        c, _, _ = tune_c(data, data, 1, grid=(0.25,))
        assert c == 0.25

    def test_ties_prefer_smallest(self):
        # trivially satisfiable: every C gives loss 0
        data = [RankingTuple({0: 2}, {0: 1}, 0.0, 1.0, "ls")]
        c, _, _ = tune_c(data, data, 1, grid=(10.0, 0.1, 1.0))
        assert c == 0.1

    def test_validation_drives_choice(self):
        train = [RankingTuple({0: 1}, {}, 1.0, 1.0, "lp")]
        val = [RankingTuple({0: 1}, {}, 1.0, 1.0, "lp")]
        c, res, loss = tune_c(train, val, 1, grid=(1e-3, 1e3))
        assert c == 1e3 and loss == pytest.approx(0.0, abs=1e-9)

    def test_split_80_20(self):
        items = [(f"i{n}", None, None) for n in range(10)]
        train, val = split_train_val(items, 0.8)
        assert len(train) == 8 and len(val) == 2

    def test_order_by_size_then_name(self, bw2, bw3_stack):
        ordered = order_instances([("bbb", bw3_stack, []), ("aaa", bw2, []),
                                   ("aab", bw2, [])])
        assert [n for n, _, _ in ordered] == ["aaa", "aab", "bbb"]


class TestEvaluate:
    def test_dot_product(self, bw2):
        model = LinearModel(np.array([2.0, -1.0]), ColorDictionary().freeze(), "aoag", 0)
        model.feature_vector = lambda task, state, rho: {0: 3, 1: 4}
        assert evaluate(model, bw2, bw2.initial_state, ROOT) == 2.0

    def test_zero_weights(self, bw2):
        d = ColorDictionary()
        phi(bw2, bw2.initial_state, ROOT, "aoag", 2, d)
        d.freeze()
        model = LinearModel(np.zeros(len(d)), d, "aoag", 2)
        assert evaluate(model, bw2, bw2.initial_state, ROOT) == 0.0

    def test_search_adapter_negates(self, bw2):
        d = ColorDictionary()
        fv = phi(bw2, bw2.initial_state, ROOT, "aoag", 2, d)
        d.freeze()
        w = np.zeros(len(d))
        for i in fv:
            w[i] = 1.0
        model = LinearModel(w, d, "aoag", 2)
        score = evaluate(model, bw2, bw2.initial_state, ROOT)
        assert model.state_heuristic(bw2)(bw2.initial_state) == -score
        assert model.heuristic(bw2)(bw2.initial_state, ROOT) == -score


def tiny_corpus(n=6, blocks=(3, 4)):
    corpus = []
    seed = 0
    while len(corpus) < n:
        task = generate_task("blocksworld", seed=seed, blocks=blocks[len(corpus) % len(blocks)])
        seed += 1
        plan_keys = oracles.bfs_plan(task)
        if not plan_keys:
            continue
        plan = [GroundAction(task.schema(name), args) for name, args in plan_keys]
        corpus.append((f"bw-{seed}", task, plan))
    return corpus


class TestTrainModel:
    def test_pipeline_and_report(self):
        corpus = tiny_corpus()
        model, report = train_model(corpus, TrainConfig(graph_kind="aoag"))
        assert report.dataset_size == sum(report.kind_counts.values())
        assert report.train_tuples + report.val_tuples + report.degenerate == report.dataset_size
        assert report.chosen_c in TrainConfig().c_grid
        assert len(model.weights) == len(model.dictionary)
        assert model.metadata["c"] == repr(report.chosen_c)

    def test_partial_dataset_larger_than_state_sibling_subset(self):
        corpus = tiny_corpus()
        _, report = train_model(corpus, TrainConfig(graph_kind="aoag"))
        assert report.ss_only_ratio > 1.0

    def test_report_counts_dictionary(self):
        model, report = train_model(tiny_corpus(n=3), TrainConfig(graph_kind="aeg"))
        assert report.dictionary_size == len(model.dictionary) > 0

    def test_report_gives_lp_shape_and_seconds_per_c(self):
        grid = (10.0, 0.1, 1.0)
        _, report = train_model(tiny_corpus(n=3), TrainConfig(graph_kind="aoag", c_grid=grid))
        rows, columns, nonzeros = report.lp_shape
        assert rows == report.train_tuples
        assert columns == 2 * report.dictionary_size + rows
        assert nonzeros > rows
        assert [c for c, _ in report.c_seconds] == sorted(grid)
        assert all(seconds > 0 for _, seconds in report.c_seconds)

    def test_needs_two_instances(self, bw2):
        with pytest.raises(ValueError):
            split_train_val([("one", bw2, [])], 0.8)

    def test_negative_iterations_rejected(self):
        """load_model rejects a negative iteration count, so training does
        not write one."""
        with pytest.raises(ValueError):
            train_model(tiny_corpus(n=2), TrainConfig(iterations=-1))

    def test_negative_sibling_cap_rejected(self):
        with pytest.raises(ValueError, match="sibling cap"):
            train_model(tiny_corpus(n=2), TrainConfig(sibling_cap=-1))

    @pytest.mark.parametrize("c", [-1.0, -0.5, math.nan, math.inf])
    def test_bad_c_rejected(self, c):
        """A negative C makes the LP unbounded, and a C that is not finite
        fails inside the solver; the config rejects both before training."""
        with pytest.raises(ValueError, match="finite and at least 0"):
            TrainConfig(c_grid=(1.0, c))

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_bad_importance_rejected(self, sigma):
        """A negative importance makes the LP unbounded, and one that is not
        finite fails inside the solver; the config rejects both."""
        with pytest.raises(ValueError, match="importance ss must be finite and at least 0"):
            TrainConfig(importances={"lp": 1.0, "ls": 1.0, "sp": 1.0, "ss": sigma})

    @pytest.mark.parametrize("fields,message", [
        (dict(importances={"lp": 1.0, "ls": 1.0}), "exactly the keys"),
        (dict(importances={}), "exactly the keys"),
        (dict(importances={"lp": 1.0, "ls": 1.0, "sp": 1.0, "ss": 1.0, "pp": 1.0}),
         "exactly the keys"),
        (dict(graph_kind="gnn"), "unknown graph kind"),
        (dict(iterations=-1), "WL iterations"),
        (dict(sibling_cap=-1), "sibling cap"),
    ], ids=["missing-importance", "no-importances", "unknown-importance",
            "unknown-graph-kind", "negative-iterations", "negative-sibling-cap"])
    def test_bad_field_rejected_up_front(self, fields, message):
        """The config rejects these before featurisation starts, where a
        missing importance would fail as a bare KeyError and an unknown graph
        kind would get the AOAG importances."""
        with pytest.raises(ValueError, match=message):
            TrainConfig(**fields)

    @pytest.mark.parametrize("split", [-1.0, 0.0, 1.0, 2.0, math.nan])
    def test_split_outside_the_open_unit_interval_rejected(self, split):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            TrainConfig(split=split)


class TestArgmaxSanity:
    def test_plan_action_outranks_state_siblings(self):
        """On its own training steps, the trained model scores the plan's fully
        instantiated node strictly above every other applicable action for the
        vast majority of steps."""
        corpus = tiny_corpus(n=10, blocks=(5, 6))
        model, _ = train_model(corpus, TrainConfig(graph_kind="aoag"))
        steps = good = 0
        for _, task, plan in corpus:
            state = task.initial_state
            for action in plan:
                siblings = [a for a in instantiations(task, state, ROOT) if a != action]
                if siblings:
                    steps += 1
                    chosen = evaluate(model, task, state,
                                      PartialAction(action.schema, action.args))
                    if all(chosen > evaluate(model, task, state,
                                             PartialAction(a.schema, a.args))
                           for a in siblings):
                        good += 1
                state = _apply_effects(task, state, action)
        assert steps > 0
        assert good / steps >= 0.9, f"{good}/{steps}"


def write_golden_model(kind: str, path) -> None:
    model, _ = train_model(tiny_corpus(), TrainConfig(graph_kind=kind))
    save_model(model, str(path))


class TestModelIO:
    @pytest.mark.parametrize("kind", ["aoag", "aeg"])
    def test_trained_model_matches_golden_bytes(self, tmp_path, kind):
        """Training on the tiny corpus writes the recorded model byte for byte,
        and loading and saving that file again reproduces it."""
        golden = (MODEL_FIXTURES / f"tiny-{kind}.model").read_bytes()
        trained = tmp_path / "trained.model"
        write_golden_model(kind, trained)
        assert trained.read_bytes() == golden
        resaved = tmp_path / "resaved.model"
        save_model(load_model(str(MODEL_FIXTURES / f"tiny-{kind}.model")), str(resaved))
        assert resaved.read_bytes() == golden

    def test_roundtrip_preserves_evaluations(self, tmp_path):
        corpus = tiny_corpus()
        model, _ = train_model(corpus, TrainConfig(graph_kind="aoag"))
        path = tmp_path / "m.model"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.graph_kind == model.graph_kind
        assert loaded.iterations == model.iterations
        checked = 0
        for _, task, plan in corpus[:2]:
            state = task.initial_state
            for action in plan:
                nodes = [ROOT] + [
                    PartialAction(action.schema, action.args[:k])
                    for k in range(len(action.args) + 1)
                ]
                for rho in nodes:
                    a = evaluate(model, task, state, rho)
                    b = evaluate(loaded, task, state, rho)
                    assert a == b  # bit-identical
                    checked += 1
                state = _apply_effects(task, state, action)
        assert checked >= 20

    def test_truncated_file_rejected(self, tmp_path):
        corpus = tiny_corpus(n=2)
        model, _ = train_model(corpus, TrainConfig(graph_kind="aoag"))
        path = tmp_path / "m.model"
        save_model(model, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptModel):
            load_model(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        corpus = tiny_corpus(n=2)
        model, _ = train_model(corpus, TrainConfig(graph_kind="aoag"))
        path = tmp_path / "m.model"
        save_model(model, str(path))
        text = path.read_text().replace("LLMODEL v1", "LLMODEL v9", 1)
        path.write_text(text)
        with pytest.raises(FormatVersionMismatch):
            load_model(str(path))

    def test_checksum_mismatch_rejected(self, tmp_path):
        corpus = tiny_corpus(n=2)
        model, _ = train_model(corpus, TrainConfig(graph_kind="aoag"))
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2] + " "
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptModel):
            load_model(str(path))

    @pytest.mark.parametrize("kind,iterations", [
        ("xyz", 2), ("aoag", -1), ("aeg", "two"), ("aoag", "1.5")])
    def test_unusable_header_rejected(self, tmp_path, kind, iterations):
        """A checksummed model with an unknown graph kind, or an iteration
        count that is not a non-negative integer, is corrupt."""
        path = tmp_path / "m.model"
        save_model(LinearModel(np.zeros(0), ColorDictionary(), kind, iterations), str(path))
        with pytest.raises(CorruptModel):
            load_model(str(path))

    @pytest.mark.parametrize("entries", [
        pytest.param([("c|a", 0), ("c|b", 5)], id="not-dense"),
        pytest.param([("c|a", 0), ("c|a", 1)], id="duplicate"),
        pytest.param([("c|a", 0), ("s|x|1,2", 1)], id="malformed"),
        pytest.param([("c|a", 0), ("zz", 1)], id="unknown-tag"),
        pytest.param([("s|0|1,2", 0), ("s|00|1,2", 1)], id="non-canonical"),
        pytest.param([("c|a", 0), ("s|-1|0,0", 1)], id="placeholder-id"),
    ])
    def test_bad_dictionary_rejected(self, tmp_path, entries):
        """A checksummed file whose dictionary does not read back as one that
        training could have written is corrupt."""
        lines = ["LLMODEL v1 aoag 2", "meta", f"dict {len(entries)}"]
        lines += [f"{key}\t{idx}" for key, idx in entries]
        lines.append("weights 0")
        body = "\n".join(lines) + "\n"
        path = tmp_path / "m.model"
        path.write_text(body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n")
        with pytest.raises(CorruptModel):
            load_model(str(path))

    @pytest.mark.parametrize("weights", [
        pytest.param([(-1, 1.0)], id="negative-index"),
        pytest.param([(2, 1.0)], id="index-out-of-range"),
        pytest.param([(0, 1.0), (0, 2.0)], id="repeated-index"),
        pytest.param([(1, 1.0), (0, 2.0)], id="descending-index"),
        pytest.param([(0, math.nan)], id="nan"),
        pytest.param([(1, math.inf)], id="inf"),
        pytest.param([(0, -math.inf)], id="minus-inf"),
    ])
    def test_bad_weights_rejected(self, tmp_path, weights):
        """A checksummed file whose weights are not the ascending, finite
        entries of dictionary indices that save_model writes is corrupt."""
        path = tmp_path / "m.model"

        def write(entries):
            lines = ["LLMODEL v1 aoag 2", "meta", "dict 2", "c|a\t0", "c|b\t1",
                     f"weights {len(entries)}"]
            lines += [f"{i}\t{v!r}" for i, v in entries]
            body = "\n".join(lines) + "\n"
            path.write_text(body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n")

        write(weights)
        with pytest.raises(CorruptModel):
            load_model(str(path))
        write([(0, 1.5), (1, -2.0)])   # the same file with good weights loads
        assert list(load_model(str(path)).weights) == [1.5, -2.0]

    @pytest.mark.parametrize("tag,wrong", [("dict", "dixt"), ("weights", "weighs")])
    def test_wrong_section_tag_rejected_under_O(self, tmp_path, tag, wrong):
        """A checksummed file with a misspelt section tag is corrupt, also
        when Python runs with assertions off."""
        corpus = tiny_corpus(n=2)
        model, _ = train_model(corpus, TrainConfig(graph_kind="aoag"))
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()[:-1]
        lines = [f"{wrong} {line.split()[1]}" if line.startswith(f"{tag} ") else line
                 for line in lines]
        body = "\n".join(lines) + "\n"
        path.write_text(body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n")
        script = ("import sys\nfrom pslift.ranking import CorruptModel, load_model\n"
                  "try:\n    load_model(sys.argv[1])\nexcept CorruptModel as exc:\n"
                  "    print(exc)\nelse:\n    print('loaded')\n")
        src = str(pathlib.Path(ranking.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script, str(path)],
                              capture_output=True, text=True, env=env, check=True)
        assert repr(wrong) in done.stdout


if __name__ == "__main__":
    # Regenerate the golden models (only when a change of model is intended):
    #     PYTHONPATH=src python tests/test_ranking.py
    MODEL_FIXTURES.mkdir(parents=True, exist_ok=True)
    for graph_kind in ("aoag", "aeg"):
        write_golden_model(graph_kind, MODEL_FIXTURES / f"tiny-{graph_kind}.model")
