"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Everything is seeded, so results are reproducible run to run.
"""

import itertools
import random
import time

import pytest

from pslift.bench import validate_plan
from pslift.generators import generate_task
from pslift.graphs import LabeledGraph, aeg, aoag, effect_partition
from pslift.lifted import (ROOT, PartialAction, _apply_effects,
                           instantiations)
from pslift.pddl import ActionSchema, Atom, Task
from pslift.ranking import (RankingTuple, TrainConfig, evaluate, generate_dataset,
                            hinge_slack, informative, load_model, satisfied_fraction,
                            save_model, train_lp, train_model)
from pslift.relaxation import (EPSILON, DatalogProgram, FFHeuristic,
                               RestrictedFFHeuristic)
from pslift.search import SOLVED, UNSOLVABLE, Limits, gbfs_partial, gbfs_state
from pslift.wl import ColorDictionary, phi, wl_features

import oracles


def conclude(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def bfs_ground_plan(task):
    plan = oracles.bfs_plan(task)
    if plan is None:
        return None
    return [PartialAction(task.schema(name), args) for name, args in plan]


def make_bw_corpus(count, blocks_cycle, min_len=4, start_seed=0):
    corpus, seed = [], start_seed
    while len(corpus) < count and seed < start_seed + 600:
        blocks = blocks_cycle[len(corpus) % len(blocks_cycle)]
        task = generate_task("blocksworld", seed=seed, blocks=blocks)
        seed += 1
        plan = bfs_ground_plan(task)
        if plan is None or len(plan) < min_len:
            continue
        corpus.append((f"bw-{seed}", task, plan))
    return corpus


def make_family_corpus(family, count, params_fn, start_seed=0, min_len=2):
    corpus, seed = [], start_seed
    while len(corpus) < count and seed < start_seed + 400:
        task = generate_task(family, seed=seed, **params_fn(len(corpus)))
        seed += 1
        plan = bfs_ground_plan(task)
        if plan is None or len(plan) < min_len:
            continue
        corpus.append((f"{family}-{seed}", task, plan))
    return corpus


@pytest.fixture(scope="module")
def bw_models():
    corpus = make_bw_corpus(20, [5, 6])
    assert len(corpus) >= 10
    models = {}
    reports = {}
    for kind in ("aoag", "aeg"):
        models[kind], reports[kind] = train_model(
            corpus, TrainConfig(graph_kind=kind), metadata={"domain": "blocksworld"})
    return corpus, models, reports


@pytest.fixture(scope="module")
def family_models(bw_models):
    _, bw, _ = bw_models
    wh_corpus = make_family_corpus(
        "warehouse-like", 6,
        lambda i: dict(stacks=2 + i % 2, boxes=3 + i % 2, marked=1), min_len=1)
    ferry_corpus = make_family_corpus(
        "ferry-like", 6, lambda i: dict(cars=2, locations=2), min_len=2)
    wh_model, _ = train_model(wh_corpus, TrainConfig(graph_kind="aoag"))
    ferry_model, _ = train_model(ferry_corpus, TrainConfig(graph_kind="aoag"))
    return {"blocksworld": bw["aoag"], "warehouse-like": wh_model,
            "ferry-like": ferry_model}


def test_criterion_1_soundness_suite(family_models):
    """200 generated instances, both search spaces, FF and a trained model:
    every returned plan validates."""
    started = time.monotonic()
    instances = []
    for i in range(80):
        instances.append(("blocksworld",
                          generate_task("blocksworld", seed=1000 + i, blocks=3 + i % 4)))
    for i in range(60):
        stacks = 2 + i % 7
        instances.append(("warehouse-like",
                          generate_task("warehouse-like", seed=1000 + i, stacks=stacks,
                                        boxes=stacks + 1 + i % 2, marked=1 + i % 2)))
    for i in range(60):
        instances.append(("ferry-like",
                          generate_task("ferry-like", seed=1000 + i, cars=1 + i % 4,
                                        locations=2 + i % 2)))
    assert len(instances) == 200

    limits = Limits(time_s=10.0, max_expansions=20_000)
    checked = invalid = solved = 0
    for family, task in instances:
        model = family_models[family]
        ff_state = FFHeuristic(task)
        ff_partial = RestrictedFFHeuristic(task)
        runs = [
            gbfs_state(task, ff_state, limits),
            gbfs_partial(task, ff_partial, limits),
            gbfs_state(task, model.state_heuristic(task), limits),
            gbfs_partial(task, model.heuristic(task), limits),
        ]
        for result in runs:
            checked += 1
            if result.status == SOLVED:
                solved += 1
                if not validate_plan(task, result.plan):
                    invalid += 1
    elapsed = time.monotonic() - started
    conclude(1, "soundness: all returned plans validate",
             invalid == 0 and solved > 0,
             f"{solved}/{checked} runs solved, {invalid} invalid, {elapsed:.0f}s")


def three_block_tower_configs():
    """All distinct ways to arrange blocks a, b, c into towers (13 of them)."""
    blocks = ("a", "b", "c")
    seen = set()
    configs = []
    for perm in itertools.permutations(blocks):
        for cut1 in range(1, 4):
            for cut2 in range(cut1, 4):
                towers = [perm[:cut1], perm[cut1:cut2], perm[cut2:]]
                towers = tuple(sorted(t for t in towers if t))
                if towers not in seen:
                    seen.add(towers)
                    configs.append(towers)
    return configs


def tower_init_atoms(towers):
    atoms = [Atom("handempty", ())]
    for tower in towers:
        atoms.append(Atom("ontable", (tower[0],)))
        for below, above in zip(tower, tower[1:]):
            atoms.append(Atom("on", (above, below)))
        atoms.append(Atom("clear", (tower[-1],)))
    return atoms


def test_criterion_2_completeness_parity(bw_domain):
    """Exhaustive 3-block family: partial-space GBFS with restricted FF solves
    exactly the configurations blind BFS solves."""
    from pslift.pddl import compile_types, Instance

    configs = three_block_tower_configs()
    assert len(configs) == 13
    on_atoms = [Atom("on", (x, y)) for x in "abc" for y in "abc" if x != y]
    goal_sets = {frozenset({g1, g2}) for g1 in on_atoms for g2 in on_atoms}
    assert len(on_atoms) == 6 and len(on_atoms) ** 2 == 36

    mismatches = []
    runs = 0
    for towers in configs:
        for goal in sorted(goal_sets, key=lambda s: sorted(str(a) for a in s)):
            inst = Instance("parity", "blocksworld",
                            [(b, "object") for b in "abc"],
                            tower_init_atoms(towers), list(goal))
            task = compile_types(bw_domain, inst)
            oracle_solves = oracles.bfs_plan(task) is not None
            result = gbfs_partial(task, RestrictedFFHeuristic(task),
                                  Limits(max_expansions=100_000))
            assert result.status in (SOLVED, UNSOLVABLE)
            runs += 1
            if (result.status == SOLVED) != oracle_solves:
                mismatches.append((towers, sorted(map(str, goal))))
            if result.status == SOLVED and not validate_plan(task, result.plan):
                mismatches.append((towers, "invalid plan"))
    conclude(2, "completeness parity with blind BFS on the 3-block family",
             not mismatches, f"{runs} init/goal pairs, {len(mismatches)} mismatches")


def walk_states(task, rng, count, steps=5):
    states = [task.initial_state]
    state = task.initial_state
    for _ in range(count * steps):
        actions = list(instantiations(task, state, ROOT))
        if not actions:
            state = task.initial_state
            continue
        state = _apply_effects(task, state, rng.choice(actions))
        states.append(state)
    rng.shuffle(states)
    return states[:count]


def test_criterion_3_restriction_oracle():
    """Restricted relaxed reachability vs the grounded fixpoint oracle."""
    domains = [
        ("blocksworld", dict(blocks=4), 21),
        ("ferry-like", dict(cars=2, locations=2), 22),
        ("warehouse-like", dict(stacks=2, boxes=3, marked=1), 23),
    ]
    checked = failures = 0
    for family, params, seed in domains:
        task = generate_task(family, seed=seed, **params)
        program = DatalogProgram(task)
        rng = random.Random(seed)
        states = walk_states(task, rng, 17)
        for state in states:
            actions = list(instantiations(task, state, ROOT))
            if not actions:
                continue
            checked += 1
            reach_full = program.relaxed_reach(state, actions)
            plain, _ = oracles.relaxed_reachable(task, state)
            if oracles.reached_atoms(program, reach_full) != plain | {(EPSILON, ())}:
                failures += 1
                continue
            action = rng.choice(actions)
            reach_one = program.relaxed_reach(state, [action])
            adds = oracles.ground_atoms(task, action.schema, action.args,
                                        action.schema.add)
            plus, _ = oracles.relaxed_reachable(task, state, extra_atoms=adds)
            if oracles.reached_atoms(program, reach_one) != plus | {(EPSILON, ())}:
                failures += 1
    conclude(3, "restriction heuristic reachability equals the grounded oracle",
             checked >= 50 and failures == 0, f"{checked} states, {failures} failures")


def test_criterion_4_graph_special_cases():
    """AOAG special cases coincide with the plain instance graph; AEG with the
    full applicable set has an empty effect partition."""
    rng = random.Random(4)
    families = [
        ("blocksworld", dict(blocks=4)),
        ("ferry-like", dict(cars=2, locations=3)),
        ("warehouse-like", dict(stacks=3, boxes=4, marked=1)),
    ]
    pairs = failures = 0
    empty_checks = 0
    while pairs < 100:
        family, params = families[pairs % len(families)]
        task = generate_task(family, seed=400 + pairs, **params)
        for state in walk_states(task, rng, 3, steps=3):
            actions = list(instantiations(task, state, ROOT))
            if not actions:
                continue
            if aoag(task, state, ROOT) != oracles.node_graph(task, state, ROOT, "aoag"):
                failures += 1
            part, s_prime = effect_partition(task, state, actions)
            empty_checks += 1
            if not part.empty or s_prime != state:
                failures += 1
            if len(actions) >= 2:
                action = rng.choice(actions)
                rho = PartialAction(action.schema, action.args)
                succ = _apply_effects(task, state, action)
                if aoag(task, state, rho) != oracles.node_graph(task, succ, ROOT, "aoag"):
                    failures += 1
            pairs += 1
            if pairs >= 100:
                break
    conclude(4, "graph special cases (root = instance graph, singleton = successor)",
             failures == 0, f"{pairs} sampled pairs, {failures} failures")


def test_criterion_5_dataset_closed_form():
    counted = mismatches = 0
    for alpha in (1, 2):
        for beta in (1, 2, 3):
            for k in (0, 1, 2):
                for n in (1, 3):
                    predicates = [("mark", 1)]
                    schemas = [ActionSchema(f"op{i}",
                                            tuple(f"?x{j}" for j in range(k)),
                                            (), (), ())
                               for i in range(alpha)]
                    objects = [f"o{i}" for i in range(beta)]
                    task = Task("syn", "s", predicates, schemas, objects, [], [])
                    rng = random.Random(alpha * 311 + beta * 37 + k * 7 + n)
                    plan = [
                        PartialAction(schemas[rng.randrange(alpha)],
                                     tuple(objects[rng.randrange(beta)]
                                           for _ in range(k)))
                        for _ in range(n)
                    ]
                    seen = {}

                    def fv(state, rho):
                        key = (state, rho)
                        if key not in seen:
                            seen[key] = {len(seen): 1}
                        return seen[key]

                    data = generate_dataset(
                        task, plan, fv,
                        {"lp": 1.0, "ls": 1.0, "sp": 1.0, "ss": 1.0})
                    counted += 1
                    if len(data) != oracles.dataset_size_closed_form(alpha, beta, k, n):
                        mismatches += 1
    conclude(5, "dataset size matches the closed form on the synthetic family",
             counted == 36 and mismatches == 0, f"{counted} combinations")


def random_graph(rng, objects=4, facts=5):
    """Objects, then facts of arity 0 to 3 on random objects, repeats
    included."""
    return LabeledGraph(
        [rng.choice(("r", "g", "b", "y")) for _ in range(objects + facts)],
        [tuple(rng.randrange(objects) for _ in range(rng.randrange(4))) for _ in range(facts)])


def permuted_graph(g, rng):
    """The same graph with its objects and its fact vertices each put in a
    random order."""
    n = len(g.colors) - len(g.args)
    objects = list(range(n))
    rng.shuffle(objects)
    new_id = {old: new for new, old in enumerate(objects)}
    facts = list(range(len(g.args)))
    rng.shuffle(facts)
    return LabeledGraph([g.colors[u] for u in objects] + [g.colors[n + j] for j in facts],
                        [tuple(new_id[u] for u in g.args[j]) for j in facts])


def test_criterion_6_wl_determinism_and_model_roundtrip(bw_models, tmp_path):
    rng = random.Random(6)
    wl_failures = 0
    for _ in range(20):
        g = random_graph(rng)
        d = ColorDictionary()
        base = wl_features(g, 2, d)
        for _ in range(10):
            if wl_features(permuted_graph(g, rng), 2, d) != base:
                wl_failures += 1

    corpus, models, _ = bw_models
    model = models["aoag"]
    path = tmp_path / "roundtrip.model"
    save_model(model, str(path))
    loaded = load_model(str(path))
    nodes_checked = roundtrip_failures = 0
    for _, task, plan in corpus:
        state = task.initial_state
        for action in plan:
            for k in range(len(action.args) + 2):
                rho = ROOT if k == 0 else PartialAction(action.schema, action.args[:k - 1])
                if evaluate(model, task, state, rho) != evaluate(loaded, task, state, rho):
                    roundtrip_failures += 1
                nodes_checked += 1
                if nodes_checked >= 100:
                    break
            state = _apply_effects(task, state, action)
            if nodes_checked >= 100:
                break
        if nodes_checked >= 100:
            break
    conclude(6, "WL permutation invariance and bit-exact model round-trip",
             wl_failures == 0 and roundtrip_failures == 0 and nodes_checked >= 100,
             f"200 permuted graphs, {nodes_checked} round-trip nodes")


def test_criterion_7_learning_end_to_end(bw_models):
    corpus, models, reports = bw_models
    held_out = []
    seed = 500
    while len(held_out) < 20:
        task = generate_task("blocksworld", seed=seed, blocks=7 + seed % 2)
        seed += 1
        if task.is_goal(task.initial_state):
            continue
        held_out.append(task)

    details = []
    ok = True
    for kind in ("aoag", "aeg"):
        model, report = models[kind], reports[kind]
        solved = 0
        for task in held_out:
            result = gbfs_partial(task, model.heuristic(task), Limits(time_s=60.0))
            if result.status == SOLVED and validate_plan(task, result.plan):
                solved += 1
        details.append(f"{kind}: {solved}/20 held-out, "
                       f"satisfaction {report.satisfied:.3f}")
        if solved < 18 or report.satisfied < 0.95:
            ok = False
    conclude(7, "learned models solve held-out instances and fit training data",
             ok, "; ".join(details))


def test_criterion_8_branching_factor_echo():
    limits = Limits(time_s=60.0)
    rows = []
    for i in range(4):
        stacks = 10 + i % 2
        task = generate_task("warehouse-like", seed=800 + i, stacks=stacks,
                             boxes=stacks + 1, marked=2)
        state_run = gbfs_state(task, FFHeuristic(task), limits)
        partial_run = gbfs_partial(task, RestrictedFFHeuristic(task), limits)
        if state_run.status == SOLVED and partial_run.status == SOLVED:
            rows.append((state_run.stats, partial_run.stats))
    assert rows, "no warehouse instance solved by both configurations"
    bf_ok = sum(1 for s, p in rows
                if p.branching_factor <= 0.5 * s.branching_factor)
    eval_ok = sum(1 for s, p in rows if p.evaluations <= s.evaluations)
    detail = "; ".join(
        f"bf {p.branching_factor:.1f} vs {s.branching_factor:.1f}, "
        f"evals {p.evaluations} vs {s.evaluations}"
        for s, p in rows)
    conclude(8, "partial space halves the branching factor on high-branching tasks",
             bf_ok == len(rows) and eval_ok >= 0.7 * len(rows), detail)


def test_criterion_9_lp_correctness(bw_models):
    corpus, models, reports = bw_models

    # hand-solvable fixtures
    single = [RankingTuple({0: 1}, {}, 1.0, 1.0, "lp")]
    res = train_lp(single, C=10.0, dim=1)
    fixtures_ok = abs(res.weights[0] - 1.0) <= 1e-9 and abs(res.slacks[0]) <= 1e-9
    res0 = train_lp(single, C=0.0, dim=1)
    fixtures_ok &= abs(res0.weights[0]) <= 1e-9
    contradictory = [RankingTuple({0: 1}, {}, 1.0, 1.0, "lp"),
                     RankingTuple({}, {0: 1}, 1.0, 1.0, "lp")]
    res2 = train_lp(contradictory, C=1.0, dim=1)
    fixtures_ok &= abs(res2.weights[0]) <= 1e-9 and abs(res2.slacks.sum() - 2.0) <= 1e-9

    # slack reconstruction on real training runs, across the whole grid
    worst = 0.0
    for kind in ("aoag", "aeg"):
        model = models[kind]
        dct = model.dictionary
        data = []
        imps = TrainConfig(graph_kind=kind).resolved_importances()
        for _, task, plan in corpus[:6]:
            def fv(state, rho, _t=task):
                return phi(_t, state, rho, kind, 2, dct)
            data.extend(generate_dataset(task, plan, fv, imps))
        data = informative(data)
        for C in (0.1, 1.0, 10.0):
            result = train_lp(data, C, len(dct))
            for t, z in zip(data, result.slacks):
                worst = max(worst, abs(hinge_slack(result.weights, t) - z))
    conclude(9, "LP fixtures exact and slacks reconstruct within 1e-6",
             fixtures_ok and worst <= 1e-6, f"worst slack gap {worst:.2e}")
