"""Ranking datasets from training plans, the L1-regularized ranking LP, the
regularization-strength grid search, and learned-model packaging.

Each plan action is decomposed into its chain of partial actions and paired
with the state it was applied in. Four tuple families rank (feature vectors
of) nodes against each other: later chain elements beat earlier ones (and a
state's root node beats the previous state's final action node), chain elements
beat their applicable same-specificity alternatives, chain elements beat the
state's root node, and the chosen action beats every other applicable action.
Predecessor-style tuples demand a margin of 1, sibling-style tuples a margin
of 0, and each family carries its own importance weight.

A learned heuristic computes its value once per graph key and search: the key
of a node (`graphs.aoag_key`, `graphs.aeg_key`) fixes its graph and the
graph's vertex order, so equal keys give the same feature vector, summed in
the same order, and the same value. Search and training featurize through the
same graphs and the same WL code, each with one WL base graph per task (see
`wl`).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from . import wl
from .lifted import ROOT, PartialAction, _apply_effects, children, decompose, is_applicable
from .pddl import Task
from .wl import AEG, AOAG, GRAPH_KINDS, ColorDictionary, FeatureVector, phi

KINDS = ("lp", "ls", "sp", "ss")

AOAG_IMPORTANCES = {"lp": 0.5, "ls": 2.0, "sp": 0.5, "ss": 1.0}
AEG_IMPORTANCES = {"lp": 0.5, "ls": 2.0, "sp": 0.5, "ss": 0.75}
DEFAULT_C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)

MODEL_MAGIC = "LLMODEL"
MODEL_VERSION = "v1"


class InvalidPlan(Exception):
    pass


class SolverFailure(Exception):
    pass


class FormatVersionMismatch(ValueError):
    pass


class CorruptModel(ValueError):
    pass


@dataclass
class RankingTuple:
    x: FeatureVector
    x_prime: FeatureVector
    delta: float
    sigma: float
    kind: str


def default_importances(graph_kind: str) -> dict[str, float]:
    return dict(AEG_IMPORTANCES if graph_kind.lower() == AEG else AOAG_IMPORTANCES)


@dataclass
class TrainConfig:
    graph_kind: str = AOAG
    iterations: int = 2
    importances: dict[str, float] | None = None
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    split: float = 0.8
    sibling_cap: int | None = None

    def __post_init__(self):
        if self.graph_kind.lower() not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.graph_kind!r}")
        _check_count("WL iterations", self.iterations)
        _check_sibling_cap(self.sibling_cap)
        if self.importances is not None and sorted(self.importances) != sorted(KINDS):
            raise ValueError(f"importances need exactly the keys {', '.join(KINDS)}, "
                             f"not {', '.join(sorted(self.importances)) or 'none'}")
        if not self.c_grid:
            raise ValueError("the C grid must hold at least one value")
        for c in self.c_grid:
            if not (math.isfinite(c) and c >= 0):
                raise ValueError(f"C must be finite and at least 0, not {c:g}")
        for kind, sigma in (self.importances or {}).items():
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(
                    f"importance {kind} must be finite and at least 0, not {sigma:g}")
        if not 0 < self.split < 1:
            raise ValueError(f"split must lie strictly between 0 and 1, not {self.split:g}")

    def resolved_importances(self) -> dict[str, float]:
        return self.importances or default_importances(self.graph_kind)


# ---------------------------------------------------------------------------
# dataset generation

def _applicable_levels(task: Task, state) -> list[list[PartialAction]]:
    """Applicable partial actions grouped by specificity (index = specificity)."""
    levels: list[list[PartialAction]] = [[ROOT]]
    while levels[-1]:
        nxt: list[PartialAction] = []
        for rho in levels[-1]:
            nxt.extend(children(task, state, rho))
        levels.append(nxt)
    return levels[:-1]


def _check_count(what: str, value: int) -> None:
    """Raise ValueError unless `value` is an int, not a bool, of at least 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be at least 0, not {value}")


def _check_sibling_cap(sibling_cap: int | None) -> None:
    if sibling_cap is not None:
        _check_count("sibling cap", sibling_cap)


def generate_dataset(
    task: Task,
    plan: list[PartialAction],
    feature_fn,
    importances: dict[str, float],
    sibling_cap: int | None = None,
) -> list[RankingTuple]:
    """All four tuple families for every step of a valid plan.

    `feature_fn(state, rho)` maps a search node to its feature vector; it is
    called at each use of a node, so callers that featurize through WL pass
    `wl.keyed_features`, which refines each graph once. Sibling
    enumeration is unlimited unless `sibling_cap` bounds each sibling list
    (deterministically, keeping the first entries). Raises ValueError for a
    negative cap.
    """
    _check_sibling_cap(sibling_cap)
    tuples: list[RankingTuple] = []

    def cap(items):
        return items if sibling_cap is None else items[:sibling_cap]

    state = task.initial_state
    prev: tuple | None = None
    for step, action in enumerate(plan):
        if not is_applicable(task, state, action):
            raise InvalidPlan(f"step {step}: {action!r} is not applicable")
        seq = decompose(action)
        levels = _applicable_levels(task, state)

        for i in range(len(seq) - 1):
            tuples.append(
                RankingTuple(feature_fn(state, seq[i + 1]), feature_fn(state, seq[i]), 1.0,
                             importances["lp"], "lp")
            )
        if prev is not None:
            prev_state, prev_rho = prev
            tuples.append(
                RankingTuple(feature_fn(state, ROOT), feature_fn(prev_state, prev_rho), 1.0,
                             importances["lp"], "lp")
            )

        for rho in seq:
            level = levels[rho.specificity()]
            for sib in cap([r for r in level if r != rho]):
                tuples.append(
                    RankingTuple(feature_fn(state, rho), feature_fn(state, sib), 0.0,
                                 importances["ls"], "ls")
                )

        for rho in seq[1:]:
            tuples.append(
                RankingTuple(feature_fn(state, rho), feature_fn(state, ROOT), 1.0,
                             importances["sp"], "sp")
            )

        full = seq[-1]
        others = [r for lvl in levels for r in lvl if r.is_full and r != full]
        for sib in cap(others):
            tuples.append(
                RankingTuple(feature_fn(state, full), feature_fn(state, sib), 0.0,
                             importances["ss"], "ss")
            )

        prev = (state, action)
        state = _apply_effects(task, state, action)

    if plan and not task.is_goal(state):
        raise InvalidPlan("plan does not reach the goal")
    return tuples


def kind_histogram(dataset: list[RankingTuple]) -> dict[str, int]:
    hist = {k: 0 for k in KINDS}
    for t in dataset:
        hist[t.kind] += 1
    return hist


# ---------------------------------------------------------------------------
# the ranking LP
#
#   min  C * sum_i sigma_i z_i + ||w||_1
#   s.t. w^T (x_i - x'_i) >= delta_i - z_i,   z >= 0
#
# ||w||_1 splits into w = w+ - w- with nonnegative parts. Solved directly with
# all constraints (HiGHS); column/constraint generation is unnecessary at the
# dataset sizes this package targets.

@dataclass
class LPResult:
    weights: np.ndarray
    slacks: np.ndarray
    objective: float
    rows: int
    columns: int
    nonzeros: int


def _diff(x: FeatureVector, x_prime: FeatureVector) -> dict[int, float]:
    d = {i: float(c) for i, c in x.items()}
    for i, c in x_prime.items():
        d[i] = d.get(i, 0.0) - c
    return {i: v for i, v in d.items() if v != 0.0}


def train_lp(dataset: list[RankingTuple], C: float, dim: int) -> LPResult:
    if not dataset:
        raise ValueError("empty training dataset")
    m = len(dataset)
    rows, cols, vals = [], [], []
    b_ub = np.empty(m)
    for i, t in enumerate(dataset):
        for j, v in _diff(t.x, t.x_prime).items():
            rows.append(i)
            cols.append(j)
            vals.append(-v)
            rows.append(i)
            cols.append(dim + j)
            vals.append(v)
        rows.append(i)
        cols.append(2 * dim + i)
        vals.append(-1.0)
        b_ub[i] = -t.delta
    a_ub = sp.coo_matrix((vals, (rows, cols)), shape=(m, 2 * dim + m)).tocsr()
    c = np.concatenate(
        [np.ones(2 * dim), np.array([C * t.sigma for t in dataset])]
    )
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        raise SolverFailure(res.message)
    w = res.x[:dim] - res.x[dim : 2 * dim]
    z = res.x[2 * dim :]
    return LPResult(w, z, float(res.fun), *a_ub.shape, a_ub.nnz)


def sparse_dot(w, fv: FeatureVector) -> float:
    """w . fv, added up in the key order of fv. `w` is an array or a list of
    floats; both give the same sum, and a list is faster to index."""
    total = 0.0
    for i, c in fv.items():
        total += w[i] * c
    return float(total)


def hinge_slack(w: np.ndarray, t: RankingTuple) -> float:
    return max(0.0, t.delta - (sparse_dot(w, t.x) - sparse_dot(w, t.x_prime)))


def weighted_loss(w: np.ndarray, dataset: list[RankingTuple]) -> float:
    return sum(t.sigma * hinge_slack(w, t) for t in dataset)


def satisfied_fraction(w: np.ndarray, dataset: list[RankingTuple], tol: float = 0.01) -> float:
    if not dataset:
        return 1.0
    ok = sum(1 for t in dataset if hinge_slack(w, t) <= tol)
    return ok / len(dataset)


def tune_c(
    train_data: list[RankingTuple],
    val_data: list[RankingTuple],
    dim: int,
    grid: tuple[float, ...] = DEFAULT_C_GRID,
    seconds: list | None = None,
) -> tuple[float, LPResult, float]:
    """Grid search over C, minimizing the importance-weighted hinge loss on the
    validation tuples; ties go to the smallest (most regularized) C. If
    `seconds` is given, (C, wall seconds of its LP) is appended to it for
    each C, in ascending order of C."""
    best = None
    for C in sorted(grid):
        started = time.perf_counter()
        result = train_lp(train_data, C, dim)
        if seconds is not None:
            seconds.append((C, time.perf_counter() - started))
        loss = weighted_loss(result.weights, val_data)
        if best is None or loss < best[2] - 1e-12:
            best = (C, result, loss)
    return best


# ---------------------------------------------------------------------------
# learned models

@dataclass
class LinearModel:
    weights: np.ndarray
    dictionary: ColorDictionary
    graph_kind: str
    iterations: int
    metadata: dict[str, str] = field(default_factory=dict)

    def feature_vector(self, task: Task, state, rho: PartialAction) -> FeatureVector:
        return phi(task, state, rho, self.graph_kind, self.iterations, self.dictionary)

    # The LP's ranking constraints give better nodes *higher* scores, while
    # best-first search minimizes. The search-facing adapters therefore negate
    # the raw score; evaluate() itself stays the plain dot product.

    def heuristic(self, task: Task):
        """Action-set heuristic callable (state, rho) -> float, lower is better."""
        score = self._scorer(task)

        def h(state, rho):
            return -score(state, rho)

        return h

    def state_heuristic(self, task: Task):
        """State-space heuristic callable, lower is better (evaluates the root)."""
        score = self._scorer(task)

        def h(state):
            return -score(state, ROOT)

        return h

    def _scorer(self, task: Task):
        """(state, rho) -> evaluate(self, task, state, rho), computed once per
        graph key by `wl.keyed_features`; equal vectors with the same key
        order give the same sum. Each call has its own scores and WL base
        graph for the task, so a search that builds its own heuristic keeps
        them for that search only."""
        return wl.keyed_features(task, self.graph_kind, self.iterations, self.dictionary,
                                 partial(sparse_dot, self.weights.tolist()))


def evaluate(model: LinearModel, task: Task, state, rho: PartialAction) -> float:
    """Dot product of the learned weights with the node's feature vector."""
    return sparse_dot(model.weights, model.feature_vector(task, state, rho))


def save_model(model: LinearModel, path: str) -> None:
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION} {model.graph_kind} {model.iterations}"]
    meta = " ".join(f"{k}={v}" for k, v in sorted(model.metadata.items()))
    lines.append(f"meta {meta}".rstrip())
    items = sorted(model.dictionary.items(), key=lambda kv: kv[1])
    lines.append(f"dict {len(items)}")
    lines.extend(f"{key}\t{idx}" for key, idx in items)
    nonzero = [(i, float(v)) for i, v in enumerate(model.weights) if v != 0.0]
    lines.append(f"weights {len(nonzero)}")
    lines.extend(f"{i}\t{v!r}" for i, v in nonzero)
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as f:
        f.write(body)
        f.write(f"checksum {digest}\n")


def load_model(path: str) -> LinearModel:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MODEL_MAGIC):
        raise CorruptModel("missing model header")
    header = lines[0].split()
    if len(header) != 4 or header[1] != MODEL_VERSION:
        raise FormatVersionMismatch(lines[0])
    if not lines[-1].startswith("checksum "):
        raise CorruptModel("missing checksum line")
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if lines[-1].split()[1] != digest:
        raise CorruptModel("checksum mismatch")

    graph_kind, iterations = header[2], header[3]
    if graph_kind not in GRAPH_KINDS:
        raise CorruptModel(f"unknown graph kind {graph_kind!r}")
    if not (iterations.isascii() and iterations.isdigit()):
        raise CorruptModel(f"iterations must be a non-negative integer, not {iterations!r}")
    iterations = int(iterations)
    metadata: dict[str, str] = {}
    pos = 1
    if pos < len(lines) and lines[pos].startswith("meta"):
        for part in lines[pos].split()[1:]:
            k, _, v = part.partition("=")
            metadata[k] = v
        pos += 1
    try:
        tag, count = lines[pos].split()
        if tag != "dict":
            raise CorruptModel(f"expected a 'dict' section, found {tag!r}")
        n_dict = int(count)
        items = []
        for line in lines[pos + 1 : pos + 1 + n_dict]:
            key, idx = line.split("\t")
            items.append((key, int(idx)))
        dictionary = ColorDictionary.from_items(items)
        pos += 1 + n_dict
        tag, count = lines[pos].split()
        if tag != "weights":
            raise CorruptModel(f"expected a 'weights' section, found {tag!r}")
        n_w = int(count)
        weights = np.zeros(n_dict)
        last = -1
        for line in lines[pos + 1 : pos + 1 + n_w]:
            i, v = line.split("\t")
            i, v = int(i), float(v)
            # save_model writes finite weights by ascending index
            if not (last < i < n_dict and math.isfinite(v)):
                raise CorruptModel(f"weight {i}: {v} after index {last} of {n_dict}")
            weights[i] = v
            last = i
        pos += 1 + n_w
        if pos != len(lines) - 1:
            raise CorruptModel("trailing or missing content")
    except (ValueError, IndexError) as exc:
        raise CorruptModel(str(exc)) from exc
    return LinearModel(weights, dictionary, graph_kind, iterations, metadata)


# ---------------------------------------------------------------------------
# full training pipeline

@dataclass
class TrainReport:
    dataset_size: int
    kind_counts: dict[str, int]
    chosen_c: float
    validation_loss: float
    train_tuples: int
    val_tuples: int
    train_instances: list[str]
    val_instances: list[str]
    satisfied: float
    ss_only_ratio: float
    dictionary_size: int
    lp_shape: tuple[int, int, int]  # rows, columns, nonzeros
    c_seconds: list[tuple[float, float]]  # (C, wall seconds of its LP)
    degenerate: int = 0


def informative(dataset: list[RankingTuple]) -> list[RankingTuple]:
    """Drop pairs whose two feature vectors coincide. Such pairs arise from the
    graph encodings' special cases (e.g. a state's root node and the previous
    state's final action node share one graph); their slack is a constant, so
    they cannot influence the LP optimum and only distort loss statistics."""
    return [t for t in dataset if t.x != t.x_prime]


def order_instances(instances: list[tuple[str, Task, list[PartialAction]]]):
    """Ascending by problem size (object count), ties by name."""
    return sorted(instances, key=lambda item: (len(item[1].objects), item[0]))


def split_train_val(instances, ratio: float):
    if len(instances) < 2:
        raise ValueError("training needs at least two instances")
    n_train = max(1, min(len(instances) - 1, int(len(instances) * ratio)))
    return instances[:n_train], instances[n_train:]


def train_model(
    instances: list[tuple[str, Task, list[PartialAction]]],
    config: TrainConfig | None = None,
    metadata: dict[str, str] | None = None,
) -> tuple[LinearModel, TrainReport]:
    """End-to-end: order and split instances, grow the color dictionary on the
    training share, freeze it, featurize validation, tune C, package."""
    config = config or TrainConfig()
    importances = config.resolved_importances()
    ordered = order_instances(instances)
    train_part, val_part = split_train_val(ordered, config.split)

    dictionary = ColorDictionary()

    def dataset_for(name, task, plan):
        feature_fn = wl.keyed_features(task, config.graph_kind, config.iterations, dictionary)
        try:
            return generate_dataset(task, plan, feature_fn, importances, config.sibling_cap)
        except InvalidPlan as exc:
            raise InvalidPlan(f"{name}: {exc}") from exc

    raw_train: list[RankingTuple] = []
    for name, task, plan in train_part:
        raw_train.extend(dataset_for(name, task, plan))
    dictionary.freeze()
    raw_val: list[RankingTuple] = []
    for name, task, plan in val_part:
        raw_val.extend(dataset_for(name, task, plan))

    train_data = informative(raw_train)
    val_data = informative(raw_val)
    if not train_data:
        raise InvalidPlan("no training tuples (are all training plans empty?)")

    dim = len(dictionary)
    c_seconds: list = []
    chosen_c, result, val_loss = tune_c(train_data, val_data, dim, config.c_grid, c_seconds)

    model = LinearModel(
        result.weights,
        dictionary,
        config.graph_kind.lower(),
        config.iterations,
        dict(metadata or {}),
    )
    model.metadata.setdefault("c", repr(chosen_c))

    counts = kind_histogram(raw_train + raw_val)
    ss = counts["ss"]
    total = len(raw_train) + len(raw_val)
    report = TrainReport(
        dataset_size=total,
        kind_counts=counts,
        chosen_c=chosen_c,
        validation_loss=val_loss,
        train_tuples=len(train_data),
        val_tuples=len(val_data),
        train_instances=[n for n, _, _ in train_part],
        val_instances=[n for n, _, _ in val_part],
        satisfied=satisfied_fraction(result.weights, train_data),
        ss_only_ratio=total / ss if ss else math.inf,
        dictionary_size=dim,
        lp_shape=(result.rows, result.columns, result.nonzeros),
        c_seconds=c_seconds,
        degenerate=total - len(train_data) - len(val_data),
    )
    return model, report
