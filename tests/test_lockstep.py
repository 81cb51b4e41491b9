"""The lr grid's lockstep training: a stack of C models stepped together must
give, candidate for candidate, the bits of C one-rate trainings run one at a
time, and a failing grid must surface exactly the error that the run through
the grid in order raises."""

import re
from dataclasses import replace

import numpy as np
import pytest

import comlabel.experiment as experiment
import comlabel.optim as optim
from comlabel.dataset import MultiLabelDataset, make_uniform_cl_spec, sample_from_generative
from comlabel.loss import batch_objective
from comlabel.model import LinearModel, forward
from comlabel.optim import (
    LEARNING_RATE_GRID,
    NonFiniteGradientError,
    TrainConfig,
    adam_step,
    init_adam,
    train_cl_predictor,
    train_clrl,
    train_mlcl,
    train_supervised,
)
from comlabel.transition import save_transition_csv

sp = pytest.importorskip("scipy.sparse")

C = len(LEARNING_RATE_GRID)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_transitions(rng, count, K):
    T = rng.uniform(0.1, 1.0, (count, K, K))
    T[:, np.arange(K), np.arange(K)] = 0.0
    return T / T.sum(axis=2, keepdims=True)


class TestStackedProducts:
    """Each candidate's slice of the stacked forward and gradients equals its
    own 2-D computation, bit for bit, across batch and model shapes."""

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("n", [1, 7, 256])
    @pytest.mark.parametrize("K", [3, 6, 14, 15])
    @pytest.mark.parametrize("d", [1, 7, 103, 294, 1000])
    def test_slices_bit_equal(self, d, K, n, fmt):
        rng = np.random.default_rng(d * 10_000 + K * 1000 + n)
        X = rng.standard_normal((n, d))
        if fmt == "csr":
            X[rng.random((n, d)) < 0.7] = 0.0
            X = sp.csr_matrix(X)
        W = rng.standard_normal((C, K, d)) / np.sqrt(d)
        b = rng.standard_normal((C, K))
        T = random_transitions(rng, C, K)
        cl = rng.integers(0, K, n)
        y = rng.integers(0, 2, (n, K)).astype(np.float64)
        cases = [
            ("softmax", "ce_softmax", {"cl": cl}, {}),
            ("sigmoid", "mlcl", {"cl": cl, "beta": 0.7}, {"T": T}),
            ("sigmoid", "clrl", {"cl": cl, "relevant": y}, {"T": T}),
            ("sigmoid", "bce_supervised", {"y": y}, {}),
        ]
        for head, kind, shared, stacked in cases:
            stack = LinearModel(W, b, head)
            F = forward(stack, X)
            value, gW, gb = batch_objective(stack, X, kind, **shared, **stacked)
            assert F.shape == (C, n, K) and gW.shape == W.shape and gb.shape == b.shape
            for c in range(C):
                one = LinearModel(W[c], b[c], head)
                assert same_bits(F[c], forward(one, X)), (kind, c)
                want = batch_objective(one, X, kind, **shared, **{k: v[c] for k, v in stacked.items()})
                for got, expected in zip((value[c], gW[c], gb[c]), want):
                    assert same_bits(got, expected), (kind, c)


class TestStackedAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_each_candidate_steps_as_alone(self, weight_decay):
        rng = np.random.default_rng(5)
        rates = np.array(LEARNING_RATE_GRID)
        P = rng.standard_normal((C, 4, 8))  # (C, K, d+1)
        singles = [P[c : c + 1].copy() for c in range(C)]  # one-rate stacks
        state, single_states = init_adam(P), [init_adam(s) for s in singles]
        cfg = TrainConfig(weight_decay=weight_decay)
        for _ in range(40):
            G = rng.standard_normal(P.shape) * 10.0 ** rng.integers(-4, 3, size=P.shape[-1])  # a scale per column
            adam_step(P, G, state, cfg, rates)
            for c in range(C):
                adam_step(singles[c], G[c : c + 1], single_states[c], cfg, rates[c : c + 1])
        for c in range(C):
            for got, want in zip((P, state.m, state.v), (singles[c], single_states[c].m, single_states[c].v)):
                assert same_bits(got[c], want[0])

    def test_nonfinite_names_first_candidate_and_writes_nothing(self):
        rng = np.random.default_rng(6)
        P = rng.standard_normal((C, 3, 5))  # the weights (C, 3, 4), then the bias
        state = init_adam(P)
        snapshot = [a.copy() for a in (P, state.m, state.v)]
        G = np.ones((C, 3, 5))
        gW, gb = G[..., :4], G[..., 4]
        gW[2, 0, 1] = np.inf  # the first parameter fails in two candidates;
        gW[1, 2, 3] = np.nan  # the index named is the earlier one's
        gb[0, 2] = np.nan  # the second parameter, in an earlier candidate, is not named
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient in parameter 0 at index \(2, 3\) \(step 1\)$"):
            adam_step(P, G, state, TrainConfig(), np.array(LEARNING_RATE_GRID), named=(gW, gb))
        assert state.t == 0
        for got, want in zip((P, state.m, state.v), snapshot):
            assert same_bits(got, want)


@pytest.fixture(scope="module")
def fold():
    """A fold's training split with complementary and relevant labels."""
    K = 5
    probs = np.zeros(2**K - 2)
    for k in range(K):
        probs[(1 << k) - 1] = 0.6 / K
    probs[(1 << 0 | 1 << 1) - 1] = 0.25
    probs[(1 << 2 | 1 << 3) - 1] = 0.15
    train_ds, _ = sample_from_generative(make_uniform_cl_spec(K, probs), 180, 8, seed=21)
    cds = experiment.corrupt(train_ds, "biased", 4, relevant=1)
    return cds, train_ds


class Recorder:
    """Spies on the classifier trainings experiment runs, keeping each
    candidate's T (None when supervised) and model in call order; every
    call is a lockstep one and adds one of each per candidate, and a T
    shared by the candidates counts once for each."""

    def __init__(self, monkeypatch):
        self.Ts, self.models = [], []
        for name, takes_T in (("train_supervised", False), ("train_mlcl", True), ("train_clrl", True)):
            monkeypatch.setattr(experiment, name, self._spy(getattr(experiment, name), takes_T))

    def _spy(self, train, takes_T):
        def spy(data, *args):
            results = train(data, *args)
            T = np.broadcast_to(args[0], (len(results), *np.shape(args[0])[-2:])) if takes_T else None
            self.Ts += [None if T is None else T[c] for c in range(len(results))]
            self.models += [r.model for r in results]
            return results

        return spy


def one_at_a_time(cds, train_ds, cfg, base):
    """The grid as three separate one-rate trainings, one rate after another."""
    models = []
    for lr in LEARNING_RATE_GRID:
        (model,) = experiment._train_grid(cds, train_ds, cfg, replace(base, learning_rates=(lr,)))
        models.append(model)
    return models


def fit_split(cds, train_ds, base):
    """The fit rows select_learning_rate trains on, and its validation rows."""
    fit_idx, val_idx = experiment._stratified_validation_split(cds, 0.1, base.seed + 0x5E1)
    fit_cds = experiment._subset_cds(cds, fit_idx)
    fit_ds = MultiLabelDataset(fit_cds.features, train_ds.y[fit_idx])
    return fit_cds, fit_ds, train_ds.features[val_idx], train_ds.y[val_idx]


def reference_rate(cds, train_ds, cfg, base):
    """select_learning_rate from three separate trainings."""
    fit_cds, fit_ds, val_X, val_y = fit_split(cds, train_ds, base)
    aps = [
        experiment.evaluate_all(forward(m, val_X), val_y).average_precision
        for m in one_at_a_time(fit_cds, fit_ds, cfg, base)
    ]
    return LEARNING_RATE_GRID[int(np.argmax(aps))], aps


VARIANTS = {
    "cl": {},
    "clrl": {"regime": "clrl"},
    "supervised": {"regime": "supervised"},
    "transition_file": {"transition_path": "T"},
    "no_mse": {"beta": 0.0},
    "no_correlation": {"no_correlation": True},
}


def grid_config(**kw):
    """A grid run's config; the tests hand the fold's data over directly."""
    return experiment.RunConfig(data_path="unused", **kw)


def variant_config(name, tmp_path, K, base):
    """The variant's run config, and `base` with its beta (0 drops the regulariser)."""
    kw = dict(VARIANTS[name])
    base = replace(base, beta=kw.pop("beta", base.beta))
    if "transition_path" in kw:
        kw["transition_path"] = tmp_path / "T.csv"
        save_transition_csv(random_transitions(np.random.default_rng(9), 1, K)[0], kw["transition_path"])
    return grid_config(**kw), base


class TestLockstepGrid:
    BASE = TrainConfig(epochs=6, batch_size=50, seed=7)

    @pytest.mark.parametrize("features", ["dense", "csr"])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_bit_equal_to_one_rate_at_a_time(self, fold, tmp_path, monkeypatch, variant, features):
        cds, train_ds = fold
        if features == "csr":
            X = np.where(np.abs(train_ds.features) < 0.5, 0.0, train_ds.features)
            train_ds = MultiLabelDataset(sp.csr_matrix(X), train_ds.y)
            cds = type(cds)(train_ds.features, cds.cl, cds.n_labels, relevant=cds.relevant)
        cfg, base = variant_config(variant, tmp_path, cds.n_labels, self.BASE)

        sequential = Recorder(monkeypatch)
        want_models = one_at_a_time(cds, train_ds, cfg, base)
        assert [m.weights.tobytes() for m in sequential.models] == [m.weights.tobytes() for m in want_models]
        lockstep = Recorder(monkeypatch)
        models = experiment._train_grid(cds, train_ds, cfg, base)
        assert len(models) == len(lockstep.models) == C
        for got, want in zip(models, want_models):
            assert same_bits(got.weights, want.weights) and same_bits(got.bias, want.bias)
        for got, want in zip(lockstep.Ts, sequential.Ts):
            assert (got is None and want is None) or same_bits(got, want)
        assert len({m.weights.tobytes() for m in models}) == C  # the rates do differ

        rate, aps = reference_rate(cds, train_ds, cfg, base)
        assert experiment.select_learning_rate(cds, train_ds, cfg, base) == rate
        assert len(set(aps)) > 1

    @pytest.mark.parametrize("trainer", ["cl_predictor", "mlcl", "clrl", "supervised"])
    def test_trainers_keep_curves(self, fold, trainer):
        cds, train_ds = fold
        Ts = random_transitions(np.random.default_rng(3), C, cds.n_labels)

        def train(cfg, T):
            if trainer == "cl_predictor":
                return train_cl_predictor(cds, cfg)
            if trainer == "supervised":
                return train_supervised(train_ds, cfg)
            return (train_mlcl if trainer == "mlcl" else train_clrl)(cds, T, cfg)

        results = train(self.BASE, Ts)
        for c, (result, lr) in enumerate(zip(results, LEARNING_RATE_GRID, strict=True)):
            (alone,) = train(replace(self.BASE, learning_rates=(lr,)), Ts[c])
            assert same_bits(result.model.weights, alone.model.weights)
            assert same_bits(result.model.bias, alone.model.bias)
            assert result.epoch_losses == alone.epoch_losses
            assert all(type(v) is float for v in result.epoch_losses + alone.epoch_losses)


STAGES = {"ce_softmax": "predictor", "mlcl": "classifier"}
R0, R1, R2 = LEARNING_RATE_GRID


class Faults:
    """Non-finite values put into the trainings at chosen learning rates:
    {(stage, rate): (step, parameter, index)} for the gradient stages, and
    {("transition", rate): None} for a non-finite estimate of T from the
    predictor trained at that rate.  A fault fires wherever its rate trains,
    alone or in a lockstep stack, at the step counted within that training."""

    def __init__(self, monkeypatch, faults):
        self.faults, self.rates, self.step, self.predictor_rates = faults, [], 0, []
        real_loop, real_objective = optim._run_loop, optim.batch_objective
        real_estimate = experiment.estimate_transition

        def loop(ds, head, cfg, kind, *args, **kw):
            self.rates, self.step = list(cfg.learning_rates), 0
            results = real_loop(ds, head, cfg, kind, *args, **kw)
            if kind == "ce_softmax":  # T is estimated from each predictor, in rate order
                self.predictor_rates = list(self.rates)
            return results

        def objective(model, X, kind, **targets):
            value, gW, gb = real_objective(model, X, kind, **targets)
            self.step += 1
            for c, lr in enumerate(self.rates):
                fault = self.faults.get((STAGES[kind], lr))
                if fault and fault[0] == self.step:
                    (gW, gb)[fault[1]][c][fault[2]] = np.nan
            return value, gW, gb

        def estimate(cds, predictor, **kw):
            T = real_estimate(cds, predictor, **kw)
            return T * np.nan if ("transition", self.predictor_rates.pop(0)) in self.faults else T

        monkeypatch.setattr(optim, "_run_loop", loop)
        monkeypatch.setattr(optim, "batch_objective", objective)
        monkeypatch.setattr(experiment, "estimate_transition", estimate)


def first_failure(cds, train_ds, cfg, base):
    """The rates trained one after another, each as a one-rate training: how
    many finish before the first failure, and that failure."""
    for finished, lr in enumerate(LEARNING_RATE_GRID):
        try:
            experiment._train_grid(cds, train_ds, cfg, replace(base, learning_rates=(lr,)))
        except Exception as exc:
            return finished, exc
    raise AssertionError("no rate failed alone")


def scored_models(monkeypatch):
    """The score arrays experiment evaluates, in call order."""
    scored, real = [], experiment.evaluate_all
    monkeypatch.setattr(experiment, "evaluate_all", lambda S, Y: scored.append(S) or real(S, Y))
    return scored


class TestFailurePrecedence:
    """A failing grid raises the error of the rates run one at a time, in
    order, once the rates before the first to fail are scored."""

    BASE = TrainConfig(epochs=4, batch_size=40, seed=2)

    @pytest.mark.parametrize(
        "faults, winner, message",
        [
            # a later rate fails first in time, at an earlier stage
            ({("predictor", R2): (1, 0, (0, 0)), ("classifier", R0): (3, 0, (1, 2))}, 0, r"parameter 0 at index \(1, 2\) \(step 3\)"),
            # both in the same stage, the later rate at an earlier step
            ({("predictor", R1): (2, 1, (3,)), ("predictor", R0): (5, 0, (0, 4))}, 0, r"parameter 0 at index \(0, 4\) \(step 5\)"),
            ({("classifier", R2): (1, 0, (0, 0)), ("classifier", R1): (4, 1, (2,))}, 1, r"parameter 1 at index \(2,\) \(step 4\)"),
            ({("transition", R1): None, ("classifier", R0): (2, 0, (4, 7))}, 0, r"parameter 0 at index \(4, 7\) \(step 2\)"),
            ({("transition", R2): None, ("predictor", R1): (6, 0, (2, 2))}, 1, r"parameter 0 at index \(2, 2\) \(step 6\)"),
            ({("transition", R1): None}, 1, r"transition matrix has non-finite entries"),
            ({("classifier", R2): (3, 1, (0,))}, 2, r"parameter 1 at index \(0,\) \(step 3\)"),
            ({("predictor", R0): (1, 0, (1, 1))}, 0, r"parameter 0 at index \(1, 1\) \(step 1\)"),
        ],
    )
    def test_earliest_candidate_wins(self, fold, monkeypatch, faults, winner, message):
        cds, train_ds = fold
        cfg = grid_config()
        Faults(monkeypatch, faults)
        fit_cds, fit_ds, _, _ = fit_split(cds, train_ds, self.BASE)
        finished, want = first_failure(fit_cds, fit_ds, cfg, self.BASE)
        assert finished == winner and re.search(message, str(want))
        scored = scored_models(monkeypatch)
        with pytest.raises(Exception) as info:
            experiment.select_learning_rate(cds, train_ds, cfg, self.BASE)
        assert type(info.value) is type(want) and str(info.value) == str(want)
        assert len(scored) == winner

    def test_selection_raises_after_scoring_survivors(self, fold, monkeypatch):
        cds, train_ds = fold
        Faults(monkeypatch, {("classifier", R1): (2, 0, (0, 0))})
        scored = scored_models(monkeypatch)
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient in parameter 0 at index \(0, 0\) \(step 2\)$"):
            experiment.select_learning_rate(cds, train_ds, grid_config(), self.BASE)
        assert len(scored) == 1

    def test_fault_of_the_lockstep_alone_raises_its_error(self, fold, monkeypatch):
        # the fault fires only in a stack of C: every rate succeeds alone
        cds, train_ds = fold
        real = optim.batch_objective

        def objective(model, X, kind, **targets):
            value, gW, gb = real(model, X, kind, **targets)
            if len(gW) == C:
                gW[1, 0, 3] = np.nan
            return value, gW, gb

        monkeypatch.setattr(optim, "batch_objective", objective)
        scored = scored_models(monkeypatch)
        with pytest.raises(NonFiniteGradientError, match=r"^non-finite gradient in parameter 0 at index \(0, 3\) \(step 1\)$"):
            experiment.select_learning_rate(cds, train_ds, grid_config(), self.BASE)
        assert len(scored) == C
