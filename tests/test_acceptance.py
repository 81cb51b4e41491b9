"""Acceptance suite.

Criteria 1-6 are self-contained property checks and run everywhere.
Criteria 7-10 reproduce published-scale numbers and need the scene and yeast
datasets in the canonical sparse format at data/scene.txt and data/yeast.txt
(see README for the conversion recipe); they are skipped when absent.

Each criterion prints one PASS line with its measured values.
"""

import time
import zlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from comlabel.dataset import make_exclusive_spec, sample_from_generative
from comlabel.experiment import RunConfig, consistency_experiment, run_ablation, run_clrl, run_cv
from comlabel.loss import gradient_check
from comlabel.metrics import evaluate_all
from comlabel.model import init_linear
from comlabel.optim import TrainConfig
from comlabel.theory import (
    corollary3_bound,
    grid_scenarios,
    random_generative_spec,
    random_posterior,
    scenario_distortion,
    theorem1_gap,
)
from comlabel.transition import correct_and_normalize, validate_transition

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
YEAST = DATA_DIR / "yeast.txt"
SCENE = DATA_DIR / "scene.txt"

needs_yeast = pytest.mark.skipif(
    not YEAST.exists(), reason=f"criterion needs {YEAST} in canonical format (see README)"
)
needs_scene = pytest.mark.skipif(
    not SCENE.exists(), reason=f"criterion needs {SCENE} in canonical format (see README)"
)


def announce(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


class TestCriterion1TransitionAlgebra:
    def test_thousand_random_corrections(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            K = int(rng.integers(3, 11))
            S = rng.random((K, K))
            S /= S.sum(axis=1, keepdims=True)
            C = rng.random((K, K))
            np.fill_diagonal(C, 1.0)
            T = correct_and_normalize(S, C)
            assert np.all(np.diagonal(T) == 0.0)
            assert np.all(T >= 0.0)
            np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"transition algebra took {elapsed:.2f}s"
        announce("criterion 1 (transition algebra)", f"1000 random (S, C) corrections in {elapsed:.2f}s")


class TestCriterion2Gradients:
    # (label, loss kind, beta): every kind, and mlcl at beta 0 and 1 besides
    CASES = (
        ("bce_supervised", "bce_supervised", None),
        ("mlcl_beta0", "mlcl", 0.0),
        ("mlcl_beta1", "mlcl", 1.0),
        ("mlcl", "mlcl", None),
        ("clrl", "clrl", None),
        ("ce_softmax", "ce_softmax", None),
    )

    @staticmethod
    def _config(kind, rng, beta=None):
        K = int(rng.integers(3, 6))
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        head = "softmax" if kind == "ce_softmax" else "sigmoid"
        model = init_linear(d, K, head, seed=int(rng.integers(1 << 30)))
        model.weights *= 0.5
        X = rng.standard_normal((n, d))
        kwargs = {}
        if kind == "bce_supervised":
            kwargs["y"] = (rng.random((n, K)) < 0.5).astype(float)
        else:
            kwargs["cl"] = rng.integers(0, K, size=n)
            if kind != "ce_softmax":
                T = rng.random((K, K))
                np.fill_diagonal(T, 0.0)
                kwargs["T"] = T / T.sum(axis=1, keepdims=True)
            if kind == "mlcl":
                kwargs["beta"] = float(rng.random() * 2) if beta is None else beta
            if kind == "clrl":
                rel = np.zeros((n, K))
                for i in range(n):
                    rel[i, rng.choice([k for k in range(K) if k != kwargs["cl"][i]])] = 1.0
                kwargs["relevant"] = rel
        return model, X, kwargs

    def test_analytic_matches_finite_differences(self):
        start = time.perf_counter()
        worst = 0.0
        for label, kind, beta in self.CASES:
            rng = np.random.default_rng(zlib.crc32(label.encode()))
            for _ in range(50):
                model, X, kwargs = self._config(kind, rng, beta)
                report = gradient_check(model, X, kind, **kwargs)
                assert report.passed, f"{kind}: {report.worst_param} rel err {report.max_rel_error:.2e}"
                worst = max(worst, report.max_rel_error)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
        announce(
            "criterion 2 (gradient correctness)",
            f"6 loss cases x 50 configs, worst relative error {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion3MetricOracle:
    @staticmethod
    def _brute(scores, y):
        K = len(scores)
        order = sorted(range(K), key=lambda k: (-scores[k], k))
        ranks = [0] * K
        for pos, lab in enumerate(order):
            ranks[lab] = pos + 1
        rel = [k for k in range(K) if y[k] == 1]
        irr = [k for k in range(K) if y[k] == 0]
        pred = [1 if s > 0.5 else 0 for s in scores]
        ham = sum(p != t for p, t in zip(pred, y)) / K
        rloss = sum(1 for a in rel for b in irr if ranks[a] > ranks[b]) / (len(rel) * len(irr))
        one = 1.0 if y[ranks.index(1)] == 0 else 0.0
        cov = (max(ranks[k] for k in rel) - 1) / K
        ap = sum(sum(1 for kk in rel if ranks[kk] <= ranks[k]) / ranks[k] for k in rel) / len(rel)
        return ham, rloss, one, cov, ap

    def test_exact_match_on_200_instances(self):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for trial in range(200):
            K = int(rng.integers(3, 7))
            scores = np.round(rng.random(K), 2)  # coarse grid forces ties
            y = np.zeros(K, dtype=int)
            y[rng.choice(K, size=int(rng.integers(1, K)), replace=False)] = 1
            expected = self._brute(scores.tolist(), y.tolist())
            r = evaluate_all(scores[None], y[None])
            got = (r.hamming_loss, r.ranking_loss, r.one_error, r.coverage, r.average_precision)
            assert got == pytest.approx(expected, abs=1e-15), f"trial {trial}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        announce("criterion 3 (metric oracle)", f"200 instances exact against pair enumeration, {elapsed:.2f}s")


class TestCriterion4Theorem1:
    def test_hundred_random_generative_specs(self):
        start = time.perf_counter()
        rng = np.random.default_rng(314159)
        worst_gap = np.inf
        for trial in range(100):
            K = int(rng.integers(3, 6))
            spec = random_generative_spec(K, rng)
            post = random_posterior(spec, rng)
            j = int(rng.integers(K))
            lhs, rhs = theorem1_gap(spec, post, j)
            assert lhs >= rhs - 1e-12, f"trial {trial}: lhs={lhs!r} < rhs={rhs!r}"
            worst_gap = min(worst_gap, lhs - rhs)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        announce(
            "criterion 4 (subset bound)",
            f"100 random specs K in {{3,4,5}}, min(lhs - rhs) = {worst_gap:.3e}, {elapsed:.2f}s",
        )


class TestCriterion5DistortionBounds:
    def test_grid_exact_arithmetic(self):
        start = time.perf_counter()
        xis = [Fraction(v, 10) for v in range(3, 11)]
        checked = 0
        for sc in grid_scenarios(xis, ms=(2, 3, 4)):
            ell = scenario_distortion(sc)
            bound = corollary3_bound(sc)
            assert ell >= bound, f"{sc.kind} xi={sc.xi}: {ell} < {bound}"
            if sc.m == 2:
                # the pairwise bound form 2(1/xi^2 - 1) p agrees with the general one
                assert bound == 2 * (1 / sc.xi**2 - 1) * sc.p_cl
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        announce(
            "criterion 5 (distortion bounds)",
            f"{checked} exact scenarios over xi in {{0.3..1.0}}, m in {{2,3,4}}, {elapsed:.2f}s",
        )


class TestCriterion6Consistency:
    def test_oracle_transition_matches_supervised_twin(self):
        start = time.perf_counter()
        result = consistency_experiment()
        elapsed = time.perf_counter() - start
        assert result["gap"] < 0.05, result
        assert elapsed < 120.0
        announce(
            "criterion 6 (classifier consistency)",
            f"hamming {result['hamming_mlcl']:.4f} (transition-trained) vs "
            f"{result['hamming_supervised']:.4f} (supervised), gap {result['gap']:.4f}, {elapsed:.0f}s",
        )


def _paper_config(path, **kw):
    defaults = dict(
        data_path=path,
        corruption="uniform",
        folds=10,
        train=TrainConfig(epochs=200, batch_size=256, seed=0),  # the lr grid-selected, as in the reported runs
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="session")
def yeast_cv():
    return run_cv(_paper_config(YEAST))


@pytest.fixture(scope="session")
def scene_cv():
    return run_cv(_paper_config(SCENE))


@needs_yeast
class TestCriterion7Yeast:
    def test_average_precision_and_ranking_loss(self, yeast_cv):
        ap = yeast_cv.mean("average_precision")
        rl = yeast_cv.mean("ranking_loss")
        assert abs(ap - 0.718) <= 0.05, f"yeast average precision {ap:.3f}"
        assert abs(rl - 0.211) <= 0.05, f"yeast ranking loss {rl:.3f}"
        announce("criterion 7 (yeast uniform)", f"average precision {ap:.3f} (target 0.718±0.05), ranking loss {rl:.3f} (target 0.211±0.05)")


@needs_scene
class TestCriterion8Scene:
    def test_average_precision(self, scene_cv):
        ap = scene_cv.mean("average_precision")
        assert abs(ap - 0.699) <= 0.05, f"scene average precision {ap:.3f}"
        announce("criterion 8 (scene uniform)", f"average precision {ap:.3f} (target 0.699±0.05)")


@needs_yeast
class TestCriterion9aYeastAblation:
    def test_correlation_correction_matters(self, yeast_cv):
        variant = run_cv(_paper_config(YEAST, no_correlation=True))
        full_ap = yeast_cv.mean("average_precision")
        abl_ap = variant.mean("average_precision")
        assert full_ap - abl_ap >= 0.15, f"full {full_ap:.3f} vs without-correlation {abl_ap:.3f}"
        announce("criterion 9a (yeast ablation)", f"full {full_ap:.3f} > without-correlation {abl_ap:.3f} by >= 0.15")


@needs_scene
class TestCriterion9bSceneAblation:
    def test_mse_regularizer_matters(self, scene_cv):
        cfg = _paper_config(SCENE)
        variant = run_cv(replace(cfg, train=replace(cfg.train, beta=0.0)))
        full_ap = scene_cv.mean("average_precision")
        abl_ap = variant.mean("average_precision")
        assert full_ap - abl_ap >= 0.08, f"full {full_ap:.3f} vs without-regularizer {abl_ap:.3f}"
        announce("criterion 9b (scene ablation)", f"full {full_ap:.3f} > without-regularizer {abl_ap:.3f} by >= 0.08")


@needs_scene
class TestCriterion10CLRLDominance:
    def test_relevant_label_closes_the_gap(self):
        reports = run_clrl(_paper_config(SCENE))
        ap_cl = reports["cl"].mean("average_precision")
        ap_clrl = reports["clrl"].mean("average_precision")
        ap_sup = reports["supervised"].mean("average_precision")
        assert ap_clrl - ap_cl >= 0.1, f"clrl {ap_clrl:.3f} vs cl {ap_cl:.3f}"
        assert abs(ap_sup - ap_clrl) <= 0.05, f"clrl {ap_clrl:.3f} vs supervised {ap_sup:.3f}"
        announce(
            "criterion 10 (relevant-label dominance)",
            f"clrl {ap_clrl:.3f} vs cl {ap_cl:.3f} (>= +0.1) and supervised {ap_sup:.3f} (within 0.05)",
        )
