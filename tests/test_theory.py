from fractions import Fraction

import numpy as np
import pytest

from comlabel.dataset import (
    MAX_ENUM_LABELS,
    make_exclusive_spec,
    make_uniform_cl_spec,
    sample_from_generative,
    subset_membership,
    uniform_cl_rows,
)
from comlabel.theory import (
    AnchorAssumptionError,
    TheoremScenario,
    anchor_Q,
    chain_T_values,
    corollary3_bound,
    grid_scenarios,
    random_generative_spec,
    random_posterior,
    scenario_distortion,
    theorem1_gap,
)


def _mask_index(labels):
    return sum(1 << k for k in labels) - 1


def exact_cl_probability(spec, posterior, j):
    """p(complementary label = j | x), the subset-exact side of theorem1_gap."""
    return theorem1_gap(spec, posterior, j)[0]


class TestExactClProbability:
    def test_single_subset_uniform(self):
        K = 4
        probs = np.zeros(2**K - 2)
        probs[_mask_index([0])] = 1.0
        spec = make_uniform_cl_spec(K, probs)
        post = np.zeros(2**K - 2)
        post[_mask_index([0])] = 1.0
        for j in range(1, K):
            np.testing.assert_allclose(exact_cl_probability(spec, post, j), 1.0 / (K - 1))

    def test_subset_containing_j_contributes_zero(self):
        K = 3
        probs = np.zeros(6)
        probs[_mask_index([0, 2])] = 1.0
        spec = make_uniform_cl_spec(K, probs)
        post = np.zeros(6)
        post[_mask_index([0, 2])] = 1.0
        assert exact_cl_probability(spec, post, 2) == 0.0
        assert exact_cl_probability(spec, post, 0) == 0.0
        np.testing.assert_allclose(exact_cl_probability(spec, post, 1), 1.0)

    def test_mixed_posterior_brute_force(self):
        rng = np.random.default_rng(5)
        spec = random_generative_spec(3, rng)
        post = random_posterior(spec, rng)
        members = subset_membership(3)
        for j in range(3):
            expected = sum(
                spec.cl_given_subset[i, j] * post[i] for i in range(6) if members[i, j] == 0
            )
            np.testing.assert_allclose(exact_cl_probability(spec, post, j), expected, atol=1e-14)

    def test_two_subset_posterior(self):
        K = 3
        spec = make_uniform_cl_spec(K, np.full(6, 1 / 6))
        post = np.zeros(6)
        post[[_mask_index([0]), _mask_index([1, 2])]] = 0.5
        np.testing.assert_allclose(exact_cl_probability(spec, post, 2), 0.5 * 0.5)  # only {0} can emit label 2

    def test_misaligned_posterior_rejected(self):
        spec = make_uniform_cl_spec(3, np.full(6, 1 / 6))
        with pytest.raises(ValueError, match="shape"):
            theorem1_gap(spec, np.full(5, 0.2), 0)
        with pytest.raises(ValueError, match="sum to 1"):
            theorem1_gap(spec, np.full(6, 0.2), 0)


class TestTheorem1:
    def test_exclusive_labels_tight(self):
        K = 4
        spec = make_exclusive_spec(K)
        post = np.zeros(2**K - 2)
        for k in range(K):
            post[_mask_index([k])] = 1.0 / K
        for j in range(K):
            lhs, rhs = theorem1_gap(spec, post, j)
            np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_pairwise_dependence_strict(self):
        K = 3
        probs = np.zeros(6)
        probs[_mask_index([0])] = 0.3
        probs[_mask_index([1])] = 0.3
        probs[_mask_index([0, 1])] = 0.4
        spec = make_uniform_cl_spec(K, probs)
        post = np.array(probs)
        lhs, rhs = theorem1_gap(spec, post, 2)
        assert lhs > rhs + 1e-9
        # the gap is exactly the dependent subset's contribution
        np.testing.assert_allclose(lhs - rhs, 1.0 * 0.4, atol=1e-12)  # cl[{0,1}, 2] = 1

    def test_all_subsets_contain_j_gives_zero(self):
        K = 3
        j = 1
        probs = np.zeros(6)
        probs[_mask_index([1])] = 0.5
        probs[_mask_index([0, 1])] = 0.5
        spec = make_uniform_cl_spec(K, probs)
        post = np.array(probs)
        lhs, rhs = theorem1_gap(spec, post, j)
        assert lhs == 0.0 and rhs == 0.0

    def test_hundred_random_specs(self):
        rng = np.random.default_rng(123)
        strict = 0
        for _ in range(100):
            K = int(rng.integers(3, 6))
            spec = random_generative_spec(K, rng)
            post = random_posterior(spec, rng)
            j = int(rng.integers(K))
            lhs, rhs = theorem1_gap(spec, post, j)
            assert lhs >= rhs - 1e-12
            if lhs > rhs + 1e-9:
                strict += 1
        assert strict > 50  # correlated masses typically make the bound strict


class TestEnumerationLimit:
    def test_largest_k_runs(self):
        # K = 12 enumerates 4094 subsets; the spec, every label's bound and a
        # sample all complete at that size
        K = MAX_ENUM_LABELS
        rng = np.random.default_rng(12)
        spec = random_generative_spec(K, rng)
        assert K == 12 and spec.n_subsets == 4094
        post = random_posterior(spec, rng)
        for j in range(K):
            lhs, rhs = theorem1_gap(spec, post, j)
            assert lhs >= rhs - 1e-12
        full, comp = sample_from_generative(spec, 2000, 20, seed=12)
        assert full.features.shape == (2000, 20) and full.y.shape == (2000, K)
        cardinality = full.y.sum(axis=1)
        assert np.all((cardinality >= 1) & (cardinality < K))
        assert not full.y[np.arange(2000), comp.cl].any()  # a complementary label is never relevant


class TestAnchorQ:
    def test_uniform_anchor(self):
        K = 4
        spec = make_exclusive_spec(K)
        Q = anchor_Q(spec)
        expected = np.full((K, K), 1.0 / (K - 1))
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(Q, expected)

    def test_missing_singleton_support_named(self):
        K = 3
        probs = np.zeros(6)
        probs[_mask_index([1])] = 0.5
        probs[_mask_index([2])] = 0.5
        spec = make_uniform_cl_spec(K, probs)
        with pytest.raises(AnchorAssumptionError, match=r"\[0\]"):
            anchor_Q(spec)

    def test_rows_are_singleton_tables(self):
        rng = np.random.default_rng(9)
        spec = random_generative_spec(4, rng)
        if np.any(spec.subset_probs[[_mask_index([k]) for k in range(4)]] <= 0):
            pytest.skip("random spec lost singleton support")
        Q = anchor_Q(spec)
        for k in range(4):
            np.testing.assert_array_equal(Q[k], spec.cl_given_subset[_mask_index([k])])
        np.testing.assert_array_equal(np.diag(Q), 0.0)


HALF_SCENARIO = TheoremScenario(
    dependent=(0, 1),
    comp_label=2,
    p_cl=Fraction(1, 10),
    marginals=(Fraction(1, 2), Fraction(2, 5)),
    conditionals=((Fraction(1, 2),), (Fraction(1, 2),)),
)


class TestDistortion:
    def test_identity(self):
        # with every factor 1 the closed form is p_cl itself: no distortion
        one = Fraction(1)
        sc = TheoremScenario((0, 1, 2), 3, Fraction(1, 7), (one,) * 3, ((one, one),) * 3)
        assert chain_T_values(sc) == [Fraction(1, 7)] * 3
        assert scenario_distortion(sc) == 0

    def test_column_difference(self):
        # entries 1/10 / (1/2 * 1/2) = 2/5 and 1/10 / (2/5 * 1/2) = 1/2, each against p_cl = 1/10
        assert chain_T_values(HALF_SCENARIO) == [Fraction(2, 5), Fraction(1, 2)]
        assert scenario_distortion(HALF_SCENARIO) == Fraction(3, 10) + Fraction(2, 5)

    def test_scenario_distortion_matches_matrix_distortion(self):
        # column j of the closed-form T against the exclusive-case Q, which
        # reads p_cl on every row but j; the rows off the group cancel
        sc, K = HALF_SCENARIO, 4
        j, p = sc.comp_label, float(sc.p_cl)
        T_col, Q_col = np.full(K, p), np.full(K, p)
        T_col[list(sc.dependent)] = [float(v) for v in chain_T_values(sc)]
        T_col[j] = Q_col[j] = 0.0
        np.testing.assert_allclose(np.abs(T_col - Q_col).sum(), float(scenario_distortion(sc)), atol=1e-12)


class TestPairwiseFormula:
    def test_plug_in(self):
        sc = TheoremScenario(
            dependent=(1, 2),
            comp_label=0,
            p_cl=0.1,
            marginals=(0.5, 0.5),
            conditionals=((1.0,), (1.0,)),
        )
        T1, T2 = chain_T_values(sc)
        np.testing.assert_allclose(T1, 0.2)
        np.testing.assert_allclose(T2, 0.2)

    def test_exclusive_limit_reduces_to_anchor_value(self):
        sc = TheoremScenario(
            dependent=(0, 1),
            comp_label=3,
            p_cl=0.07,
            marginals=(1.0, 1.0),
            conditionals=((1.0,), (1.0,)),
        )
        T1, T2 = chain_T_values(sc)
        np.testing.assert_allclose([T1, T2], 0.07)

    def test_theorem2_bound_on_scenario(self):
        sc = TheoremScenario(
            dependent=(0, 1),
            comp_label=2,
            p_cl=Fraction(1, 8),
            marginals=(Fraction(3, 5), Fraction(1, 2)),
            conditionals=((Fraction(7, 10),), (Fraction(7, 10),)),
        )
        xi = sc.xi
        assert xi == Fraction(7, 10)
        bound = 2 * (1 / xi**2 - 1) * sc.p_cl
        assert scenario_distortion(sc) >= bound

    def test_zero_denominator_raises(self):
        sc = TheoremScenario(
            dependent=(0, 1),
            comp_label=2,
            p_cl=0.1,
            marginals=(0.5, 0.5),
            conditionals=((0.5,), (0.5,)),
        )
        object.__setattr__(sc, "marginals", (0.0, 0.5))
        with pytest.raises(ZeroDivisionError):
            chain_T_values(sc)


class TestPairwiseEnumerationOracle:
    """Brute-force joint-probability oracle over the three-subset model
    {z1}, {z2}, {z1, z2} with per-subset complementary emission rates."""

    @staticmethod
    def _enumerate(q1, q2, q12, c1, c2, c12):
        # joint over (cl==j, y_z1, y_z2): each subset splits by whether j is drawn
        joint = {
            (1, 1, 0): c1 * q1,
            (0, 1, 0): (1 - c1) * q1,
            (1, 0, 1): c2 * q2,
            (0, 0, 1): (1 - c2) * q2,
            (1, 1, 1): c12 * q12,
            (0, 1, 1): (1 - c12) * q12,
        }
        p_cl = sum(v for (e, *_), v in joint.items() if e == 1)
        m1 = sum(v for (_, a, _), v in joint.items() if a == 1)
        m2 = sum(v for (_, _, b), v in joint.items() if b == 1)
        cond_z2 = joint[(1, 1, 1)] / (joint[(1, 1, 1)] + joint[(1, 1, 0)])  # p(z2 | cl=j, z1)
        cond_z1 = joint[(1, 1, 1)] / (joint[(1, 1, 1)] + joint[(1, 0, 1)])  # p(z1 | cl=j, z2)
        true_T1 = (joint[(1, 1, 1)] + joint[(1, 1, 0)]) / m1  # p(cl=j | z1)
        true_T2 = (joint[(1, 1, 1)] + joint[(1, 0, 1)]) / m2
        return p_cl, m1, m2, cond_z2, cond_z1, true_T1, true_T2

    def test_chain_rule_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            q = rng.dirichlet(np.ones(3))
            c = rng.random(3) * 0.9 + 0.05
            p_cl, m1, m2, cond_z2, cond_z1, true_T1, true_T2 = self._enumerate(*q, *c)
            # the factorization behind the closed form: the all-present mass
            # equals cond * p(cl=j | z_i) * marginal, for either chain order
            all_mass = c[2] * q[2]
            np.testing.assert_allclose(cond_z2 * true_T1 * m1, all_mass, atol=1e-14)
            np.testing.assert_allclose(cond_z1 * true_T2 * m2, all_mass, atol=1e-14)

    def test_formula_equals_true_conditional_without_subset_emission(self):
        # when the proper subsets never emit j, the closed form reproduces the
        # enumerated conditional p(cl=j | z_i) exactly
        rng = np.random.default_rng(37)
        for _ in range(100):
            q = rng.dirichlet(np.ones(3))
            c12 = float(rng.random() * 0.9 + 0.05)
            p_cl, m1, m2, cond_z2, cond_z1, true_T1, true_T2 = self._enumerate(
                q[0], q[1], q[2], 0.0, 0.0, c12
            )
            assert cond_z2 == 1.0 and cond_z1 == 1.0
            np.testing.assert_allclose(p_cl / (cond_z2 * m1), true_T1, atol=1e-14)
            np.testing.assert_allclose(p_cl / (cond_z1 * m2), true_T2, atol=1e-14)
            # with xi = 1 the distortion bound degenerates to 0 and holds
            ell = abs(true_T1 - p_cl) + abs(true_T2 - p_cl)
            assert ell >= 0.0

    def test_formula_against_enumerated_sampled_scenario(self):
        # sample joints, read the closed-form inputs off the enumeration, and
        # confirm the implementation computes the same entries
        rng = np.random.default_rng(41)
        for _ in range(50):
            q = rng.dirichlet(np.ones(3))
            c = rng.random(3) * 0.9 + 0.05
            p_cl, m1, m2, cond_z2, cond_z1, _, _ = self._enumerate(*q, *c)
            xi = max(cond_z2, cond_z1)
            # clamp marginals into the domination region the bound requires
            mm1, mm2 = min(m1, xi), min(m2, xi)
            sc = TheoremScenario(
                dependent=(0, 1),
                comp_label=2,
                p_cl=p_cl,
                marginals=(mm1, mm2),
                conditionals=((cond_z2,), (cond_z1,)),
            )
            T1, T2 = chain_T_values(sc)
            np.testing.assert_allclose(T1, p_cl / (cond_z2 * mm1), atol=1e-12)
            np.testing.assert_allclose(T2, p_cl / (cond_z1 * mm2), atol=1e-12)
            bound = corollary3_bound(sc)
            assert scenario_distortion(sc) >= bound - 1e-12


class TestCorollary3:
    def test_m2_reduces_to_pairwise_bound(self):
        sc = TheoremScenario(
            dependent=(0, 1),
            comp_label=2,
            p_cl=Fraction(1, 10),
            marginals=(Fraction(3, 5), Fraction(3, 5)),
            conditionals=((Fraction(3, 5),), (Fraction(3, 5),)),
        )
        xi = Fraction(3, 5)
        assert corollary3_bound(sc) == 2 * (1 / xi**2 - 1) * Fraction(1, 10)

    def test_xi_one_gives_zero(self):
        sc = TheoremScenario(
            dependent=(0, 1, 2),
            comp_label=3,
            p_cl=0.2,
            marginals=(1.0, 1.0, 1.0),
            conditionals=((1.0, 1.0),) * 3,
        )
        assert corollary3_bound(sc) == 0.0

    def test_m3_enumerated_scenario_satisfies_bound(self):
        xi = Fraction(1, 2)
        p = xi**3 * Fraction(1, 3)
        sc = TheoremScenario(
            dependent=(0, 1, 2),
            comp_label=4,
            p_cl=p,
            marginals=(xi, xi / 2, xi),
            conditionals=((xi, xi), (xi / 2, xi), (xi, xi)),
        )
        ell = scenario_distortion(sc)
        assert ell >= corollary3_bound(sc)
        # exact arithmetic: tight rows contribute exactly p/xi^3
        assert chain_T_values(sc)[0] == p / xi**3

    def test_bound_grows_with_m(self):
        for xi in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
            bounds = []
            for m in (2, 3, 4):
                p = Fraction(1, 100)
                sc = TheoremScenario(
                    dependent=tuple(range(m)),
                    comp_label=m,
                    p_cl=p,
                    marginals=(xi,) * m,
                    conditionals=((xi,) * (m - 1),) * m,
                )
                bounds.append(corollary3_bound(sc))
            assert bounds[0] < bounds[1] < bounds[2]


class TestGridScenarios:
    def test_bound_holds_everywhere_exact(self):
        xis = [Fraction(v, 10) for v in range(3, 11)]
        for sc in grid_scenarios(xis, ms=(2, 3, 4)):
            ell = scenario_distortion(sc)
            bound = corollary3_bound(sc)
            assert ell >= bound  # exact Fraction comparison
            for v in chain_T_values(sc):
                assert 0 < v <= 1

    def test_tight_scenarios_achieve_equality(self):
        xis = [Fraction(1, 2)]
        tight = grid_scenarios(xis, ms=(2,))[0]
        assert scenario_distortion(tight) == corollary3_bound(tight)

    def test_slack_scenarios_strict(self):
        xis = [Fraction(1, 2)]
        loose = grid_scenarios(xis, ms=(3,))[1]
        assert scenario_distortion(loose) > corollary3_bound(loose)


class TestScenarioValidation:
    def test_marginal_above_xi_rejected(self):
        with pytest.raises(ValueError, match="exceeds xi"):
            TheoremScenario(
                dependent=(0, 1),
                comp_label=2,
                p_cl=0.1,
                marginals=(0.9, 0.5),
                conditionals=((0.5,), (0.5,)),
            )

    def test_j_in_dependent_rejected(self):
        with pytest.raises(ValueError, match="complementary"):
            TheoremScenario(
                dependent=(0, 1),
                comp_label=1,
                p_cl=0.1,
                marginals=(0.5, 0.5),
                conditionals=((0.5,), (0.5,)),
            )

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match="p_cl"):
            TheoremScenario(
                dependent=(0, 1),
                comp_label=2,
                p_cl=0.0,
                marginals=(0.5, 0.5),
                conditionals=((0.5,), (0.5,)),
            )


class TestFullTransition:
    def test_rows_sum_to_one_and_members_zero(self):
        rng = np.random.default_rng(53)
        for K in (3, 4, 5):
            spec = random_generative_spec(K, rng)
            Tfull = spec.cl_given_subset
            assert Tfull.shape == (2**K - 2, K)
            np.testing.assert_allclose(Tfull.sum(axis=1), 1.0, atol=1e-9)
            members = subset_membership(K).astype(bool)
            assert np.all(Tfull[members] == 0.0)

    def test_uniform_rows(self):
        K = 3
        rows = uniform_cl_rows(K)
        np.testing.assert_allclose(rows[_mask_index([0, 1])], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(rows[_mask_index([2])], [0.5, 0.5, 0.0])


def _scenario(**changes):
    """HALF_SCENARIO's float twin with `changes` applied."""
    fields = dict(dependent=(0, 1), comp_label=2, p_cl=0.1, marginals=(0.5, 0.4), conditionals=((0.5,), (0.5,)))
    return TheoremScenario(**{**fields, **changes})


# Refusals that no other test reaches: each call and its exact ValueError message.
REFUSALS = [
    pytest.param(lambda: _scenario(dependent=(0,), marginals=(0.5,), conditionals=((),)),
                 "a scenario needs at least two dependent labels", id="one-dependent"),
    pytest.param(lambda: _scenario(dependent=(0, 0)), "dependent labels must be distinct", id="repeated-dependent"),
    pytest.param(lambda: _scenario(marginals=(0.5,)),
                 "need one marginal and one conditional chain per dependent label", id="marginal-count"),
    pytest.param(lambda: _scenario(conditionals=((0.5,),)),
                 "need one marginal and one conditional chain per dependent label", id="chain-count"),
    pytest.param(lambda: _scenario(conditionals=((0.5, 0.5), (0.5,))),
                 "conditional chain 0 must have 1 entries", id="chain-length"),
    pytest.param(lambda: _scenario(dependent=(0, 1, 3), marginals=(0.5, 0.5, 0.5),
                                   conditionals=((0.5, 0.5), (0.9, 0.5), (0.5, 0.5))),
                 "conditional chain 1 exceeds xi", id="chain-above-xi"),
]  # fmt: skip


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
