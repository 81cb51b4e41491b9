"""Exact small-K verification of the transition-matrix theory.

Everything here treats distributions as explicit tables and verifies the
claimed identities and bounds by direct enumeration, so checks are arithmetic
rather than statistical:

* the complementary-label probability identity over all label subsets, and its
  lower bound through exclusive (singleton) label events;
* the closed-form transition entries for a group of dependent labels, and the
  lower bound on the distortion between the correlation-aware transition
  column and the exclusive-case estimate.

A group of m dependent labels is described by a scenario table holding, per
dependent label, its posterior marginal and the chain of conditionals that
appear in the closed-form transition denominator.  The bound requires each of
those factors to be dominated by the scenario's xi (the largest fully
conditioned entry); scenario validation enforces that domination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .dataset import (
    MAX_ENUM_LABELS,
    MIN_LABELS,
    GenerativeSpec,
    subset_membership,
)

__all__ = [
    "AnchorAssumptionError",
    "TheoremScenario",
    "theorem1_gap",
    "chain_T_values",
    "anchor_Q",
    "scenario_distortion",
    "corollary3_bound",
    "grid_scenarios",
    "random_generative_spec",
    "random_posterior",
]


class AnchorAssumptionError(ValueError):
    """Some label has no anchor support (its singleton subset has probability 0)."""


# ---------------------------------------------------------------------------
# Subset-level quantities from an explicit generative table
# ---------------------------------------------------------------------------


def theorem1_gap(spec: GenerativeSpec, posterior, j: int) -> tuple[float, float]:
    """The subset-exact complementary probability and its exclusive-event
    lower bound.

    The left side sums the full table over every subset excluding label j.
    The right side keeps only the exclusive events: each label k contributes
    its singleton subset's selection probability times the posterior mass of
    "exactly {k}".  Dropping the multi-label subsets can only remove
    nonnegative mass, so lhs >= rhs always, with equality when the posterior
    is supported on singletons.
    """
    post = np.asarray(posterior, dtype=np.float64)
    if post.shape != (spec.n_subsets,):
        raise ValueError(f"posterior must have shape ({spec.n_subsets},), aligned with the spec's subsets")
    if np.any(post < 0) or abs(post.sum() - 1.0) > 1e-9:
        raise ValueError("posterior must be nonnegative and sum to 1 within 1e-9")
    K = spec.n_labels
    lhs = float(spec.cl_given_subset[:, j] @ post)
    rhs = 0.0
    for k in range(K):
        if k == j:
            continue
        idx = (1 << k) - 1  # position of the singleton subset {k}
        rhs += float(spec.cl_given_subset[idx, j] * post[idx])
    return lhs, rhs


def anchor_Q(spec: GenerativeSpec) -> np.ndarray:
    """The exclusive-case transition estimate read at anchor points.

    Row k is the complementary-label distribution of the singleton subset {k};
    every label must have singleton support for its anchor to exist.
    """
    K = spec.n_labels
    unsupported = [k for k in range(K) if spec.subset_probs[(1 << k) - 1] <= 0.0]
    if unsupported:
        raise AnchorAssumptionError(f"labels {unsupported} have no singleton support; anchor estimate undefined")
    rows = [(1 << k) - 1 for k in range(K)]
    return np.array(spec.cl_given_subset[rows], copy=True)


# ---------------------------------------------------------------------------
# Dependent-label scenarios
# ---------------------------------------------------------------------------


def _check_prob(name: str, v) -> None:
    if not 0 < v <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {v}")


@dataclass(frozen=True)
class TheoremScenario:
    """Probability table for one group of dependent labels.

    For dependent label z_i the closed-form transition entry is

        T[z_i, j] = p_cl / (marginals[i] * prod(conditionals[i]))

    where conditionals[i] holds the m - 1 chain conditionals of the
    factorization used to derive that entry, ordered by increasing
    conditioning set; the last entry of each row conditions on all other
    dependent labels, and xi is the largest such fully conditioned entry.
    """

    dependent: tuple[int, ...]
    comp_label: int
    p_cl: float | Fraction
    marginals: tuple
    conditionals: tuple

    def __post_init__(self):
        m = len(self.dependent)
        if m < 2:
            raise ValueError("a scenario needs at least two dependent labels")
        if len(set(self.dependent)) != m:
            raise ValueError("dependent labels must be distinct")
        if self.comp_label in self.dependent:
            raise ValueError("the complementary label cannot be a dependent label")
        if len(self.marginals) != m or len(self.conditionals) != m:
            raise ValueError("need one marginal and one conditional chain per dependent label")
        _check_prob("p_cl", self.p_cl)
        for i in range(m):
            _check_prob(f"marginals[{i}]", self.marginals[i])
            if len(self.conditionals[i]) != m - 1:
                raise ValueError(f"conditional chain {i} must have {m - 1} entries")
            for t, c in enumerate(self.conditionals[i]):
                _check_prob(f"conditionals[{i}][{t}]", c)
        xi = self.xi
        for i in range(m):
            if self.marginals[i] > xi:
                raise ValueError(f"marginal {i} exceeds xi; the distortion bound needs domination by xi")
            for c in self.conditionals[i]:
                if c > xi:
                    raise ValueError(f"conditional chain {i} exceeds xi")

    @property
    def m(self) -> int:
        return len(self.dependent)

    @property
    def kind(self) -> str:
        return "pairwise" if self.m == 2 else f"chain-{self.m}"

    @property
    def xi(self):
        return max(row[-1] for row in self.conditionals)


def _exact_div(p, factors):
    denom = 1
    for f in factors:
        denom = denom * f
    if denom == 0:
        raise ZeroDivisionError("degenerate scenario: zero denominator")
    return p / denom


def chain_T_values(sc: TheoremScenario) -> list:
    """Closed-form transition entries T[z_i, j] for every dependent label."""
    return [_exact_div(sc.p_cl, (sc.marginals[i], *sc.conditionals[i])) for i in range(sc.m)]


def scenario_distortion(sc: TheoremScenario):
    """Distortion at the complementary label: sum over dependent labels of
    |T[z_i, j] - p_cl| (all other rows cancel), in exact arithmetic when the
    scenario is built from Fractions."""
    values = chain_T_values(sc)
    return sum(abs(v - sc.p_cl) for v in values)


def corollary3_bound(sc: TheoremScenario):
    """The distortion lower bound m * (1/xi^m - 1) * p_cl.

    Exact when the scenario holds Fractions; a float otherwise.
    """
    return sc.m * (1 / sc.xi**sc.m - 1) * sc.p_cl


SLACK = Fraction(9, 10)


def grid_scenarios(xis, ms) -> list[TheoremScenario]:
    """Build exact-arithmetic scenarios for a grid of xi values and group sizes.

    For each (xi, m) two scenarios are produced: a tight one with every factor
    equal to xi (the bound holds with equality) and a slack one where all but
    the fully conditioned factors are shrunk by SLACK, which strictly grows
    the closed-form entries and the distortion.
    """
    scenarios = []
    for m in ms:
        for xi in xis:
            xi = Fraction(xi).limit_denominator(10**6) if not isinstance(xi, Rational) else Fraction(xi)
            p = xi**m / 2  # keeps every closed-form entry at or below 1 in the tight case
            deps = tuple(range(m))
            j = m
            tight = TheoremScenario(
                dependent=deps,
                comp_label=j,
                p_cl=p,
                marginals=(xi,) * m,
                conditionals=((xi,) * (m - 1),) * m,
            )
            scenarios.append(tight)
            shrunk = tuple(
                tuple(c * SLACK for c in row[:-1]) + (row[-1],) for row in tight.conditionals
            )
            loose = TheoremScenario(
                dependent=deps,
                comp_label=j,
                p_cl=p,
                marginals=(xi * SLACK,) * m,
                conditionals=shrunk,
            )
            scenarios.append(loose)
    return scenarios


# ---------------------------------------------------------------------------
# Random generative tables for property checks
# ---------------------------------------------------------------------------


def random_generative_spec(n_labels: int, rng: np.random.Generator) -> GenerativeSpec:
    """A random explicit table: Dirichlet-like subset weights and random
    complementary-label rows."""
    if not MIN_LABELS <= n_labels <= MAX_ENUM_LABELS:
        raise ValueError(f"n_labels must lie in [{MIN_LABELS}, {MAX_ENUM_LABELS}]")
    m = 2**n_labels - 2
    probs = rng.gamma(1.0, size=m)
    probs /= probs.sum()
    comp = 1.0 - subset_membership(n_labels).astype(np.float64)
    cl = rng.gamma(1.0, size=(m, n_labels)) * comp
    cl /= cl.sum(axis=1, keepdims=True)
    cl *= comp  # re-zero members against float dust
    cl /= cl.sum(axis=1, keepdims=True)
    return GenerativeSpec(n_labels, probs, cl)


def random_posterior(spec: GenerativeSpec, rng: np.random.Generator) -> np.ndarray:
    """A random posterior over subsets, supported where the spec has mass."""
    support = spec.subset_probs > 0
    w = rng.gamma(1.0, size=spec.n_subsets) * support
    total = w.sum()
    if total <= 0:
        w = np.array(spec.subset_probs, copy=True)
        total = w.sum()
    return w / total
