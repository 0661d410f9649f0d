"""Projective measurement semantics: Born distributions, subspace-projection
collapse for degenerate observables, sequential programs, joint
distributions of commuting sets, seeded sampling, and correlation analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    TOL_CORR,
    TOL_LABEL,
    TOL_NORM,
    TOL_SUM,
    TOL_ZERO,
    DimensionMismatchError,
    as_state,
    norm,
)
from .observables import NonCommutingError, SpectralObservable, _check_commuting


class UnnormalizedStateError(ValueError):
    """A measured state must be a unit vector."""


class ZeroProbabilityError(ValueError):
    """The prescribed outcome has (numerically) zero probability."""


class OutcomeNotInSpectrumError(ValueError):
    """The prescribed outcome is not an eigenvalue of the observable."""


class OverlappingSupportError(ValueError):
    """Correlation analysis needs observables on disjoint qubit sets."""


@dataclass(frozen=True, eq=False)
class Distribution:
    """Outcome labels (eigenvalues, or tuples of them) with probabilities.

    Zero-probability branches are retained so impossible outcomes stay
    visible in reports.
    """

    entries: tuple[tuple[object, float], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("distribution labels must be distinct")
        total = sum(p for _, p in self.entries)
        if abs(total - 1.0) > TOL_SUM:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def labels(self):
        return tuple(label for label, _ in self.entries)

    def probability(self, label) -> float:
        for known, p in self.entries:
            if known == label or _labels_close(known, label):
                return p
        raise KeyError(f"label {label!r} not in distribution over {self.labels}")

    def as_dict(self) -> dict:
        return {label: p for label, p in self.entries}


def _labels_close(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_labels_close(x, y) for x, y in zip(a, b))
    if isinstance(a, tuple) or isinstance(b, tuple):
        return False
    return abs(float(a) - float(b)) <= TOL_LABEL


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One measurement step: what was measured, the outcome, its Born
    probability at that step, and the normalized post-measurement state."""

    observable: str
    outcome: float
    probability: float
    post_state: np.ndarray


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Joint statistics of two observables on disjoint qubit sets.

    perfectly_correlated holds when every first-party outcome with nonzero
    probability pins down the second party's outcome within tolerance;
    max_conditional_certainty keeps the quantitative gap visible when it
    does not.
    """

    joint: Distribution
    perfectly_correlated: bool
    max_conditional_certainty: float


def _require_measurable(state, obs: SpectralObservable, norm_tol: float) -> np.ndarray:
    state = as_state(state)
    if state.shape[0] != obs.dim:
        raise DimensionMismatchError(
            f"state dim {state.shape[0]} does not match observable dim {obs.dim}")
    deviation = abs(norm(state) - 1.0)
    if deviation > norm_tol:
        raise UnnormalizedStateError(
            f"state norm deviates from 1 by {deviation:.3g}, "
            f"more than the norm tolerance {norm_tol:g}")
    return state


def born_distribution(state, obs: SpectralObservable, *,
                      norm_tol: float = TOL_NORM) -> Distribution:
    """Born-rule outcome distribution: P(eigenvalue) is the squared norm of
    the eigenspace projection of the state."""
    state = _require_measurable(state, obs, norm_tol)
    entries = []
    for ev, basis in obs.local_branches:
        coeff = obs._apply(basis, state, adjoint=True)
        entries.append((ev, float(np.sum(np.abs(coeff) ** 2))))
    return Distribution(entries=tuple(entries))


def collapse(state, obs: SpectralObservable, outcome: float, *,
             norm_tol: float = TOL_NORM,
             zero_tol: float = TOL_ZERO) -> MeasurementRecord:
    """Subspace-projection (Lueders) collapse onto the outcome's eigenspace.

    Coherence within a degenerate eigenspace is preserved: the post state is
    P|state> / ||P|state>||.  A prescribed outcome with probability at or
    below zero_tol signals an impossible branch and raises
    ZeroProbabilityError.
    """
    state = _require_measurable(state, obs, norm_tol)
    try:
        outcome, basis = obs._local_branch(outcome)
    except KeyError:
        raise OutcomeNotInSpectrumError(
            f"outcome {outcome} is not in the spectrum {obs.eigenvalues}") from None
    coeff = obs._apply(basis, state, adjoint=True)
    probability = float(np.sum(np.abs(coeff) ** 2))
    if probability <= zero_tol:
        raise ZeroProbabilityError(
            f"outcome {outcome:g} of {obs.name or 'observable'} has zero probability "
            f"({probability:.3e}) on this state")
    post = obs._apply(basis, coeff) / math.sqrt(probability)
    return MeasurementRecord(observable=obs.name or "observable",
                             outcome=outcome, probability=probability,
                             post_state=post)


def run_sequence(state, program, outcomes, *,
                 norm_tol: float = TOL_NORM,
                 zero_tol: float = TOL_ZERO) -> list[MeasurementRecord]:
    """Fold collapse left to right over a measurement program.

    The product of the step probabilities is the joint probability of the
    whole outcome string.  Errors are re-raised with the failing step index.
    """
    program = list(program)
    outcomes = list(outcomes)
    if len(program) != len(outcomes):
        raise ValueError(f"{len(program)} observables but {len(outcomes)} outcomes")
    records = []
    current = as_state(state)
    for step, (obs, outcome) in enumerate(zip(program, outcomes), start=1):
        try:
            record = collapse(current, obs, outcome, norm_tol=norm_tol, zero_tol=zero_tol)
        except (ZeroProbabilityError, OutcomeNotInSpectrumError,
                DimensionMismatchError, UnnormalizedStateError) as exc:
            raise type(exc)(f"step {step}: {exc}") from exc
        records.append(record)
        current = record.post_state
    return records


def _sequence_paths(state, program, norm_tol: float):
    """All outcome strings of a sequential program with their exact joint
    probabilities ||P_k ... P_1 |state>||^2 (kept even when zero).

    The outcome tree is walked one depth at a time.  The projected states of
    a depth are the rows of one stack, each branch projects the whole stack
    in one call, and the results interleave path-major, branch-minor, which
    is the outcome order.  Each row gets the bits of projecting it alone
    (`SpectralObservable._apply`).
    """
    program = list(program)
    if not program:
        raise ValueError("program must contain at least one observable")
    state = _require_measurable(state, program[0], norm_tol)
    outcomes = [()]
    rows = state[None]
    for obs in program:
        if obs.dim != state.shape[0]:
            raise DimensionMismatchError(
                f"observable dim {obs.dim} does not match state dim {state.shape[0]}")
        parts = [obs._project(basis, rows) for _, basis in obs.local_branches]
        rows = np.stack(parts, axis=1).reshape(-1, obs.dim)
        outcomes = [outcome + (ev,) for outcome in outcomes for ev in obs.eigenvalues]
    return [(outcome, float(np.vdot(row, row).real)) for outcome, row in zip(outcomes, rows)]


def sequence_distribution(state, program, *,
                          norm_tol: float = TOL_NORM) -> Distribution:
    """Exact distribution over outcome strings of a sequential program
    (valid for non-commuting programs too)."""
    return Distribution(entries=tuple(_sequence_paths(state, program, norm_tol)))


def joint_distribution(state, observables) -> Distribution:
    """Joint outcome distribution of a set commuting pairwise to TOL_COMMUTE.

    Probabilities come from products of the commuting branch projectors, so
    every marginal agrees with born_distribution of the single observable.
    """
    observables = list(observables)
    if not observables:
        raise ValueError("need at least one observable")
    _check_commuting(observables)
    return Distribution(entries=tuple(_sequence_paths(state, observables, TOL_NORM)))


def _draw_counts(paths, trials: int, seed: int) -> dict[tuple[float, ...], int]:
    """One seeded multinomial draw of `trials` shots over exact
    (outcome, probability) paths."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    probs = np.array([p for _, p in paths])
    total = probs.sum()
    if abs(total - 1.0) > TOL_SUM:
        raise ValueError(f"path probabilities sum to {total!r}, not 1")
    counts = np.random.default_rng(seed).multinomial(trials, probs / total)
    return {outcome: int(c) for (outcome, _), c in zip(paths, counts)}


def correlation_check(state, a: SpectralObservable, b: SpectralObservable, *,
                      corr_tol: float = TOL_CORR,
                      zero_tol: float = TOL_ZERO) -> CorrelationReport:
    """Do outcomes of `a` determine outcomes of `b` on this state?

    The two observables must act on disjoint `sites` (place them with `embed`).
    Reports the joint distribution, the perfect-correlation verdict at
    corr_tol, and the best conditional certainty max_a max_b P(b | a).
    """
    if set(a.sites) & set(b.sites):
        raise OverlappingSupportError(
            f"supports overlap on sites {sorted(set(a.sites) & set(b.sites))}")
    joint = joint_distribution(state, [a, b])
    marginal: dict[float, float] = {}
    for (ev_a, _), p in joint.entries:
        marginal[ev_a] = marginal.get(ev_a, 0.0) + p
    best = {}
    for (ev_a, ev_b), p in joint.entries:
        if marginal[ev_a] > zero_tol:
            conditional = p / marginal[ev_a]
            best[ev_a] = max(best.get(ev_a, 0.0), conditional)
    perfectly = all(v >= 1.0 - corr_tol for v in best.values())
    return CorrelationReport(joint=joint, perfectly_correlated=perfectly,
                             max_conditional_certainty=max(best.values()))
