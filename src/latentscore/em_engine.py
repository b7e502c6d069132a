"""EM fitting of the hidden-root model with tournament initialization.

``run_em`` alternates expectation and maximization steps on incomplete data
until the objective's relative change drops below a tolerance.  The prior
argument picks the objective: with a Dirichlet ``PriorSet`` it is
``g = log p(D|theta) + log p(theta)`` (MAP), and with ``prior=None`` the
plain log likelihood (ML).  Each iteration increases it, so traces are
monotone up to floating-point noise.

``tournament_init`` spreads a power-of-two field of random restarts over a
halving schedule: every surviving copy runs twice as many iterations as in
the previous round, then the better half advances.  With the default field
of 64 the rounds run 1, 2, 4, 8, 16, 32 iterations, so the eventual winner
has seen 63 iterations before the main loop starts.  Ties advance the copy
with the lower index, which keeps the whole procedure a pure function of the
seed stream.

The one EM loop runs on a stack of parameter sets (see ``TableSet``): a
round is one stacked EM run over the surviving copies, which carry their
objective and posteriors into the next round.  Each copy goes through the
same operations as it would alone, so stacking changes no value.
``run_em`` runs the same loop on a single set, and ``fit`` is
``tournament_init`` followed by ``run_em`` from the winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model_core import (
    PARAM_FLOOR,
    Dataset,
    ModelSpec,
    ParamSet,
    PriorSet,
    StatSet,
    align_hidden_arity,
    counts_from_posteriors,
    e_pass,
    expected_counts,
    log_prior,
)
from .numerics import NumericalFailureError, SeededStream
from .synth_data import generate_model


class DegeneratePriorError(ValueError):
    """MAP M step hit a row whose posterior-count denominator is not positive."""


class StarvedRowError(ValueError):
    """ML M step hit a row with zero expected count, leaving it undefined."""


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the EM loop and its initialization.  The prior passed to a
    fit picks its objective: MAP under a ``PriorSet``, ML under None."""

    rel_tol: float = 1e-5
    max_iters_after_init: int = 200
    tournament_start: int = 64

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_iters_after_init < 1:
            raise ValueError("max_iters_after_init must be >= 1")
        ts = self.tournament_start
        if ts < 2 or (ts & (ts - 1)) != 0:
            raise ValueError("tournament_start must be a power of two >= 2")


@dataclass
class EmResult:
    """What a fit produced: parameters, objective trace, and stopping state."""

    params: ParamSet
    final_g: float
    converged: bool
    iterations_used: int
    g_trace: list[float] = field(repr=False)


def e_step(params: ParamSet, data: Dataset) -> StatSet:
    """Posterior-weighted sufficient statistics at ``params``.

    Totals are conserved: the root counts sum to N, and each leaf table's
    total is N as well.
    """
    if data.is_complete:
        raise ValueError("E step expects incomplete data; use sufficient_stats "
                         "for a dataset with the hidden column")
    return expected_counts(params, data)


# Both M steps update every row of a set, or of a stack of sets, at once;
# the result is ``clamp_rows`` applied row by row to the packed values.

def _clamped(spec: ModelSpec, values: np.ndarray) -> ParamSet:
    """Clamp and renormalize the M step's own temporary in place."""
    np.maximum(values, PARAM_FLOOR, out=values)
    np.minimum(values, 1.0 - PARAM_FLOOR, out=values)
    return ParamSet.from_values(spec, spec.layout.rows.normalize(values))

def m_step_map(stats: StatSet, prior: PriorSet) -> ParamSet:
    """Row-wise posterior mode: (counts + alpha - 1) / (total + alpha0 - r)."""
    if stats.spec is not prior.spec and stats.spec != prior.spec:
        raise ValueError("statistics and prior describe different models")
    rows = stats.spec.layout.rows
    denom = rows.sum(stats.values) + prior.row_totals - rows.lengths
    if (denom <= 0.0).any():
        raise DegeneratePriorError(
            "posterior-mode update undefined: row count + alpha total <= arity")
    return _clamped(stats.spec, (stats.values + prior.values - 1.0)
                    / rows.expand(denom))


def m_step_ml(stats: StatSet) -> ParamSet:
    """Row-wise relative frequencies of the expected counts."""
    rows = stats.spec.layout.rows
    denom = rows.sum(stats.values)
    if (denom <= 0.0).any():
        raise StarvedRowError("a row has zero expected count; its maximum-"
                              "likelihood update is undefined")
    return _clamped(stats.spec, stats.values / rows.expand(denom))


_AT_START = "non-finite at the initial parameters"


def _evaluate(params: ParamSet, data: Dataset, prior: PriorSet | None,
              where: str):
    """One E pass: objective values plus the posteriors.

    The objective is g with a prior and the log likelihood without one.
    A non-finite value anywhere in a stack raises, naming ``where``.
    """
    g, post = e_pass(params, data)
    if prior is not None:
        g += log_prior(params, prior)
    if not np.isfinite(g).all():
        raise NumericalFailureError(f"objective {where}")
    return g, post


def _check_fit_inputs(data: Dataset, prior: PriorSet | None) -> None:
    if data.is_complete:
        raise ValueError("EM expects incomplete data; complete data has "
                         "closed-form estimates")
    if (prior is not None and prior.spec is not data.spec
            and prior.spec != data.spec):
        raise ValueError("prior and data describe different models")


def _em_loop(params: ParamSet, g, post: np.ndarray, data: Dataset,
             prior: PriorSet | None, max_iters: int, rel_tol: float):
    """The EM loop behind ``run_em`` and every tournament round.

    Starts from ``params`` with its objective ``g`` and posteriors ``post``
    (one set or a stack) and returns (params, posteriors, g trace,
    converged) at the last point.  The loop stops once every copy's
    relative change is below ``rel_tol``; with ``rel_tol=0.0`` no change
    can be, so the test is skipped and exactly ``max_iters`` M steps run.
    A caller that holds no reference to ``post`` lets the loop free it
    after the first M step.
    """
    trace = [g]
    for it in range(1, max_iters + 1):
        stats = counts_from_posteriors(post, data)
        params = (m_step_ml(stats) if prior is None
                  else m_step_map(stats, prior))
        # Drop the loop's references to the old posteriors and counts
        # before the next E pass builds new ones.
        post = stats = None
        g, post = _evaluate(params, data, prior,
                            f"became non-finite at iteration {it}")
        trace.append(g)
        if rel_tol > 0.0:
            prev = trace[-2]
            rel = abs(g - prev) / np.where(prev == 0.0, 1.0, abs(prev))
            if (rel < rel_tol).all():
                return params, post, trace, True
    return params, post, trace, False


def run_em(init: ParamSet, data: Dataset, prior: PriorSet | None,
           config: EmConfig) -> EmResult:
    """Iterate E and M steps from ``init`` until converged or out of budget.

    Convergence: |g_t - g_{t-1}| / |g_{t-1}| < rel_tol, falling back to the
    absolute change when the previous value is exactly zero.  The trace
    records the objective at ``init`` and after every M step: g under
    ``prior``, or the log likelihood with ``m_step_ml`` when ``prior`` is
    None.
    """
    _check_fit_inputs(data, prior)
    if init.spec is not data.spec and init.spec != data.spec:
        raise ValueError("initial parameters and data describe different models")
    params, _, trace, converged = _em_loop(
        init, *_evaluate(init, data, prior, _AT_START), data, prior,
        config.max_iters_after_init, config.rel_tol)
    return EmResult(params=params, final_g=trace[-1], converged=converged,
                    iterations_used=len(trace) - 1, g_trace=trace)


def tournament_init(data: Dataset, spec: ModelSpec, prior: PriorSet | None,
                    config: EmConfig, rng: SeededStream) -> ParamSet:
    """Halving tournament over random restarts; returns the winning ParamSet.

    ``spec`` is the model to fit; it may assume a different hidden arity
    than ``data.spec`` carries.  The starts are one ``generate_model`` draw
    with ``copies=tournament_start``: start ``i`` is the set
    ``rng.child(i)`` draws alone, so the result depends only on the stream,
    not on evaluation order.  Each round is one ``_em_loop`` run on the
    stack of surviving copies, ranked by g under ``prior`` or, when
    ``prior`` is None, by the log likelihood.
    """
    data = align_hidden_arity(spec, data)
    _check_fit_inputs(data, prior)
    params = generate_model(spec, rng, copies=config.tournament_start)
    g, post = _evaluate(params, data, prior, _AT_START)
    # Between rounds the carried parameters and posteriors live only in
    # ``carried``.  Each round pops them into the call, so the loop holds
    # the only references and frees them after its first M step instead of
    # keeping them beside the new point.
    carried = [params, post]
    del params, post
    idx = np.arange(config.tournament_start)
    iters = 1
    while idx.size > 1:
        *carried, trace, _ = _em_loop(carried.pop(0), g, carried.pop(), data,
                                      prior, iters, 0.0)
        # Best objective first; a tie goes to the lower start index.
        keep = np.lexsort((idx, -trace[-1]))[:idx.size // 2]
        idx = idx[keep]
        g = trace[-1][keep]
        carried = [ParamSet.from_values(spec, carried[0].values[keep]),
                   carried[1][keep]]
        iters *= 2
    return ParamSet.from_values(spec, carried[0].values[0])


def fit(data: Dataset, spec: ModelSpec, prior: PriorSet | None,
        config: EmConfig | None = None,
        rng: SeededStream | None = None) -> EmResult:
    """Tournament initialization followed by the full EM loop: the MAP fit
    under ``prior``, or the ML fit when ``prior`` is None."""
    if config is None:
        config = EmConfig()
    if rng is None:
        raise ValueError("fit needs a SeededStream for the restarts")
    data = align_hidden_arity(spec, data)
    return run_em(tournament_init(data, spec, prior, config, rng), data, prior,
                  config)


def result_metadata(result: EmResult) -> dict:
    """The metadata block stored next to a trained model."""
    return {
        "final_g": result.final_g,
        "converged": result.converged,
        "iterations_used": result.iterations_used,
    }
