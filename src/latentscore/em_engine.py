"""EM fitting of the hidden-root model with tournament initialization.

``run_em`` alternates expectation and maximization steps on incomplete data
until the objective's relative change drops below a tolerance.  The objective
is ``g = log p(D|theta) + log p(theta)`` in MAP mode and the plain log
likelihood in ML mode; each iteration increases it, so traces are monotone
up to floating-point noise.

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
    """Knobs for the EM loop and its initialization."""

    mode: str = "map"
    rel_tol: float = 1e-5
    max_iters_after_init: int = 200
    tournament_start: int = 64

    def __post_init__(self):
        if self.mode not in ("map", "ml"):
            raise ValueError("mode must be 'map' or 'ml'")
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
    return ParamSet.from_values(spec, spec.layout.rows.normalize(
        np.clip(values, PARAM_FLOOR, 1.0 - PARAM_FLOOR)))

def m_step_map(stats: StatSet, prior: PriorSet) -> ParamSet:
    """Row-wise posterior mode: (counts + alpha - 1) / (total + alpha0 - r)."""
    if stats.spec != prior.spec:
        raise ValueError("statistics and prior describe different models")
    rows = stats.spec.layout.rows
    denom = rows.sum(stats.values) + rows.sum(prior.values) - rows.lengths
    if np.any(denom <= 0.0):
        raise DegeneratePriorError(
            "posterior-mode update undefined: row count + alpha total <= arity")
    return _clamped(stats.spec, (stats.values + prior.values - 1.0)
                    / rows.expand(denom))


def m_step_ml(stats: StatSet) -> ParamSet:
    """Row-wise relative frequencies of the expected counts."""
    rows = stats.spec.layout.rows
    denom = rows.sum(stats.values)
    if np.any(denom <= 0.0):
        raise StarvedRowError("a row has zero expected count; its maximum-"
                              "likelihood update is undefined")
    return _clamped(stats.spec, stats.values / rows.expand(denom))


def _evaluate(params: ParamSet, data: Dataset, prior: PriorSet | None,
              mode: str):
    """One E pass: objective values plus the posteriors."""
    g, post = e_pass(params, data)
    if mode == "map":
        g += log_prior(params, prior)
    return g, post


@dataclass
class _Run:
    """Where an EM run stands: a single set or a stack of parameter sets,
    with their objectives and posteriors."""

    params: ParamSet
    g: float | np.ndarray
    post: np.ndarray | None


def _start(params: ParamSet, data: Dataset, prior: PriorSet | None,
           mode: str) -> _Run:
    """The E pass at the initial parameters, where ``_em_loop`` begins."""
    g, post = _evaluate(params, data, prior, mode)
    if not np.all(np.isfinite(g)):
        raise NumericalFailureError("objective non-finite at the initial "
                                    "parameters")
    return _Run(params, g, post)


def _one_m_step(post: np.ndarray, data: Dataset, prior: PriorSet | None,
                mode: str) -> ParamSet:
    stats = counts_from_posteriors(post, data)
    if mode == "map":
        return m_step_map(stats, prior)
    return m_step_ml(stats)


def _check_fit_inputs(data: Dataset, prior: PriorSet | None,
                      config: EmConfig) -> None:
    if data.is_complete:
        raise ValueError("EM expects incomplete data; complete data has "
                         "closed-form estimates")
    if config.mode == "map":
        if prior is None:
            raise ValueError("MAP mode needs a prior")
        if prior.spec != data.spec:
            raise ValueError("prior and data describe different models")


def _em_loop(run: _Run, data: Dataset, prior: PriorSet | None, mode: str,
             max_iters: int, rel_tol: float):
    """The EM loop behind ``run_em`` and every tournament round.

    Advances ``run`` in place and returns (g trace, converged).  The loop
    stops once every copy's relative change is below ``rel_tol``;
    ``rel_tol=0.0`` disables that, so exactly ``max_iters`` M steps run.
    """
    trace = [run.g]
    for it in range(1, max_iters + 1):
        params = _one_m_step(run.post, data, prior, mode)
        # Drop the only reference to the old posteriors before the next
        # E pass builds new ones.
        run.post = None
        g, run.post = _evaluate(params, data, prior, mode)
        if not np.all(np.isfinite(g)):
            raise NumericalFailureError(
                f"objective became non-finite at iteration {it}")
        run.params, run.g = params, g
        trace.append(g)
        prev = trace[-2]
        change = abs(g - prev)
        rel = change / np.where(prev == 0.0, 1.0, abs(prev))
        if np.all(rel < rel_tol):
            return trace, True
    return trace, False


def run_em(init: ParamSet, data: Dataset, prior: PriorSet | None,
           config: EmConfig) -> EmResult:
    """Iterate E and M steps from ``init`` until converged or out of budget.

    Convergence: |g_t - g_{t-1}| / |g_{t-1}| < rel_tol, falling back to the
    absolute change when the previous value is exactly zero.  The trace
    records the objective at ``init`` and after every M step.
    """
    _check_fit_inputs(data, prior, config)
    if init.spec != data.spec:
        raise ValueError("initial parameters and data describe different models")
    run = _start(init, data, prior, config.mode)
    trace, converged = _em_loop(run, data, prior, config.mode,
                                config.max_iters_after_init, config.rel_tol)
    return EmResult(params=run.params, final_g=trace[-1], converged=converged,
                    iterations_used=len(trace) - 1, g_trace=trace)


def tournament_init(data: Dataset, spec: ModelSpec, prior: PriorSet | None,
                    config: EmConfig, rng: SeededStream) -> ParamSet:
    """Halving tournament over random restarts; returns the winning ParamSet.

    ``spec`` is the model to fit; it may assume a different hidden arity
    than ``data.spec`` carries.  Copy ``i`` draws its start from
    ``rng.child(i)``, so the result depends only on the stream, not on
    evaluation order.  Each round is one ``_em_loop`` run on the stack of
    surviving copies.
    """
    data = align_hidden_arity(spec, data)
    _check_fit_inputs(data, prior, config)
    starts = generate_model(spec, [rng.child(idx)
                                   for idx in range(config.tournament_start)])
    run = _start(starts, data, prior, config.mode)
    idx = np.arange(config.tournament_start)
    iters = 1
    while idx.size > 1:
        _em_loop(run, data, prior, config.mode, iters, 0.0)
        # Best objective first; a tie goes to the lower start index.
        keep = np.lexsort((idx, -run.g))[:idx.size // 2]
        idx = idx[keep]
        run = _Run(ParamSet.from_values(spec, run.params.values[keep]),
                   run.g[keep], run.post[keep])
        iters *= 2
    return ParamSet.from_values(spec, run.params.values[0])


def fit(data: Dataset, spec: ModelSpec, prior: PriorSet | None,
        config: EmConfig | None = None,
        rng: SeededStream | None = None) -> EmResult:
    """Tournament initialization followed by the full EM loop."""
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
