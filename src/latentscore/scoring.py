"""Log marginal-likelihood scores for the hidden-root model.

Complete data has a closed-form score (``bd_complete``).  Incomplete data
does not, so this module provides five asymptotic approximations, all
evaluated at the posterior mode found by EM:

- ``laplace``: second-order expansion of g around the mode; needs the
  determinant of the negative Hessian, in closed form from one E pass.
- ``bic``: log likelihood at the mode minus (d/2) log N.
- ``draper``: bic plus (d/2) log 2*pi, a constant offset per dimension.
- ``mled``: the closed form applied to the fractional expected statistics.
- ``cs``: mled rescaled by the gap between the observed log likelihood and
  the expected complete-data log likelihood at the mode.

``oracle_exact`` sums the closed form over every completion of the hidden
column, grouped by how each distinct observed pattern's m_k records split
over the c states: prod_k C(m_k + c - 1, c - 1) groups, which ``cap``
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .em_engine import EmResult, e_step
from .model_core import (
    Dataset,
    ModelSpec,
    ParamSet,
    PriorSet,
    StatSet,
    align_hidden_arity,
    counts_from_posteriors,
    dimension,
    e_pass,
    free_to_params,
    grad_g,  # perfbench/layers.py traces scoring.grad_g
    log_likelihood,
    log_posterior_g,
    log_prior,
    params_to_free,
)
from .numerics import (
    NotPositiveDefiniteError,
    NumericalFailureError,
    gammaln,
    log_det_pd,
)

MEASURES = ("laplace", "bic", "draper", "mled", "cs")

ORACLE_CAP = 2 ** 20

LOG_2PI = math.log(2.0 * math.pi)


class EnumerationInfeasibleError(RuntimeError):
    """Exact enumeration would exceed the cap on groups of completions."""


def check_measures(measures) -> None:
    """Raise ValueError naming every entry that is neither one of MEASURES
    nor "oracle"."""
    bad = [m for m in measures if m not in MEASURES and m != "oracle"]
    if bad:
        raise ValueError(f"unknown measures: {bad}")


def _params_of(mode) -> ParamSet:
    """Measure entry points take an EmResult or a bare ParamSet."""
    return mode.params if isinstance(mode, EmResult) else mode


def fractional_bd(stats: StatSet, prior: PriorSet) -> float:
    """The closed-form score with gamma functions taken at real-valued counts."""
    if stats.spec != prior.spec:
        raise ValueError("statistics and prior describe different models")
    rows = stats.spec.layout.rows
    n_rows = prior.row_totals.size
    # One gammaln call takes every count-dependent argument, the row totals
    # first; the prior's own terms are cached on it.
    lg = gammaln(np.concatenate((prior.row_totals + rows.sum(stats.values),
                                 prior.values + stats.values)))
    terms = (prior.log_gamma_row_totals - lg[:n_rows]
             + rows.sum(lg[n_rows:] - prior.log_gamma_values))
    # cumsum adds the table totals strictly left to right, as a running
    # total over the tables would.
    return float(np.cumsum(stats.spec.layout.table_rows.sum(terms))[-1])


def bd_complete(stats: StatSet, prior: PriorSet) -> float:
    """Exact log marginal likelihood of complete data from integer counts."""
    if not stats.is_integral:
        raise ValueError("bd_complete needs integer counts; fractional "
                         "statistics go through fractional_bd")
    return fractional_bd(stats, prior)


def _expected_complete_loglik(params: ParamSet, stats: StatSet) -> float:
    """sum over all cells of E[N] * log theta, table by table in order."""
    terms = stats.values * params.log_values
    return float(np.cumsum(params.spec.layout.tables.sum(terms))[-1])


# ---------------------------------------------------------------------------
# Exact oracle by grouped completions of the hidden column.

def _splits(m: int, c: int) -> list[list[int]]:
    """Every way to put m exchangeable records into c states: the
    C(m + c - 1, c - 1) lists of c counts that sum to m."""
    if c == 1:
        return [[m]]
    return [[k, *rest] for k in range(m + 1) for rest in _splits(m - k, c - 1)]


def _log_rising_table(alpha: np.ndarray, n: int) -> np.ndarray:
    """(len(alpha), n + 1) table of log Gamma(alpha_j + k) - log Gamma(alpha_j)
    for k = 0..n, as the running sums over t < k of log(alpha_j + t)."""
    table = np.zeros((alpha.size, n + 1))
    np.cumsum(np.log(alpha[:, None] + np.arange(n)), axis=1, out=table[:, 1:])
    return table


def _log_rising(alpha: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """sum_j log Gamma(alpha_j + counts[j]) - log Gamma(alpha_j), per group.

    ``counts`` is (c, groups) with integer entries in 0..n, so each term is
    a lookup in ``_log_rising_table``.
    """
    table = _log_rising_table(alpha, n)
    return sum(row.take(k) for row, k in zip(table, counts))


def _logsumexp(values: np.ndarray) -> float:
    """log sum exp(values) for finite values, shifted by their largest."""
    top = values.max()
    return float(top + np.log(np.exp(values - top).sum()))


def oracle_exact(data: Dataset, spec: ModelSpec, prior: PriorSet,
                 cap: int = ORACLE_CAP) -> float:
    """log p(D): log-sum-exp of the closed form over grouped completions.

    Records with the same observed pattern (``Dataset.patterns``) are
    exchangeable, so a completion of the hidden column enters only through
    how many of each pattern's m_k records go to each state.  Each such
    split (a group) stands for prod_k m_k! / prod_kj n_kj! completions with
    equal closed form.  There are prod_k C(m_k + c - 1, c - 1) groups,
    never more than c^N.  Raises EnumerationInfeasibleError when they
    exceed ``cap``.
    """
    if data.is_complete:
        raise ValueError("data already carries a hidden column; score it "
                         "with bd_complete instead")
    data = align_hidden_arity(spec, data)
    if prior.spec != spec:
        raise ValueError("prior and spec describe different models")
    c = spec.hidden_arity
    n = data.n_samples
    patterns = data.patterns.rows
    mult = data.patterns.weights.astype(np.int64)
    sizes = [math.comb(int(m) + c - 1, c - 1) for m in mult]
    n_groups = math.prod(sizes)
    if n_groups > cap:
        raise EnumerationInfeasibleError(
            f"{n_groups} groups of hidden completions ({len(mult)} distinct "
            f"patterns, {c} states) exceed the cap of {cap}")

    # Group g takes split g_k of pattern k, where (g_0, ..., g_K-1) are the
    # digits of g in the mixed radix ``sizes``, g_0 the most significant.
    # Counts never exceed N, so the smallest integer type holding N keeps
    # the (c, groups) count arrays small.
    dtype = np.min_scalar_type(n)
    log_fact = _log_rising_table(np.ones(1), n)[0]
    total = np.full(n_groups, float(log_fact[mult].sum()))
    root = np.zeros((c, n_groups), dtype=dtype)
    leaf = [np.zeros((r, c, n_groups), dtype=dtype)
            for r in spec.observed_arities]
    inner = n_groups
    for pattern, m, size in zip(patterns, mult, sizes):
        inner //= size
        outer = n_groups // (size * inner)
        split = np.array(_splits(int(m), c), dtype=dtype)
        total -= np.tile(np.repeat(log_fact[split].sum(axis=1), inner), outer)
        counts = np.tile(np.repeat(split.T, inner, axis=1), (1, outer))
        root += counts
        for table, v in zip(leaf, pattern):
            table[v] += counts

    ra0 = prior.root.sum(keepdims=True)
    total -= _log_rising_table(ra0, n)[0, n]
    total += _log_rising(prior.root, root, n)
    for alphas, table in zip(prior.leaves, leaf):
        total -= _log_rising(alphas.sum(axis=1), root, n)
        for v in range(alphas.shape[1]):
            total += _log_rising(alphas[:, v], table[v], n)
    return _logsumexp(total)


# ---------------------------------------------------------------------------
# Curvature at the mode.

def neg_hessian(coords: np.ndarray, data: Dataset,
                prior: PriorSet) -> np.ndarray:
    """-(d^2 g / dx^2) in closed form, from one E pass (Louis 1982).

    With v = E[counts] + alpha - 1, the packed entries' curvature is
    diag(v / theta^2) less the posterior covariance, summed over records,
    of each record's complete-data score.  Had record t's hidden state been
    j, that score would be [1, x_t] / theta on state j's root entry and leaf
    block.  The drop-last chart maps entries u to free coordinates as
    u[free] - u[free_last], so with S_j the charted scores (N records by the
    root row's and state j's leaf rows' coordinates) and V = sum_j post_j S_j,

        -H = chart(diag(v / theta^2)) - sum_j S_j^T diag(post_j) S_j + V^T V.

    Records with one pattern have equal rows in S_j and V, so the sums run
    over the K distinct patterns with each score row scaled by sqrt(w), the
    square root of its multiplicity; V^T V stays a product of one matrix
    with its own transpose.  The result is made exactly symmetric, which
    log_det_pd requires.  A point so near the boundary that the products
    overflow raises NumericalFailureError without numpy warnings.
    """
    params = free_to_params(data.spec, coords)
    layout, c = data.spec.layout, data.spec.hidden_arity
    theta, d = params.values, layout.free.size
    patterns = data.patterns
    root_w = np.sqrt(patterns.weights)[:, None]
    post = e_pass(params, data)[1]
    score = root_w * np.concatenate(
        (np.zeros((root_w.size, c)), patterns.design), axis=1)
    v_mat = np.zeros((root_w.size, d))
    a = np.zeros((d, d))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        curv = ((counts_from_posteriors(post, data).values + prior.values
                 - 1.0) / theta ** 2)
        for j in range(c):
            # State j's score lies on the root row and state j's leaf
            # block; ``at`` places those entries in the columns of
            # ``score``, and the chart keeps the coordinates whose entries
            # it places.
            entries = np.concatenate((np.arange(c), layout.block[j]))
            at = np.full(layout.size, -1)
            at[entries] = np.arange(entries.size)
            cols = np.flatnonzero(at[layout.free] >= 0)
            score[:, :c] = root_w * (np.arange(c) == j)
            u = score / theta[entries]
            s = u[:, at[layout.free[cols]]] - u[:, at[layout.free_last[cols]]]
            w = post[j][:, None] * s
            a[np.ix_(cols, cols)] -= w.T @ s
            v_mat[:, cols] += w
        a += v_mat.T @ v_mat
        a[np.diag_indices(d)] += curv[layout.free]
        k, m = np.nonzero(layout.free_last[:, None] == layout.free_last)
        a[k, m] += curv[layout.free_last[k]]
        a = (a + a.T) / 2.0
    if not np.all(np.isfinite(a)):
        raise NumericalFailureError("negative Hessian has non-finite entries")
    return a


# ---------------------------------------------------------------------------
# The five measures.

def laplace_score(em, data: Dataset, prior: PriorSet) -> float:
    """g at the mode + (d/2) log 2*pi - half the log determinant of -H.

    ``em`` is an EmResult (or the mode ParamSet itself).  Raises
    NotPositiveDefiniteError when the curvature is not positive definite
    (the mode sits on a ridge or a boundary).
    """
    params = _params_of(em)
    g = log_posterior_g(params, data, prior)
    coords = params_to_free(params)
    a = neg_hessian(coords, data, prior)
    return g + 0.5 * coords.size * LOG_2PI - 0.5 * log_det_pd(a)


def bic_score(loglik_at_mode: float, d: int, n_samples: int) -> float:
    return loglik_at_mode - 0.5 * d * math.log(n_samples)


def draper_score(loglik_at_mode: float, d: int, n_samples: int) -> float:
    return bic_score(loglik_at_mode, d, n_samples) + 0.5 * d * LOG_2PI


def mled_score(em, data: Dataset, prior: PriorSet) -> float:
    """Closed form on the expected statistics at the mode."""
    return fractional_bd(e_step(_params_of(em), data), prior)


def _cs(mled: float, params: ParamSet, stats: StatSet, ll: float) -> float:
    if stats.spec.hidden_arity == 1:
        # Nothing is hidden, so the completed data IS the observed data and
        # the two likelihood terms are the same quantity.
        return mled
    return mled - _expected_complete_loglik(params, stats) + ll


def cs_score(em, data: Dataset, prior: PriorSet) -> float:
    """mled - E[complete log lik] + observed log lik, all at the mode.

    The difference corrects the complete-data form for the data actually
    observed; the dimension penalties of the two pieces cancel exactly
    because the completed dataset has the same d and N.
    """
    params = _params_of(em)
    stats = e_step(params, data)
    return _cs(fractional_bd(stats, prior), params, stats,
               log_likelihood(params, data))


# ---------------------------------------------------------------------------
# Batch evaluation.

@dataclass
class ScoreReport:
    """All requested scores at one parameter point, plus shared context.

    ``scores`` holds the measures that evaluated; ``failures`` maps each
    failed measure to a one-line reason.  Keys of the two never overlap.
    """

    measures: tuple[str, ...]
    n_samples: int
    dim: int
    loglik_at_mode: float
    g_at_mode: float
    scores: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    def csv_header(self) -> str:
        return ",".join(self.measures)

    def csv_row(self) -> str:
        cells = []
        for name in self.measures:
            cells.append(repr(self.scores[name]) if name in self.scores else "")
        return ",".join(cells)


def score_report(em, data: Dataset, prior: PriorSet,
                 measures=MEASURES) -> ScoreReport:
    """Evaluate the requested measures at one mode.

    bic, draper, mled and cs share one E pass: its log likelihood, and the
    expected counts its posteriors give.  mled and cs are computed from
    those here rather than through ``mled_score`` and ``cs_score``, each of
    which makes its own E pass.  laplace is ``laplace_score``, whose own
    E passes are small beside the d x d curvature products; the oracle does
    not use the mode.

    ``measures`` may include "oracle" in addition to the approximations.
    Complete data (with the hidden column) raises ValueError up front.
    Failures (non-positive-definite curvature, infeasible enumeration,
    numerics) are recorded per measure instead of raised.
    """
    params = _params_of(em)
    measures = tuple(measures)
    check_measures(measures)

    if data.is_complete:
        raise ValueError("score_report expects incomplete data; score a "
                         "dataset with the hidden column with bd_complete")

    d = dimension(data.spec)
    n = data.n_samples
    ll, post = e_pass(params, data)
    stats = counts_from_posteriors(post, data)
    g = ll + log_prior(params, prior)
    report = ScoreReport(measures=measures, n_samples=n, dim=d,
                         loglik_at_mode=ll, g_at_mode=g)
    mled = fractional_bd(stats, prior)

    for name in measures:
        try:
            if name == "bic":
                val = bic_score(ll, d, n)
            elif name == "draper":
                val = draper_score(ll, d, n)
            elif name == "mled":
                val = mled
            elif name == "cs":
                val = _cs(mled, params, stats, ll)
            elif name == "laplace":
                val = laplace_score(params, data, prior)
            else:
                val = oracle_exact(data, data.spec, prior)
        except (NotPositiveDefiniteError, NumericalFailureError,
                EnumerationInfeasibleError) as exc:
            report.failures[name] = f"{type(exc).__name__}: {exc}"
            continue
        report.scores[name] = float(val)
    return report
