"""Naive-Bayes model with a hidden root: structure, parameters, priors,
and the pointwise probability computations built on them.

The model has one hidden root variable with ``c`` states and ``n`` observed
leaves, each conditionally independent given the root.  Parameters are
conditional probability tables whose rows are simplices: the root
distribution (one row of length ``c``) and, per leaf ``i``, a ``c x r_i``
table.  Priors are independent Dirichlets of the same shape, and the
sufficient statistics are counts of the same shape.  All three containers
(``ParamSet``, ``PriorSet``, ``StatSet``) hold one packed array of
``P = c + c R`` entries, the root row and then each leaf's rows, with
``root``, ``leaves`` and ``tables`` as views.  Every table operation is
elementwise arithmetic on it plus per-row sums from the spec's cached
``Layout``, whose ``Segments`` sum each row with the bits of a row of its
own.  A container may also hold a stack of such sets, one per EM start,
along a leading axis; every operation then works on all copies at once.

Records enter through their distinct patterns: a dataset caches its K
distinct records in first-occurrence order, their multiplicities ``w`` and
one (K, R) one-hot design ``X``, ``R = sum r_i``.  Every pass runs over
the patterns with those weights: the E pass scores every hidden state and
pattern as the (c, K) ``log root + log(theta) @ X.T`` and sums the
weighted log marginals, the counts are one product ``post @ (w [1, X])``,
and the curvature scales each pattern's score row by sqrt(w).  Scores and
posteriors keep the states on rows of K patterns, so each reduction over
the states is a pass down c long rows.  All likelihoods run in the log
domain; each pattern's mixture sum is shifted by its largest term so that
products over many leaves cannot underflow.

Free coordinates drop the last component of every simplex row.  The
Dirichlet prior density is exactly the density in these coordinates (the
drop-last chart has unit Jacobian), so the unnormalized log posterior
``g = log p(D|theta) + log p(theta)`` needs no change-of-measure term when
expanded or differentiated in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import json

import numpy as np

from .numerics import gammaln

ROW_SUM_TOL = 1e-9

# Parameters are kept this far inside the simplex after every M step so that
# g, its gradient, and the Hessian stay finite.
PARAM_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Structural description: leaf arities and hidden-root arity."""

    observed_arities: tuple[int, ...]
    hidden_arity: int

    def __post_init__(self):
        object.__setattr__(
            self, "observed_arities", tuple(int(r) for r in self.observed_arities)
        )
        if len(self.observed_arities) < 1:
            raise ValueError("need at least one observed variable")
        if any(r < 2 for r in self.observed_arities):
            raise ValueError("observed arities must be >= 2")
        if self.hidden_arity < 1:
            raise ValueError("hidden arity must be >= 1")

    @property
    def n_observed(self) -> int:
        return len(self.observed_arities)

    @cached_property
    def layout(self) -> "Layout":
        """The packed layout, built on first use; a spec never changes."""
        return Layout(self)


class Segments:
    """Consecutive segments of a packed last axis, e.g. a TableSet's rows.

    ``sum`` gives each segment the bits of ``.sum(axis=-1)`` on it as a row
    of its own array: the segments of one length are reshaped to
    ``(..., k, length)``, sliced when they lie side by side and gathered by
    a contiguous ``np.take`` otherwise, and summed by one ufunc call per
    length.  Rows of 8 or more entries are summed by ``.sum`` on their
    unit-stride axis, which numpy does pairwise.  numpy sums a shorter row
    left to right from 0.0: rows of 2 are one add, of the two strided
    columns written into the output when they lie side by side, and rows
    of 1 or 3 to 7 one left-to-right ``np.add.accumulate`` whose last
    column is the total.  Adding the 0.0 last gives the same bits as adding
    it first, the sign of a zero total included (a row of -0.0 sums to
    +0.0).  ``expand`` repeats each segment's value over its entries by one
    ``np.take`` through a cached index.
    """

    def __init__(self, lengths):
        self.lengths = lengths = np.asarray(lengths)
        starts = np.cumsum(lengths) - lengths
        self._expand = np.repeat(np.arange(lengths.size), lengths)
        # Every segment's total is written by its group, except an empty
        # segment's, which stays 0.0.
        self._new = np.zeros if (lengths == 0).any() else np.empty
        self._groups = []
        for r in np.unique(lengths[lengths > 0]):
            segs = np.flatnonzero(lengths == r)
            cols = (starts[segs, None] + np.arange(r)).ravel()
            if segs[-1] - segs[0] + 1 == segs.size:
                segs, cols = (slice(segs[0], segs[-1] + 1),
                              slice(cols[0], cols[-1] + 1))
            self._groups.append((segs, cols, r))

    def sum(self, values: np.ndarray) -> np.ndarray:
        if not values.flags.c_contiguous:
            values = np.ascontiguousarray(values)
        stack = values.shape[:-1]
        out = self._new(stack + self.lengths.shape)
        for segs, cols, r in self._groups:
            if r == 2 and isinstance(segs, slice):
                np.add(values[..., cols.start:cols.stop:2],
                       values[..., cols.start + 1:cols.stop:2],
                       out=out[..., segs])
                continue
            part = (values[..., cols] if isinstance(cols, slice)
                    else values.take(cols, axis=-1))
            part = part.reshape(stack + (-1, r))
            if r >= 8:
                out[..., segs] = part.sum(axis=-1)
            else:
                out[..., segs] = np.add.accumulate(part, axis=-1)[..., -1]
        # The 0.0 that numpy starts a row from: it turns a -0.0 total, which
        # only a row of -0.0 gives, into +0.0 and leaves every other total.
        out += 0.0
        return out

    def expand(self, per_segment: np.ndarray) -> np.ndarray:
        return per_segment.take(self._expand, axis=-1)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Divide each segment by its sum, in place; returns ``values``."""
        values /= self.expand(self.sum(values))
        return values


class Layout:
    """A spec's packed entries: the root row, then leaf ``i``'s ``c`` rows.

    ``rows`` and ``tables`` segment the entries, ``table_rows`` the rows and
    ``free_rows`` the free coordinates.  ``free`` and ``last`` index the
    free entries and each row's last one, and ``free_last`` gives each free
    coordinate its row's last entry; ``block`` gathers the ``(c, R)`` leaf
    tables side by side, in the design's column order.  ``counts`` gathers
    the packed entries from a flattened ``(c, 1 + R)`` count product: the
    root from its first column, the leaf tables from the rest.
    """

    def __init__(self, spec: ModelSpec):
        c, arities = spec.hidden_arity, np.array(spec.observed_arities)
        lengths = np.concatenate(([c], np.repeat(arities, c)))
        self.size = int(lengths.sum())
        self.rows, self.free_rows = Segments(lengths), Segments(lengths - 1)
        self.tables = Segments(np.concatenate(([c], c * arities)))
        self.table_rows = Segments([1] + [c] * arities.size)
        self.last = np.cumsum(lengths) - 1
        self.free = np.delete(np.arange(self.size), self.last)
        self.free_last = np.repeat(self.last, lengths - 1)
        leaf = np.repeat(np.arange(arities.size), arities)
        before = (np.cumsum(arities) - arities)[leaf]
        self.block = (c + (c - 1) * before + np.arange(leaf.size)
                      + np.arange(c)[:, None] * arities[leaf])
        width = 1 + leaf.size
        self.counts = np.empty(self.size, dtype=np.intp)
        self.counts[:c] = np.arange(c) * width
        self.counts[self.block] = (np.arange(c)[:, None] * width + 1
                                   + np.arange(leaf.size))


def binary_spec(n_observed: int, hidden_arity: int) -> ModelSpec:
    """Spec with ``n_observed`` binary leaves (the usual experimental shape)."""
    return ModelSpec((2,) * n_observed, hidden_arity)


def dimension(spec: ModelSpec) -> int:
    """Number of free parameters: (c - 1) + sum_i c * (r_i - 1)."""
    return spec.layout.free.size


class TableSet:
    """A root row plus one ``c x r_i`` table per leaf, packed in one array.

    ``values`` is ``(P,)``, or ``(B, P)`` for a stack of B sets, in the
    spec's ``Layout``; ``root``, ``leaves`` and ``tables`` (the root as a
    one-row table, then the leaves) are views into it.  A stack's root is
    ``(B, c)``, its table ``(B, 1, c)`` and leaf ``i`` ``(B, c, r_i)``.
    Subclasses add a value rule through ``_check_values``.
    """

    def __init__(self, spec: ModelSpec, root, leaves):
        root = np.asarray(root, dtype=float)
        leaves = [np.asarray(t, dtype=float) for t in leaves]
        kind, c = type(self).__name__, spec.hidden_arity
        stack = root.shape[:-1][:1]
        if root.shape != stack + (c,):
            raise ValueError(f"{kind} root has shape {root.shape}, "
                             f"expected {stack + (c,)}")
        if len(leaves) != spec.n_observed:
            raise ValueError(f"{kind} has {len(leaves)} leaf tables, "
                             f"expected {spec.n_observed}")
        for i, (table, r) in enumerate(zip(leaves, spec.observed_arities)):
            if table.shape != stack + (c, r):
                raise ValueError(f"{kind} leaf table {i} has shape "
                                 f"{table.shape}, expected {stack + (c, r)}")
        self._wrap(spec, np.concatenate(
            [root, *(t.reshape(stack + (-1,)) for t in leaves)], axis=-1))

    @classmethod
    def from_values(cls, spec: ModelSpec, values):
        """Wrap packed values, without a copy if already C-contiguous."""
        if not (type(values) is np.ndarray and values.dtype == np.float64
                and values.flags.c_contiguous):
            values = np.ascontiguousarray(values, dtype=float)
        obj = cls.__new__(cls)
        obj._wrap(spec, values)
        return obj

    def _wrap(self, spec: ModelSpec, values: np.ndarray) -> None:
        if values.ndim not in (1, 2) or values.shape[-1] != spec.layout.size:
            raise ValueError(f"{type(self).__name__} values have shape "
                             f"{values.shape}, expected (P,) or (B, P), "
                             f"P = {spec.layout.size}")
        self.spec, self.values = spec, values
        self._check_values(values)

    @classmethod
    def from_tables(cls, spec: ModelSpec, tables):
        """Inverse of ``tables``: the first table is the one-row root."""
        root, *leaves = tables
        return cls(spec, np.squeeze(root, axis=-2), leaves)

    def _check_values(self, values: np.ndarray) -> None:
        """Validate every entry of the packed values."""

    @property
    def root(self) -> np.ndarray:
        return self.values[..., :self.spec.hidden_arity]

    @property
    def leaves(self) -> list[np.ndarray]:
        return self.tables[1:]

    @property
    def tables(self) -> list[np.ndarray]:
        bounds = np.cumsum(self.spec.layout.tables.lengths[:-1])
        arities = (self.spec.hidden_arity, *self.spec.observed_arities)
        return [t.reshape(t.shape[:-1] + (-1, r)) for t, r in
                zip(np.split(self.values, bounds, axis=-1), arities)]


class ParamSet(TableSet):
    """Full conditional probability tables; every row is a simplex.

    A set's values are never written after wrapping: every operation that
    moves a point makes a new set.  So ``log_values`` is computed once per
    point and shared by the E pass and ``log_prior``.
    """

    def _check_values(self, values):
        # Each rule is a test that NaN fails.
        if not ((values > 0.0) & (values <= 1.0)).all():
            raise ValueError("probabilities must lie in (0, 1]")
        sums = self.spec.layout.rows.sum(values)
        if not (np.abs(sums - 1.0) <= ROW_SUM_TOL).all():
            raise ValueError("simplex row does not sum to 1")

    @cached_property
    def log_values(self) -> np.ndarray:
        """``np.log(values)``, built on first use."""
        return np.log(self.values)


class PriorSet(TableSet):
    """Dirichlet hyperparameters mirroring a ParamSet's shape."""

    def _check_values(self, values):
        if not ((values > 0.0) & (values < np.inf)).all():
            raise ValueError(
                "Dirichlet hyperparameters must be positive and finite")

    @cached_property
    def less_one(self) -> np.ndarray:
        """``values - 1.0``, the exponents of the density; built on first
        use."""
        return self.values - 1.0

    @cached_property
    def row_totals(self) -> np.ndarray:
        """Each row's alpha total, in row order.  Built on first use; a
        prior never changes after it is made."""
        return self.spec.layout.rows.sum(self.values)

    @cached_property
    def log_gamma_values(self) -> np.ndarray:
        """log Gamma of every alpha, built on first use."""
        return gammaln(self.values)

    @cached_property
    def log_gamma_row_totals(self) -> np.ndarray:
        """log Gamma of each row's alpha total, built on first use."""
        return gammaln(self.row_totals)

    @cached_property
    def log_normalizers(self) -> np.ndarray:
        """Each row's log Gamma(sum alpha) - sum log Gamma(alpha), in row
        order."""
        return (self.log_gamma_row_totals
                - self.spec.layout.rows.sum(self.log_gamma_values))

    @classmethod
    def symmetric(cls, spec: ModelSpec, alpha: float) -> "PriorSet":
        """The same hyperparameter everywhere (alpha=1: uniform prior)."""
        return cls.from_values(spec, np.full(spec.layout.size, float(alpha)))


class StatSet(TableSet):
    """Sufficient statistics (integer counts or fractional expected counts)
    mirroring a ParamSet's shape."""

    def _check_values(self, values):
        if not (values >= 0.0).all():
            raise ValueError("statistics must be non-negative")

    @property
    def n_samples(self) -> float:
        return float(self.root.sum())

    @property
    def is_integral(self) -> bool:
        return np.array_equal(self.values, np.round(self.values))


def _states(values) -> np.ndarray:
    """State indices as int64; a non-integral entry raises, never truncates."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)
                                            & (np.trunc(arr) == arr)):
        raise ValueError("state indices must be integers")
    return np.asarray(arr, dtype=np.int64)


@dataclass
class Dataset:
    """N records of observed states, optionally with the hidden column."""

    spec: ModelSpec
    rows: np.ndarray
    hidden: np.ndarray | None = None

    def __post_init__(self):
        self.rows = _states(self.rows)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.spec.n_observed:
            raise ValueError("rows must be an (N, n_observed) integer array")
        if self.rows.shape[0] < 1:
            raise ValueError("a dataset needs at least one record")
        arities = np.array(self.spec.observed_arities)
        if np.any(self.rows < 0) or np.any(self.rows >= arities[None, :]):
            raise ValueError("observed state index out of range")
        if self.hidden is not None:
            self.hidden = _states(self.hidden)
            if self.hidden.shape != (self.rows.shape[0],):
                raise ValueError("hidden column length must match N")
            if np.any(self.hidden < 0) or np.any(self.hidden >= self.spec.hidden_arity):
                raise ValueError("hidden state index out of range")

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def patterns(self) -> "Patterns":
        """The distinct records, grouped on (record, hidden state) when the
        hidden column is present.  Built on first use; the rows are never
        changed after ``__post_init__``."""
        return Patterns(self)

    @property
    def is_complete(self) -> bool:
        return self.hidden is not None


class Patterns:
    """A dataset's K distinct records, in order of first occurrence.

    ``rows`` (K, n) are the records and ``weights`` (K,) how many times
    each occurs, as floats; with the hidden column present, records are
    grouped on (record, hidden state) and ``hidden`` (K,) holds each
    pattern's state, otherwise it is None.  ``design`` is the (K, R) float
    one-hot design, R = sum of the arities: leaf i's value x sets column
    r_1 + ... + r_(i-1) + x of a pattern's row.  ``design_t`` is its
    C-contiguous transpose, which the E pass multiplies by, and
    ``counts_design`` the (K, 1 + R) ``w [1, X]`` that the counts multiply
    the posteriors by.
    """

    def __init__(self, data: Dataset):
        keys = (data.rows if data.hidden is None
                else np.column_stack((data.rows, data.hidden)))
        _, first, counts = np.unique(keys, axis=0, return_index=True,
                                     return_counts=True)
        order = np.argsort(first)
        first = first[order]
        self.rows = data.rows[first]
        self.hidden = None if data.hidden is None else data.hidden[first]
        self.weights = counts[order].astype(float)
        arities = data.spec.observed_arities
        offsets = np.cumsum((0,) + arities[:-1])
        self.design = np.zeros((first.size, sum(arities)))
        np.put_along_axis(self.design, self.rows + offsets, 1.0, axis=1)
        self.design_t = np.ascontiguousarray(self.design.T)
        self.counts_design = self.weights[:, None] * np.concatenate(
            (np.ones((first.size, 1)), self.design), axis=1)


def align_hidden_arity(spec: ModelSpec, data: Dataset) -> Dataset:
    """Rewrap incomplete data under a spec differing only in hidden arity.

    Test models share the data's observed variables and vary only the
    assumed number of hidden states, so the same rows are valid under any
    hidden arity as long as no hidden column is present.
    """
    if data.spec is spec or data.spec == spec:
        return data
    if data.is_complete:
        raise ValueError("cannot reinterpret complete data under another "
                         "hidden arity")
    if data.spec.observed_arities != spec.observed_arities:
        raise ValueError("observed arities differ between spec and data")
    aligned = Dataset(spec, data.rows)
    # Incomplete patterns do not depend on the hidden arity.
    aligned.patterns = data.patterns
    return aligned


def clamp_rows(table: np.ndarray) -> np.ndarray:
    """Clamp entries into [1e-12, 1 - 1e-12], then renormalize each row."""
    t = np.clip(np.asarray(table, dtype=float), PARAM_FLOOR, 1.0 - PARAM_FLOOR)
    return t / t.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Free coordinates: drop the last component of every simplex row.

def params_to_free(params: ParamSet) -> np.ndarray:
    """Flatten to free coordinates: root[:-1], then each leaf row's [:-1].

    A stack of B sets gives ``(B, d)``, one row per set.
    """
    return np.take(params.values, params.spec.layout.free, axis=-1)


def free_to_params(spec: ModelSpec, coords: np.ndarray) -> ParamSet:
    """Rebuild a ParamSet from ``(d,)`` coordinates, restoring each dropped
    component as the remainder."""
    coords = np.asarray(coords, dtype=float)
    d = dimension(spec)
    if coords.shape != (d,):
        raise ValueError(f"expected {d} free coordinates, got {coords.shape}")
    if np.any(coords <= 0.0):
        raise ValueError("free coordinates must be positive")
    layout = spec.layout
    rest = 1.0 - layout.free_rows.sum(coords)
    if np.any(rest <= 0.0):
        raise ValueError("free coordinates of a row must sum below 1")
    values = np.empty(layout.size)
    values[layout.free] = coords
    values[layout.last] = rest
    return ParamSet.from_values(spec, values)


# ---------------------------------------------------------------------------
# Likelihood machinery.

def _component_log_scores(params: ParamSet,
                          design_t: np.ndarray) -> np.ndarray:
    """log[root_j * prod_i p(x_i | j)] per state and pattern: (c, K), or
    (B, c, K).

    One product with the (R, K) transposed pattern design:
    ``log root + log(theta) @ X.T``, theta being the (c, R) leaf tables
    side by side.  A stack gets one product per copy, of the same shape as
    the product for that copy alone.
    """
    log_values = params.log_values
    scores = log_values.take(params.spec.layout.block, axis=-1) @ design_t
    # In place: a second (c, K) array would cost more than the addition.
    scores += log_values[..., :params.spec.hidden_arity, None]
    return scores


def _scalar(value: np.ndarray):
    """A 0-d result as a Python float; a stack's (B,) array as it is."""
    return float(value) if value.ndim == 0 else value


def e_pass(params: ParamSet, data: Dataset):
    """One pass over the data: ``(log likelihood, (c, K) posteriors)``.

    The pass runs over the K distinct patterns (``Dataset.patterns``), and
    a pattern's posteriors stand for each of its records.  Incomplete data
    marginalizes the hidden root per pattern: the scores are shifted by
    the pattern's maximum over the states and exponentiated, the
    posteriors are those terms over their total over the states, and the
    pattern's log marginal is log total + max.  Both reductions run down
    the c rows of K patterns.  The log likelihood is the row sum of the
    log marginals times the multiplicities.  Complete data just reads off
    each pattern's assigned component, and its posteriors are indicators.
    A stack of parameter sets gets (B,) log likelihoods and (B, c, K)
    posteriors, each copy the same bits as a call on that copy alone.
    """
    if params.spec is not data.spec and params.spec != data.spec:
        raise ValueError("params and data describe different models")
    patterns = data.patterns
    scores = _component_log_scores(params, patterns.design_t)
    if patterns.hidden is None:
        top = scores.max(axis=-2, keepdims=True)
        scores -= top
        np.exp(scores, out=scores)
        total = scores.sum(axis=-2, keepdims=True)
        scores /= total
        log_marginal = (np.log(total) + top)[..., 0, :]
        return _scalar((log_marginal * patterns.weights).sum(axis=-1)), scores
    picked = scores[..., patterns.hidden, np.arange(patterns.weights.size)]
    indicators = np.eye(data.spec.hidden_arity)[:, patterns.hidden]
    return (_scalar((picked * patterns.weights).sum(axis=-1)),
            np.broadcast_to(indicators, scores.shape).copy())


def log_likelihood(params: ParamSet, data: Dataset) -> float:
    """Log probability of the data (complete or incomplete)."""
    return e_pass(params, data)[0]


def log_prior(params: ParamSet, prior: PriorSet) -> float:
    """Log Dirichlet density of the parameters: a sum of one term per row.

    This is the density with respect to the drop-last free coordinates of
    each row, so it can be added to the log likelihood and expanded there
    directly.  A stack of parameter sets gets one density per copy.
    """
    if params.spec is not prior.spec and params.spec != prior.spec:
        raise ValueError("params and prior describe different models")
    if (params.values <= 0.0).any():
        raise ValueError("prior density needs interior parameters")
    terms = prior.log_normalizers + params.spec.layout.rows.sum(
        prior.less_one * params.log_values)
    # cumsum adds strictly left to right, so the row terms are summed in
    # table order, row by row, with no pairwise regrouping.
    return _scalar(terms.cumsum(axis=-1)[..., -1])


def log_posterior_g(params: ParamSet, data: Dataset, prior: PriorSet) -> float:
    """Unnormalized log posterior g = log p(D|theta) + log p(theta)."""
    return log_likelihood(params, data) + log_prior(params, prior)


def posterior_over_hidden(params: ParamSet, row) -> np.ndarray:
    """p(root state | one observed record), computed in the log domain;
    shape (c,), or (B, c) for a stack of B sets."""
    record = Dataset(params.spec, np.reshape(row, (1, -1)))
    return e_pass(params, record)[1][..., 0]


def counts_from_posteriors(post: np.ndarray, data: Dataset) -> StatSet:
    """Expected counts from a (c, K) posterior matrix over the patterns.

    One product with the weighted pattern design gives the root and the
    leaf counts together: ``post @ (w [1, X])``, whose first column is each
    state's weighted posterior total and whose other columns, scattered to
    the leaf tables, sum state ``j``'s weighted posterior over the patterns
    split by each leaf's value; one ``take`` through ``Layout.counts``
    packs both.  A (B, c, K) stack of posteriors gives a stack of counts,
    one product per copy.  Indicator posteriors give
    complete-data counts.

    The product adds each entry's terms in BLAS's order, not record order.
    On one machine and BLAS thread count that order is fixed, so reruns
    give the same bits; a different BLAS build or thread count may round
    large tables differently.
    """
    both = post @ data.patterns.counts_design
    return StatSet.from_values(data.spec, both.reshape(
        both.shape[:-2] + (-1,)).take(data.spec.layout.counts, axis=-1))


def expected_counts(params: ParamSet, data: Dataset) -> StatSet:
    """Posterior-weighted sufficient statistics.

    Complete data yields the deterministic counts (posteriors collapse to
    indicators).
    """
    return counts_from_posteriors(e_pass(params, data)[1], data)


def grad_g(coords: np.ndarray, data: Dataset, prior: PriorSet) -> np.ndarray:
    """Exact gradient of g with respect to the free coordinates.

    For each simplex row the derivative routes through both the free
    component and the dropped remainder: with virtual counts
    v_k = E[N_k] + alpha_k - 1 it is v_k / theta_k - v_last / theta_last.
    The expected counts are the posterior-weighted statistics at ``coords``
    (for complete data, the actual counts), which is the standard missing-data
    identity for the score function.
    """
    params = free_to_params(data.spec, coords)
    layout = data.spec.layout
    ratio = ((expected_counts(params, data).values + prior.values - 1.0)
             / params.values)
    return ratio[layout.free] - ratio[layout.free_last]


# ---------------------------------------------------------------------------
# Model file format: one JSON document, probabilities as decimal reals.

def model_to_json_dict(params: ParamSet) -> dict:
    return {
        "spec": {
            "hidden_arity": params.spec.hidden_arity,
            "observed_arities": list(params.spec.observed_arities),
        },
        "root": params.root.tolist(),
        "leaves": [table.tolist() for table in params.leaves],
    }


def params_from_json_dict(doc: dict) -> ParamSet:
    spec = ModelSpec(
        tuple(doc["spec"]["observed_arities"]), doc["spec"]["hidden_arity"]
    )
    return ParamSet(spec, doc["root"], doc["leaves"])


def write_model(params: ParamSet, path, extra: dict | None = None) -> None:
    """Write the model JSON; ``extra`` adds sibling keys (e.g. fit metadata).

    Python's float repr round-trips exactly, so probabilities survive the
    trip losslessly.
    """
    doc = model_to_json_dict(params)
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_model(path) -> ParamSet:
    with open(path, encoding="utf-8") as fh:
        return params_from_json_dict(json.load(fh))
