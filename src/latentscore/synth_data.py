"""Synthetic generative models, ancestral sampling, sufficient statistics,
and the dataset CSV round trip.

Datasets are CSV with a header line ``x1,...,xn[,hidden]``; every field is a
0-based decimal state index.  The hidden column, when present, is last.
"""

from __future__ import annotations

import numpy as np

from .model_core import (Dataset, ModelSpec, ParamSet, StatSet,
                         counts_from_posteriors)
from .numerics import GAMMA_FLOOR, SeededStream, child_standard_gamma


class DatasetParseError(ValueError):
    """A dataset file failed to parse; the message names the offending line."""


def generate_model(spec: ModelSpec, rng: SeededStream,
                   copies: int | None = None) -> ParamSet:
    """Draw every simplex row independently from the uniform Dirichlet, with
    one Gamma(1, 1) variate per entry from ``rng.generator``; with c=1 the
    root row is 1 and draws none.

    ``copies=B`` gives a ``(B, P)`` stack whose copy b is the set
    ``generate_model(spec, rng.child(b))`` draws, and ``rng`` itself draws
    nothing.  ``child_standard_gamma`` makes the B fills without building
    the children's generators, then the whole stack is clamped at
    ``GAMMA_FLOOR``, normalized and checked once.  Either way the variates
    are those of ``gamma_variates`` on a shape array of ones.
    """
    if copies is not None and copies < 1:
        raise ValueError("copies must be at least 1")
    draws = np.ones((copies or 1, spec.layout.size))
    fill = draws[:, int(spec.hidden_arity == 1):]
    if copies is None:
        rng.generator.standard_gamma(1.0, out=fill[0])
    else:
        child_standard_gamma(rng, fill)
    np.maximum(draws, GAMMA_FLOOR, out=draws)
    values = spec.layout.rows.normalize(draws)
    return ParamSet.from_values(spec, values[0] if copies is None else values)


def sample_dataset(model: ParamSet, n_samples: int, rng: SeededStream) -> Dataset:
    """Ancestral sampling: draw the root state, then each leaf given it.

    The returned dataset is complete (hidden column present).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    gen = rng.generator
    spec = model.spec
    hidden = _sample_categorical(gen, np.tile(model.root, (n_samples, 1)))
    rows = np.empty((n_samples, spec.n_observed), dtype=np.int64)
    for i, table in enumerate(model.leaves):
        rows[:, i] = _sample_categorical(gen, table[hidden])
    return Dataset(spec, rows, hidden)


def _sample_categorical(gen: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    # One draw per row of `probs` by inverting the row CDF.
    cdf = np.cumsum(probs, axis=1)
    u = gen.random(probs.shape[0])
    return np.minimum((u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1)


def strip_hidden(data: Dataset) -> Dataset:
    """Drop the hidden column; stripping twice is a contract error."""
    if data.hidden is None:
        raise ValueError("dataset has no hidden column to strip")
    return Dataset(data.spec, data.rows.copy(), None)


def sufficient_stats(data: Dataset) -> StatSet:
    """Integer counts for complete data (incomplete data needs an E step).

    These are ``counts_from_posteriors`` at the indicator posteriors of
    each (record, hidden state) pattern, so complete and expected counts
    share one kernel.
    """
    if data.hidden is None:
        raise ValueError("sufficient statistics need complete data")
    indicators = np.eye(data.spec.hidden_arity)[:, data.patterns.hidden]
    return counts_from_posteriors(indicators, data)


def write_dataset(data: Dataset, path) -> None:
    names = [f"x{i + 1}" for i in range(data.spec.n_observed)]
    if data.hidden is not None:
        names.append("hidden")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for t in range(data.n_samples):
            fields = [str(int(v)) for v in data.rows[t]]
            if data.hidden is not None:
                fields.append(str(int(data.hidden[t])))
            fh.write(",".join(fields) + "\n")


def read_dataset(path) -> Dataset:
    """Parse a dataset CSV.

    Arities are inferred: each leaf's is one past the largest index seen
    (at least 2), and the hidden arity is one past the largest hidden index
    (1 when the column is absent).
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetParseError(f"{path}: empty file")
    header = lines[0].split(",")
    has_hidden = header[-1] == "hidden"
    n_vars = len(header) - (1 if has_hidden else 0)
    expected = [f"x{i + 1}" for i in range(n_vars)]
    if header[:n_vars] != expected or n_vars < 1:
        raise DatasetParseError(f"{path}: line 1: malformed header {header!r}")
    if len(lines) == 1:
        raise DatasetParseError(f"{path}: no data rows (N >= 1 required)")

    table = np.empty((len(lines) - 1, len(header)), dtype=np.int64)
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise DatasetParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(fields)}")
        try:
            table[lineno - 2] = [int(f) for f in fields]
        except ValueError as exc:
            raise DatasetParseError(
                f"{path}: line {lineno}: non-integer field") from exc

    bad = np.nonzero(table < 0)[0]
    if bad.size:
        raise DatasetParseError(
            f"{path}: line {bad[0] + 2}: negative state index")
    rows = table[:, :n_vars]
    hidden = table[:, n_vars] if has_hidden else None
    arities = tuple(max(2, int(rows[:, i].max()) + 1) for i in range(n_vars))
    c = int(hidden.max()) + 1 if has_hidden else 1
    return Dataset(ModelSpec(arities, c), rows, hidden)
