"""Shared numerical primitives: Dirichlet sampling on seeded streams,
positive-definite log-determinants and log Gamma.

Everything here is deterministic given its inputs; randomness enters only
through :class:`SeededStream`, which maps a ``(master_seed, stream_index)``
pair to an independent generator so that experiment results never depend on
scheduling order.

The library's only runtime dependency is numpy.  :func:`gammaln` computes
log Gamma by the recurrence and Stirling's series, for the Dirichlet
normalizers and the closed-form scores, so no scipy import sits on the
start-up path of any entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """A matrix expected to be positive definite failed factorization."""


class NumericalFailureError(RuntimeError):
    """A computation produced non-finite values or left its valid domain."""


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Finalizer of the splitmix64 generator; good 64-bit avalanche, pure ints.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass
class SeededStream:
    """A reproducible random stream addressed by (master_seed, stream_index).

    Two streams built from the same pair yield identical draw sequences;
    streams with distinct indices are independent for our purposes.  Each
    stream is single-owner: concurrent units must each hold their own.
    """

    master_seed: int
    stream_index: int = 0
    _generator: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if not 0 <= self.master_seed < (1 << 64):
            raise ValueError("master_seed must fit in 64 bits")
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(
                entropy=self.master_seed, spawn_key=(self.stream_index,)
            )
            self._generator = np.random.default_rng(seq)
        return self._generator

    def child(self, index: int) -> "SeededStream":
        """Derive a sub-stream by hashing (stream_index, index)."""
        if index < 0:
            raise ValueError("child index must be non-negative")
        mixed = _splitmix64(self.stream_index ^ _splitmix64(index + 1))
        return SeededStream(self.master_seed, mixed)


def sample_dirichlet(alphas, rng: SeededStream) -> np.ndarray:
    """Independent Dirichlet draws via normalized gamma variates.

    The last axis of ``alphas`` is the simplex; every leading index is one
    draw.  Gamma variates are taken in C order, so a table drawn in one call
    equals its rows drawn one call each from the same stream.  Components are
    clamped below at 1e-300 before normalization so downstream
    log-likelihoods stay finite.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim < 1 or a.shape[-1] < 2:
        raise ValueError("need at least two concentration parameters")
    if np.any(a <= 0):
        raise ValueError("Dirichlet concentrations must be positive")
    draws = gamma_variates(a, rng)
    return draws / draws.sum(axis=-1, keepdims=True)


# Gamma variates are clamped below at this, so that no Dirichlet component
# is exactly zero.
GAMMA_FLOOR = 1e-300


def gamma_variates(alphas: np.ndarray, rng: SeededStream) -> np.ndarray:
    """Gamma(alpha, 1) variates in C order, clamped below at GAMMA_FLOOR."""
    return np.maximum(rng.generator.standard_gamma(alphas), GAMMA_FLOOR)


# log Gamma below this argument is taken from log Gamma(x + _LGAMMA_SHIFT)
# by the recurrence Gamma(x + 1) = x Gamma(x), so Stirling's series only ever
# sees z >= 16, where the first term it leaves out is below 1.1e-16.
_LGAMMA_SHIFT = 16.0
# The shift's 16 factors, paired: (x + t)(x + 15 - t) = x (x + 15) + t (15 - t)
# for t < 8.  Laid out as (8, 1), so the product runs down axis 0 of an
# (8, m) array, which numpy reduces one whole row of m at a time.
_LGAMMA_PAIRS = np.array([t * (_LGAMMA_SHIFT - 1.0 - t)
                          for t in range(int(_LGAMMA_SHIFT) // 2)]).reshape(-1, 1)
# B_2k / (2k (2k - 1)) for k = 1..5, the coefficients of 1/z^(2k-1).
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0)
_HALF_LOG_2PI_LESS_HALF = 0.5 * np.log(2.0 * np.pi) - 0.5


def gammaln(x) -> np.ndarray:
    """log Gamma(x) for x > 0, elementwise, in numpy alone.

    Arguments below 16 are shifted up by the recurrence,
    log Gamma(x) = log Gamma(x + 16) - log prod_{t<16} (x + t), and log
    Gamma(z) for z >= 16 is Stirling's series to five terms,
    (z - 1/2)(log z - 1) - 1/2 + log(2 pi)/2 + sum_k B_2k / (2k (2k-1) z^(2k-1)).
    Within 1e-13 max(1, |log Gamma(x)|) from 1e-300 to 1e300.  Each entry
    depends on its own argument alone, so an array gives the bits of its
    entries taken one at a time.  Returns inf at inf and where the result
    overflows (x above about 2.5e305, where numpy warns of the overflow).
    A 0-d argument gives a numpy scalar.  The work is a fixed two dozen
    numpy calls, so a short array costs about as much as one entry.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    small = x < _LGAMMA_SHIFT
    z = x + _LGAMMA_SHIFT * small
    r = 1.0 / z
    r2 = r * r
    series = _STIRLING[-1] * r2
    for coef in _STIRLING[-2:0:-1]:
        series += coef
        series *= r2
    series += _STIRLING[0]
    series *= r
    series += _HALF_LOG_2PI_LESS_HALF
    out = np.log(z)
    out -= 1.0
    z -= 0.5
    out *= z
    out += series
    low = x[small]
    if low.size:
        out[small] -= np.log(np.multiply.reduce(
            low * (low + (_LGAMMA_SHIFT - 1.0)) + _LGAMMA_PAIRS, axis=0))
    return out.reshape(shape)[()]


def log_det_pd(matrix: np.ndarray) -> float:
    """log|M| for a symmetric positive-definite M, via Cholesky pivots.

    Raises :class:`NotPositiveDefiniteError` when factorization fails, so
    callers can report a boundary or degenerate expansion point.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric as stored")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite"
        ) from exc
    return float(2.0 * np.sum(np.log(np.diag(chol))))
