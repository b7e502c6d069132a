"""Shared numerical primitives: Dirichlet sampling on seeded streams and
positive-definite log-determinants.

Everything here is deterministic given its inputs; randomness enters only
through :class:`SeededStream`, which maps a ``(master_seed, stream_index)``
pair to an independent generator so that experiment results never depend on
scheduling order.
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
