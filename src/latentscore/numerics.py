"""Shared numerical primitives: Dirichlet sampling on seeded streams,
positive-definite log-determinants and log Gamma.

Everything here is deterministic given its inputs; randomness enters only
through :class:`SeededStream`, which maps a ``(master_seed, stream_index)``
pair to an independent generator so that experiment results never depend on
scheduling order.  :func:`child_standard_gamma` draws from a stream's
first B children without building a generator for each: it derives every
child's PCG64 start state in one vectorized pass that is numpy's own
``SeedSequence`` mixing and PCG64 seeding, which NEP 19 keeps
stream-stable, so each child draws the bits its own generator would.

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


def _child_index(stream_index: int, index: int) -> int:
    """The stream index of child ``index`` of stream ``stream_index``."""
    return _splitmix64(stream_index ^ _splitmix64(index + 1))


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
        """numpy's ``default_rng`` on ``SeedSequence(master_seed,
        spawn_key=(stream_index,))``, built on first use."""
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
        return SeededStream(self.master_seed,
                            _child_index(self.stream_index, index))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): entropy words are
# hashed into a pool of four uint32 words, and the pool is hashed out into
# the generator's state words.  Each hash call t xors with h_t and multiplies
# by h_(t+1) = h_t * mult, so the constants depend on the call's position
# alone, never on the data.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Hash calls made while mixing the padded run entropy: one per pool word,
# then one per ordered pair of distinct pool words.
_PREFIX_CALLS = _POOL_SIZE * _POOL_SIZE
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_chain(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) constants of a hash's first ``n`` calls."""
    chain, h = [], init
    for _ in range(n):
        nxt = (h * mult) & _MASK32
        chain.append((h, nxt))
        h = nxt
    return chain


def _hashmix(value, xor, mult):
    # On Python ints and on uint32 arrays alike: the mask keeps an int to 32
    # bits, and uint32 array arithmetic wraps by itself.
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> 16)


def _uint32_words(n: int) -> list[int]:
    """numpy's split of a non-negative int into uint32 words, low first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seeded_pool(master_seed: int, chain) -> list[int]:
    """The pool after the run entropy, which a spawn key pads with zeros
    to the pool size; shared by every stream of one master seed."""
    words = _uint32_words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool = [_hashmix(w, *chain[t]) for t, w in enumerate(words)]
    t = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *chain[t]))
                t += 1
    return pool


_STATE_XOR, _STATE_MULT = np.array(
    _hash_chain(_HASH_INIT_B, _HASH_MULT_B, 2 * _POOL_SIZE),
    dtype=np.uint32).T


def _pcg64_states(master_seed: int, indices) -> list[tuple[int, int]]:
    """Each stream's PCG64 (state, increment) before its first draw.

    This is ``SeedSequence(master_seed, spawn_key=(index,))`` followed by
    ``generate_state(4, uint64)`` and PCG64's seeding, for all stream
    indices of one key length at once: the pool after the run entropy is
    computed once, each spawn-key word is mixed into every stream's pool as
    uint32 arrays, and the pools are hashed out in one pass.  PCG64 then
    takes the state words as a 128-bit seed ``s`` and sequence ``q``:
    inc = 2q + 1 and state = (inc + s) * mult + inc.
    """
    groups = {}
    for b, index in enumerate(indices):
        words = _uint32_words(index)
        groups.setdefault(len(words), []).append((b, words))
    chain = _hash_chain(_HASH_INIT_A, _HASH_MULT_A,
                        _PREFIX_CALLS + _POOL_SIZE * max(groups, default=0))
    start = np.array(_seeded_pool(master_seed, chain), dtype=np.uint32)
    states = [None] * len(indices)
    for n_words, members in groups.items():
        pool = np.tile(start, (len(members), 1))
        key = np.array([words for _, words in members], dtype=np.uint32)
        for k in range(n_words):
            t = _PREFIX_CALLS + _POOL_SIZE * k
            xor, mult = np.array(chain[t:t + _POOL_SIZE], dtype=np.uint32).T
            pool = _mix(pool, _hashmix(key[:, k, None], xor, mult))
        words = _hashmix(np.tile(pool, 2), _STATE_XOR, _STATE_MULT)
        seeds = words.astype("<u4").view("<u8").tolist()
        for (b, _), (s_hi, s_lo, q_hi, q_lo) in zip(members, seeds):
            inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
            state = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT
                     + inc) & _MASK128
            states[b] = (state, inc)
    return states


def child_standard_gamma(rng: SeededStream, out: np.ndarray) -> None:
    """Fill ``out[b]`` with the ``standard_gamma(1.0)`` variates that
    ``rng.child(b).generator`` draws first.

    ``_pcg64_states`` seeds the children in one pass, and each row is drawn
    on one local generator set to its child's state, so no child builds a
    generator.  ``rng`` itself draws nothing.
    """
    indices = [_child_index(rng.stream_index, b) for b in range(len(out))]
    local = np.random.Generator(np.random.PCG64(0))
    bits = local.bit_generator
    for row, (state, inc) in zip(out, _pcg64_states(rng.master_seed, indices)):
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        local.standard_gamma(1.0, out=row)


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
