import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln as scipy_gammaln

from latentscore import (
    NotPositiveDefiniteError,
    SeededStream,
    log_det_pd,
    sample_dirichlet,
)
from latentscore.numerics import (_pcg64_states, child_standard_gamma,
                                  gammaln)


def _gammaln_arguments() -> np.ndarray:
    """Arguments from 1e-300 to 1e300, dense where log Gamma is small and
    where the library takes it: Dirichlet totals 1.01 + counts, integers
    (log factorials), and both sides of the shift at 16."""
    rng = np.random.default_rng(107)
    return np.concatenate([
        10.0 ** rng.uniform(-300, 300, 20000),
        10.0 ** rng.uniform(-300, 0.5, 5000),
        rng.uniform(0.0, 3.0, 20000),
        1.0 + rng.uniform(-1e-3, 1e-3, 2000),
        2.0 + rng.uniform(-1e-3, 1e-3, 2000),
        1.01 + np.arange(2000.0),
        1.01 + rng.uniform(0.0, 400.0, 2000),
        np.arange(1.0, 2001.0),
        16.0 + rng.uniform(-1e-6, 1e-6, 200),
        [1e-300, 3.0, 15.999999999999998, 16.0, 1e300],
    ])


class TestSampleDirichlet:
    def test_simplex_contract(self):
        v = sample_dirichlet((1.0, 1.0), SeededStream(3, 0))
        assert v.shape == (2,)
        assert np.all(v > 0)
        assert abs(v.sum() - 1.0) <= 1e-12

    def test_determinism(self):
        a = sample_dirichlet((2.0, 3.0, 4.0), SeededStream(9, 5))
        b = sample_dirichlet((2.0, 3.0, 4.0), SeededStream(9, 5))
        assert np.array_equal(a, b)

    def test_concentration(self):
        rng = SeededStream(17, 0)
        draws = np.array([sample_dirichlet((1e6, 1e6), rng) for _ in range(1000)])
        assert np.allclose(draws.mean(axis=0), [0.5, 0.5], atol=0.01)

    def test_permutation_equivariance(self):
        rng1 = SeededStream(23, 0)
        rng2 = SeededStream(23, 1)
        mean_a = np.array([sample_dirichlet((2.0, 8.0), rng1) for _ in range(1500)]).mean(axis=0)
        mean_b = np.array([sample_dirichlet((8.0, 2.0), rng2) for _ in range(1500)]).mean(axis=0)
        assert mean_a[0] == pytest.approx(mean_b[1], abs=0.02)
        assert mean_a[1] == pytest.approx(mean_b[0], abs=0.02)

    def test_rejects_bad_alphas(self):
        with pytest.raises(ValueError):
            sample_dirichlet((1.0, 0.0), SeededStream(0, 0))
        with pytest.raises(ValueError):
            sample_dirichlet((1.0,), SeededStream(0, 0))


class TestLogDetPd:
    def test_identity(self):
        assert log_det_pd(np.eye(5)) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_identity(self):
        assert log_det_pd(2 * np.eye(2)) == pytest.approx(2 * math.log(2), abs=1e-12)
        for k in (0.5, 1.0, 10.0):
            for d in (1, 5, 50):
                assert log_det_pd(k * np.eye(d)) == pytest.approx(d * math.log(k), abs=1e-10)

    def test_cholesky_round_trip(self, rng):
        for _ in range(10):
            d = 6
            lower = np.tril(rng.normal(size=(d, d)))
            np.fill_diagonal(lower, np.abs(rng.normal(size=d)) + 0.5)
            m = lower @ lower.T
            m = (m + m.T) / 2
            expected = 2 * np.log(np.diag(lower)).sum()
            assert log_det_pd(m) == pytest.approx(expected, rel=1e-9)

    def test_not_positive_definite(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPositiveDefiniteError):
            log_det_pd(m)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.1], [0.2, 1.0]])
        with pytest.raises(ValueError):
            log_det_pd(m)


class TestSeededStream:
    def test_same_fields_same_sequence(self):
        a = SeededStream(5, 2).generator.random(8)
        b = SeededStream(5, 2).generator.random(8)
        assert np.array_equal(a, b)

    def test_distinct_index_distinct_sequence(self):
        a = SeededStream(5, 2).generator.random(8)
        b = SeededStream(5, 3).generator.random(8)
        assert not np.array_equal(a, b)

    def test_child_deterministic(self):
        s = SeededStream(41, 7)
        assert s.child(3) == SeededStream(41, 7).child(3)
        assert s.child(3) != s.child(4)

    def test_child_index_validation(self):
        with pytest.raises(ValueError):
            SeededStream(0, 0).child(-1)


# Stream indices on both sides of each uint32 word boundary of a spawn key,
# one of them three words long, and master seeds of one and two words.
SEED_PASS_INDICES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 12345)
SEED_PASS_MASTERS = (0, 2**32, 2**64 - 1)


class TestSeedPass:
    """``child_standard_gamma`` seeds a stream's children without their
    generators; every draw must be the child generator's own bits."""

    def test_states_are_numpys_seeding(self):
        for master in SEED_PASS_MASTERS:
            states = _pcg64_states(master, SEED_PASS_INDICES)
            for index, state in zip(SEED_PASS_INDICES, states):
                want = SeededStream(master, index).generator
                want = want.bit_generator.state["state"]
                assert state == (want["state"], want["inc"])

    @pytest.mark.parametrize("master", SEED_PASS_MASTERS)
    def test_draws_match_each_streams_generator(self, master):
        for parent in SEED_PASS_INDICES:
            rng = SeededStream(master, parent)
            out = np.empty((5, 9))
            child_standard_gamma(rng, out)
            for b, row in enumerate(out):
                assert np.array_equal(
                    row, rng.child(b).generator.standard_gamma(1.0, 9))


class TestGammaln:
    def test_matches_scipy(self):
        x = _gammaln_arguments()
        want = scipy_gammaln(x)
        err = np.abs(gammaln(x) - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-13

    def test_each_entry_depends_on_its_argument_alone(self):
        # The log prior's cached normalizers are checked bit for bit against
        # a row-by-row formula, which holds only if an entry's bits do not
        # depend on the array around it.
        x = _gammaln_arguments()[::50]
        alone = np.array([gammaln(v) for v in x])
        assert np.array_equal(gammaln(x), alone)
        assert np.array_equal(gammaln(x[::-1]), alone[::-1])

    def test_shapes(self):
        one = gammaln(2.5)
        assert np.ndim(one) == 0 and isinstance(one, np.floating)
        assert one == gammaln(np.array([2.5]))[0]
        assert gammaln(np.float64(7.0)) == pytest.approx(math.log(720.0),
                                                         rel=1e-15)
        grid = np.array([[0.5, 1.0, 17.5], [1e-300, 2.0, 1e300]])
        out = gammaln(grid)
        assert out.shape == (2, 3)
        assert np.array_equal(out.ravel(), gammaln(grid.ravel()))
        assert gammaln(np.zeros((0, 3))).shape == (0, 3)

    def test_inf_at_overflow_and_at_inf(self):
        with np.errstate(over="ignore"):
            assert gammaln(1e308) == np.inf
        assert gammaln(np.inf) == np.inf
        with np.errstate(over="ignore"):
            out = gammaln(np.array([1e308, np.inf, 3.0]))
        assert np.array_equal(out[:2], [np.inf, np.inf])
        assert out[2] == pytest.approx(math.log(2.0), rel=1e-13)

    def test_no_warning_for_finite_arguments_up_to_1e300(self):
        x = _gammaln_arguments()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(np.isfinite(gammaln(x)))
