import math

import numpy as np
import pytest

from latentscore import (
    NotPositiveDefiniteError,
    SeededStream,
    log_det_pd,
    sample_dirichlet,
)


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
