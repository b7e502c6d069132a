import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import latentscore as ls
from latentscore import scoring
from latentscore.numerics import NotPositiveDefiniteError, NumericalFailureError
from latentscore.scoring import (LOG_2PI, EnumerationInfeasibleError,
                                 neg_hessian)


def _complete_binary_c1(values):
    spec = ls.binary_spec(1, 1)
    rows = [[v] for v in values]
    return ls.Dataset(spec, rows, hidden=[0] * len(values))


def _sequential_log_predictive(data, prior):
    """Chain-rule evaluation: each sample scored by the posterior predictive
    given everything before it, then counted into the running statistics."""
    spec = data.spec
    rows = np.asarray(data.rows)
    hidden = np.asarray(data.hidden)
    n_root = np.zeros(spec.hidden_arity)
    n_leaf = [np.zeros((spec.hidden_arity, r)) for r in spec.observed_arities]
    total = 0.0
    for t in range(data.n_samples):
        h = hidden[t]
        total += math.log((prior.root[h] + n_root[h])
                          / (prior.root.sum() + n_root.sum()))
        for i in range(spec.n_observed):
            x = rows[t, i]
            total += math.log((prior.leaves[i][h, x] + n_leaf[i][h, x])
                              / (prior.leaves[i][h].sum() + n_leaf[i][h].sum()))
        n_root[h] += 1
        for i in range(spec.n_observed):
            n_leaf[i][h, rows[t, i]] += 1
    return total


class TestBdComplete:
    def test_one_sample_half(self):
        data = _complete_binary_c1([1])
        prior = ls.PriorSet.symmetric(data.spec, 1.0)
        score = ls.bd_complete(ls.sufficient_stats(data), prior)
        assert score == pytest.approx(math.log(0.5), abs=1e-12)

    def test_two_samples_third(self):
        data = _complete_binary_c1([1, 1])
        prior = ls.PriorSet.symmetric(data.spec, 1.0)
        score = ls.bd_complete(ls.sufficient_stats(data), prior)
        assert score == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_sequential_predictive_identity(self):
        for seed in range(20):
            spec = ls.ModelSpec((2, 3, 2), 1 + seed % 3)
            model = ls.generate_model(spec, ls.SeededStream(seed + 200, 0))
            data = ls.sample_dataset(model, 5 + seed, ls.SeededStream(seed + 200, 1))
            prior = ls.PriorSet.symmetric(spec, 1.0 + 0.5 * (seed % 4))
            direct = ls.bd_complete(ls.sufficient_stats(data), prior)
            chained = _sequential_log_predictive(data, prior)
            assert abs(direct - chained) <= 1e-9

    def test_fractional_stats_rejected(self):
        spec = ls.binary_spec(1, 1)
        stats = ls.StatSet(spec, np.array([1.5]), [np.array([[1.0, 0.5]])])
        prior = ls.PriorSet.symmetric(spec, 1.0)
        with pytest.raises(ValueError):
            ls.bd_complete(stats, prior)


class TestFractionalBd:
    def test_integer_stats_match_bd_complete(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(72, 0))
        data = ls.sample_dataset(model, 14, ls.SeededStream(72, 1))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        stats = ls.sufficient_stats(data)
        assert ls.fractional_bd(stats, prior) == ls.bd_complete(stats, prior)

    def test_all_zero_stats(self):
        spec = ls.binary_spec(2, 2)
        stats = ls.StatSet(spec, np.zeros(2), [np.zeros((2, 2)), np.zeros((2, 2))])
        prior = ls.PriorSet.symmetric(spec, 1.01)
        assert ls.fractional_bd(stats, prior) == 0.0

    def test_hand_row(self):
        spec = ls.binary_spec(1, 1)
        stats = ls.StatSet(spec, np.array([2.0]), [np.array([[1.4, 0.6]])])
        prior = ls.PriorSet.symmetric(spec, 1.0)
        expected = (math.lgamma(2) - math.lgamma(4)
                    + math.lgamma(2.4) + math.lgamma(1.6))
        assert ls.fractional_bd(stats, prior) == pytest.approx(expected, abs=1e-12)


class TestOracleExact:
    def test_one_binary_sample(self):
        spec = ls.binary_spec(1, 2)
        data = ls.Dataset(spec, [[1]])
        prior = ls.PriorSet.symmetric(spec, 1.0)
        assert ls.oracle_exact(data, spec, prior) == pytest.approx(
            math.log(0.5), abs=1e-12)

    @pytest.mark.parametrize("spec, n_samples, asymmetric", [
        (ls.binary_spec(2, 2), 4, False),
        (ls.ModelSpec((2, 3, 4), 3), 7, True),
        # 12 records over 3 binary leaves: patterns repeat, so the grouped
        # oracle merges completions the brute force lists one by one.
        (ls.binary_spec(3, 2), 12, False),
    ], ids=["binary2-c2-N4", "arities234-c3-N7", "binary3-c2-N12"])
    def test_micro_enumeration_cross_check(self, spec, n_samples, asymmetric):
        model = ls.generate_model(spec, ls.SeededStream(73, 0))
        data = ls.strip_hidden(
            ls.sample_dataset(model, n_samples, ls.SeededStream(73, 1)))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        if asymmetric:
            rng = np.random.default_rng(73)
            prior = ls.PriorSet.from_tables(
                spec, [rng.uniform(0.5, 3.0, t.shape) for t in prior.tables])
        terms = []
        states = range(spec.hidden_arity)
        for combo in itertools.product(states, repeat=n_samples):
            completed = ls.Dataset(spec, data.rows, hidden=list(combo))
            terms.append(ls.bd_complete(ls.sufficient_stats(completed), prior))
        expected = float(logsumexp(terms))
        assert ls.oracle_exact(data, spec, prior) == pytest.approx(
            expected, abs=1e-12)

    def test_tables_and_logsumexp_match_scipy_at_n40(self, make_instance,
                                                      monkeypatch):
        # The oracle builds log Gamma(alpha + k) - log Gamma(alpha) and log k!
        # as running sums of logs; check every table it builds, and its
        # log-sum-exp over the groups, against scipy.
        spec, data, flat = make_instance(seed=163, n=3, c=2, n_samples=40)
        rng = np.random.default_rng(163)
        prior = ls.PriorSet.from_tables(
            spec, [rng.uniform(0.5, 3.0, t.shape) for t in flat.tables])
        tables, totals = [], []
        real_table, real_lse = scoring._log_rising_table, scoring._logsumexp

        def table(alpha, n):
            tables.append((alpha.copy(), n, real_table(alpha, n)))
            return tables[-1][2]

        def lse(values):
            totals.append(values.copy())
            return real_lse(values)

        monkeypatch.setattr(scoring, "_log_rising_table", table)
        monkeypatch.setattr(scoring, "_logsumexp", lse)
        value = ls.oracle_exact(data, spec, prior)
        assert {n for _, n, _ in tables} == {40}
        assert any(np.array_equal(alpha, [1.0]) for alpha, _, _ in tables)
        for alpha, n, got in tables:
            want = (gammaln(alpha[:, None] + np.arange(n + 1))
                    - gammaln(alpha)[:, None])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert len(totals) == 1 and totals[0].size > 1000
        assert value == pytest.approx(float(logsumexp(totals[0])), rel=1e-12)

    def test_c1_equals_forced_completion(self, make_instance):
        spec, data, prior = make_instance(seed=74, n=3, c=1, n_samples=12)
        complete = ls.Dataset(spec, data.rows, hidden=np.zeros(12, dtype=int))
        assert ls.oracle_exact(data, spec, prior) == pytest.approx(
            ls.bd_complete(ls.sufficient_stats(complete), prior), abs=1e-12)

    def test_row_permutation_invariance(self, make_instance, rng):
        spec, data, prior = make_instance(seed=75, n=3, c=2, n_samples=10)
        base = ls.oracle_exact(data, spec, prior)
        for _ in range(5):
            perm = rng.permutation(10)
            shuffled = ls.Dataset(spec, np.asarray(data.rows)[perm])
            assert abs(ls.oracle_exact(shuffled, spec, prior) - base) <= 1e-9

    def test_widens_hidden_arity(self, make_instance):
        spec, data, prior = make_instance(seed=76, n=2, c=2, n_samples=6)
        spec3 = ls.ModelSpec(spec.observed_arities, 3)
        prior3 = ls.PriorSet.symmetric(spec3, 1.01)
        val = ls.oracle_exact(data, spec3, prior3)
        assert np.isfinite(val)

    def test_cap_enforced(self, make_instance):
        # 2^21 completions exceed the default cap, but they fall into 270
        # groups, so the cap counts groups: 269 is too few, the default is not.
        spec, data, prior = make_instance(seed=77, n=2, c=2, n_samples=21)
        with pytest.raises(EnumerationInfeasibleError):
            ls.oracle_exact(data, spec, prior, cap=269)
        assert np.isfinite(ls.oracle_exact(data, spec, prior))
        spec4, data4, prior4 = make_instance(seed=78, n=2, c=2, n_samples=4)
        with pytest.raises(EnumerationInfeasibleError):
            ls.oracle_exact(data4, spec4, prior4, cap=8)

    def test_complete_data_rejected(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(79, 0))
        complete = ls.sample_dataset(model, 5, ls.SeededStream(79, 1))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        with pytest.raises(ValueError):
            ls.oracle_exact(complete, spec, prior)


def _per_column_neg_hessian(x, data, prior, step):
    """Reference: central differences of the gradient, with step
    ``step * max(1, |x_j|)`` for column j."""
    d = x.size
    jac = np.empty((d, d))
    for j in range(d):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (ls.grad_g(xp, data, prior)
                     - ls.grad_g(xm, data, prior)) / (2.0 * h)
    return -(jac + jac.T) / 2.0


def _hessian_instance(spec, n_samples, seed=11):
    """Data, prior and a point whose rows lie halfway to uniform, except
    that each row of two or more entries starts at 1e-3.  Central
    differences then err by O((h / 1e-3)^2), well above their rounding
    error down to h = 1e-7, and every step of 1e-5 stays inside."""
    model = ls.generate_model(spec, ls.SeededStream(seed, 0))
    data = ls.strip_hidden(
        ls.sample_dataset(model, n_samples, ls.SeededStream(seed, 1)))
    prior = ls.PriorSet.symmetric(spec, 2.0)
    other = ls.generate_model(spec, ls.SeededStream(seed, 2))
    tables = []
    for t in other.tables:
        t = 0.5 * t + 0.5 / t.shape[-1]
        if t.shape[-1] > 1:
            t[..., 1:] *= (1.0 - 1e-3) / t[..., 1:].sum(axis=-1, keepdims=True)
            t[..., 0] = 1e-3
        tables.append(t)
    point = ls.ParamSet.from_tables(spec, tables)
    return data, prior, ls.params_to_free(point)


MIXED = ls.ModelSpec((2, 3, 5, 9, 12), 3)

HESSIAN_SHAPES = pytest.mark.parametrize("spec, n_samples", [
    (ls.binary_spec(8, 4), 400),
    (ls.binary_spec(8, 4), 2000),
    (ls.binary_spec(3, 2), 20000),
    (MIXED, 400),
    (ls.ModelSpec((2, 3, 5), 1), 400),
], ids=["n8-c4", "n8-c4-N2000", "n3-c2-N20000", "mixed-arities", "c1"])


def _record_by_record(params, data, prior=None):
    """Log likelihood, counts and (for incomplete data and a prior) -H with
    one row per record: no grouping into patterns."""
    spec, c = params.spec, params.spec.hidden_arity
    layout, theta = spec.layout, params.values
    arities = spec.observed_arities
    x = np.zeros((data.n_samples, sum(arities)))
    np.put_along_axis(x, data.rows + np.cumsum((0,) + arities[:-1]), 1.0,
                      axis=1)
    scores = np.log(params.root)[:, None] + np.log(theta[layout.block]) @ x.T
    if data.is_complete:
        ll = float(scores[data.hidden, np.arange(data.n_samples)].sum())
        post = np.eye(c)[:, data.hidden]
    else:
        marginal = logsumexp(scores, axis=0)
        ll, post = float(marginal.sum()), np.exp(scores - marginal)
    counts = np.empty(layout.size)
    counts[:c] = post.sum(axis=1)
    counts[layout.block] = post @ x
    if prior is None:
        return ll, counts, None
    # -H by the Louis identity, one score row per record and state.
    d = layout.free.size
    a = np.zeros((d, d))
    v_mat = np.zeros((data.n_samples, d))
    for j in range(c):
        u = np.zeros((data.n_samples, layout.size))
        u[:, j] = 1.0 / theta[j]
        u[:, layout.block[j]] = x / theta[layout.block[j]]
        s = u[:, layout.free] - u[:, layout.free_last]
        a -= (post[j][:, None] * s).T @ s
        v_mat += post[j][:, None] * s
    curv = (counts + prior.values - 1.0) / theta ** 2
    a += v_mat.T @ v_mat + np.diag(curv[layout.free])
    a += (layout.free_last[:, None] == layout.free_last) * curv[
        layout.free_last][:, None]
    return ll, counts, a


def _duplicated_and_permuted(data, seed):
    """The data as drawn, every record twice, and the records shuffled."""
    perm = np.random.default_rng(seed).permutation(data.n_samples)
    hidden = data.hidden

    def rebuilt(order):
        return ls.Dataset(data.spec, data.rows[order],
                          None if hidden is None else hidden[order])

    return [data, rebuilt(np.tile(np.arange(data.n_samples), 2)),
            rebuilt(perm)]


def _assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestPatternsMatchRecordByRecord:
    """The passes over distinct patterns give what one row per record
    gives, within 1e-12 relative (to the largest entry for -H)."""

    @HESSIAN_SHAPES
    def test_incomplete(self, spec, n_samples):
        data, prior, x = _hessian_instance(spec, n_samples)
        params = ls.free_to_params(spec, x)
        for each in _duplicated_and_permuted(data, 12):
            ll, counts, a = _record_by_record(params, each, prior)
            _assert_close(ls.log_likelihood(params, each), ll)
            _assert_close(ls.e_step(params, each).values, counts)
            _assert_close(neg_hessian(x, each, prior), a)
        k = data.patterns.weights.size
        assert k < n_samples or spec == MIXED

    @pytest.mark.parametrize("spec", [ls.ModelSpec((2, 3, 2), 3),
                                      ls.ModelSpec((2, 3, 2), 1)],
                             ids=["c3", "c1"])
    def test_complete(self, spec):
        model = ls.generate_model(spec, ls.SeededStream(13, 0))
        data = ls.sample_dataset(model, 200, ls.SeededStream(13, 1))
        for each in _duplicated_and_permuted(data, 13):
            ll, counts, _ = _record_by_record(model, each)
            _assert_close(ls.log_likelihood(model, each), ll)
            assert np.array_equal(ls.sufficient_stats(each).values, counts)


class TestNegHessian:
    @HESSIAN_SHAPES
    def test_central_differences_converge_to_closed_form(self, spec,
                                                         n_samples):
        data, prior, x = _hessian_instance(spec, n_samples)
        a = neg_hessian(x, data, prior)
        assert np.array_equal(a, a.T)
        gaps = [np.abs(_per_column_neg_hessian(x, data, prior, step) - a).max()
                / np.abs(a).max() for step in (1e-5, 1e-6, 1e-7)]
        # Central differences err by O(h^2): 100x less per decade of step.
        assert gaps[0] >= 50.0 * gaps[1] and gaps[1] >= 50.0 * gaps[2]
        x[0] = 1e-200
        with pytest.raises(NumericalFailureError):
            neg_hessian(x, data, prior)

    def test_boundary_failure_raises_without_warnings(self):
        data, prior, x = _hessian_instance(ls.binary_spec(8, 4), 400)
        x[0] = 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError):
                neg_hessian(x, data, prior)

    def test_single_coordinate_closed_form(self):
        # c=1 with one binary leaf: g = a log t + b log(1-t) under a uniform
        # prior, so the negative second derivative is a/t^2 + b/(1-t)^2
        spec = ls.binary_spec(1, 1)
        a, b = 3, 2
        data = ls.Dataset(spec, [[0]] * a + [[1]] * b)
        prior = ls.PriorSet.symmetric(spec, 1.0)
        t = a / (a + b)
        A = neg_hessian(np.array([t]), data, prior)
        expected = a / t ** 2 + b / (1 - t) ** 2
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(expected, rel=1e-6)

    def _interior_instance(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(2, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 12, ls.SeededStream(2, 1)))
        prior = ls.PriorSet.symmetric(spec, 2.0)
        em = ls.fit(data, spec, prior,
                    config=ls.EmConfig(rel_tol=1e-12, max_iters_after_init=20000),
                    rng=ls.SeededStream(2, 2))
        return spec, data, prior, ls.params_to_free(em.params)

    def test_symmetry_before_symmetrization(self):
        spec, data, prior, x = self._interior_instance()
        dim = x.size
        J = np.empty((dim, dim))
        for j in range(dim):
            h = 1e-5 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            J[:, j] = (ls.grad_g(xp, data, prior)
                       - ls.grad_g(xm, data, prior)) / (2 * h)
        asym = np.abs(J - J.T).max() / max(1.0, np.abs(J).max())
        assert asym < 1e-5
        A = neg_hessian(x, data, prior)
        assert np.array_equal(A, A.T)
        assert np.allclose(A, -(J + J.T) / 2, atol=1e-12)

    def test_against_double_differences_of_objective(self):
        spec, data, prior, x = self._interior_instance()
        dim = x.size

        def g_at(v):
            return ls.log_posterior_g(ls.free_to_params(spec, v), data, prior)

        H = np.empty((dim, dim))
        for i in range(dim):
            hi = 1e-4 * max(1.0, abs(x[i]))
            for j in range(dim):
                hj = 1e-4 * max(1.0, abs(x[j]))
                if i == j:
                    xp, xm = x.copy(), x.copy()
                    xp[i] += hi
                    xm[i] -= hi
                    H[i, i] = (g_at(xp) - 2 * g_at(x) + g_at(xm)) / hi ** 2
                else:
                    corners = []
                    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                        v = x.copy()
                        v[i] += si * hi
                        v[j] += sj * hj
                        corners.append(g_at(v))
                    H[i, j] = (corners[0] - corners[1] - corners[2]
                               + corners[3]) / (4 * hi * hj)
        B = -(H + H.T) / 2
        A = neg_hessian(x, data, prior)
        assert np.linalg.norm(A - B) / np.linalg.norm(B) <= 1e-3

    def test_positive_definite_at_converged_modes(self):
        for seed in range(20):
            spec = ls.binary_spec(3, 2)
            model = ls.generate_model(spec, ls.SeededStream(seed, 0))
            data = ls.strip_hidden(
                ls.sample_dataset(model, 10, ls.SeededStream(seed, 1)))
            prior = ls.PriorSet.symmetric(spec, 1.01)
            em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                        rng=ls.SeededStream(seed, 2))
            assert em.converged
            A = neg_hessian(ls.params_to_free(em.params), data, prior)
            assert np.isfinite(ls.log_det_pd(A))


class TestLaplace:
    def test_conjugate_check(self):
        spec = ls.binary_spec(1, 1)
        rows = [[1]] * 60 + [[0]] * 40
        data = ls.Dataset(spec, rows)
        prior = ls.PriorSet.symmetric(spec, 2.0)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(80, 0))
        lap = ls.laplace_score(em, data, prior)
        complete = ls.Dataset(spec, rows, hidden=[0] * 100)
        bd = ls.bd_complete(ls.sufficient_stats(complete), prior)
        assert abs(lap - bd) <= 0.05

    def test_algebraic_gap_to_bic(self, make_instance):
        spec, data, prior = make_instance(seed=81, n=3, c=2, n_samples=12)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(81, 3))
        d = ls.dimension(spec)
        n = data.n_samples
        ll = ls.log_likelihood(em.params, data)
        lap = ls.laplace_score(em, data, prior)
        bic = ls.bic_score(ll, d, n)
        A = neg_hessian(ls.params_to_free(em.params), data, prior)
        gap = (d / 2 * LOG_2PI + (em.final_g - ll)
               - 0.5 * ls.log_det_pd(A) + d / 2 * math.log(n))
        assert lap - bic == pytest.approx(gap, abs=1e-9)

    def test_non_pd_curvature_rejected(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(82, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 20, ls.SeededStream(82, 1)))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        row = np.array([[0.3, 0.7], [0.3, 0.7]])
        ridge = ls.ParamSet(spec, np.array([0.5, 0.5]), [row.copy(), row.copy()])
        em = ls.EmResult(params=ridge,
                         final_g=ls.log_posterior_g(ridge, data, prior),
                         converged=True, iterations_used=0, g_trace=[])
        with pytest.raises(NotPositiveDefiniteError):
            ls.laplace_score(em, data, prior)


class TestPenalizedScores:
    def test_bic_hand_case(self):
        assert ls.bic_score(-100.0, 5, 100) == pytest.approx(-111.512925, abs=1e-6)
        assert ls.bic_score(-100.0, 0, 100) == -100.0
        assert ls.bic_score(-100.0, 5, 1) == -100.0

    def test_draper_hand_case(self):
        assert ls.draper_score(-100.0, 5, 100) == pytest.approx(-106.918232, abs=1e-6)
        assert ls.draper_score(-7.5, 0, 13) == ls.bic_score(-7.5, 0, 13)

    def test_gap_independent_of_loglik_and_n(self, rng):
        for _ in range(25):
            ll = float(rng.normal(-50, 30))
            d = int(rng.integers(0, 40))
            n = int(rng.integers(1, 5000))
            gap = ls.draper_score(ll, d, n) - ls.bic_score(ll, d, n)
            assert gap == pytest.approx(d / 2 * LOG_2PI, abs=1e-12)


class TestMledAndCs:
    def test_c1_collapse_is_exact(self, make_instance):
        spec, data, prior = make_instance(seed=83, n=2, c=1, n_samples=30)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(83, 3))
        complete = ls.Dataset(spec, data.rows, hidden=np.zeros(30, dtype=int))
        bd = ls.bd_complete(ls.sufficient_stats(complete), prior)
        assert ls.mled_score(em, data, prior) == bd
        assert ls.cs_score(em, data, prior) == bd

    def test_c1_laplace_close_and_penalties_deterministic(self):
        spec = ls.binary_spec(2, 1)
        model = ls.generate_model(spec, ls.SeededStream(70, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 150, ls.SeededStream(70, 1)))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(70, 2))
        complete = ls.Dataset(spec, data.rows, hidden=np.zeros(150, dtype=int))
        bd = ls.bd_complete(ls.sufficient_stats(complete), prior)
        assert abs(ls.laplace_score(em, data, prior) - bd) <= 0.1
        report = ls.score_report(em, data, prior)
        d = ls.dimension(spec)
        assert report.scores["bic"] == pytest.approx(
            report.loglik_at_mode - d / 2 * math.log(150), abs=1e-12)
        assert report.scores["draper"] == pytest.approx(
            report.scores["bic"] + d / 2 * LOG_2PI, abs=1e-12)

    def test_cs_minus_mled_identity(self, make_instance):
        for seed in (84, 85, 86):
            spec, data, prior = make_instance(seed=seed, n=3, c=3, n_samples=25)
            em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                        rng=ls.SeededStream(seed, 3))
            cs = ls.cs_score(em, data, prior)
            mled = ls.mled_score(em, data, prior)
            stats = ls.e_step(em.params, data)
            expected_ll = float((stats.root * np.log(em.params.root)).sum())
            for t, th in zip(stats.leaves, em.params.leaves):
                expected_ll += float((t * np.log(th)).sum())
            ll = ls.log_likelihood(em.params, data)
            assert (cs - mled) == pytest.approx(ll - expected_ll, abs=1e-9)

    def test_mled_sanity_band_near_oracle(self, make_instance):
        spec, data, prior = make_instance(seed=0, n=3, c=2, n_samples=10)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(0, 2))
        oracle = ls.oracle_exact(data, spec, prior)
        assert abs(ls.mled_score(em, data, prior) - oracle) <= 3.0

    def test_hidden_label_permutation_invariance(self, make_instance):
        # an interior mode keeps the differenced-curvature noise well under
        # the 1e-9 budget; mled and cs are invariant exactly
        spec, data, prior = make_instance(seed=87, n=3, c=3, n_samples=20,
                                          alpha=2.0)
        em = ls.fit(data, spec, prior,
                    config=ls.EmConfig(rel_tol=1e-10, max_iters_after_init=5000),
                    rng=ls.SeededStream(87, 3))
        perm = [2, 0, 1]
        swapped = ls.ParamSet(spec, em.params.root[perm],
                              [t[perm] for t in em.params.leaves])
        em2 = ls.EmResult(params=swapped, final_g=em.final_g,
                          converged=em.converged,
                          iterations_used=em.iterations_used, g_trace=[])
        for fn in (ls.laplace_score, ls.mled_score, ls.cs_score):
            assert fn(em2, data, prior) == pytest.approx(
                fn(em, data, prior), abs=1e-9)


class TestScoreReport:
    def _fitted(self, make_instance, seed=88, c=2):
        spec, data, prior = make_instance(seed=seed, n=3, c=c, n_samples=10)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(seed, 3))
        return spec, data, prior, em

    def test_full_report(self, make_instance):
        for c in (2, 1):
            spec, data, prior, em = self._fitted(make_instance, c=c)
            report = ls.score_report(em, data, prior,
                                     measures=ls.MEASURES + ("oracle",))
            assert not report.failures
            assert set(report.scores) == set(ls.MEASURES) | {"oracle"}
            assert report.dim == ls.dimension(spec)
            assert report.n_samples == 10
            assert report.scores["draper"] - report.scores["bic"] == \
                pytest.approx(report.dim / 2 * LOG_2PI, abs=1e-12)
            # The report shares one E pass; each entry is bit-identical to
            # its stand-alone function.
            ll = ls.log_likelihood(em.params, data)
            assert report.loglik_at_mode == ll
            assert report.g_at_mode == ls.log_posterior_g(em.params, data,
                                                          prior)
            assert report.scores["laplace"] == ls.laplace_score(em, data,
                                                                prior)
            assert report.scores["mled"] == ls.mled_score(em, data, prior)
            assert report.scores["cs"] == ls.cs_score(em, data, prior)
            assert report.scores["bic"] == ls.bic_score(ll, report.dim, 10)
            assert report.scores["draper"] == ls.draper_score(ll, report.dim,
                                                              10)

    def test_one_e_pass(self, make_instance, monkeypatch):
        import latentscore.model_core as model_core
        spec, data, prior, em = self._fitted(make_instance, seed=93)
        passes = []
        score_rows = model_core._component_log_scores

        def counted(params, design_t):
            passes.append(design_t.shape[1])
            return score_rows(params, design_t)

        monkeypatch.setattr(model_core, "_component_log_scores", counted)
        ls.score_report(em, data, prior, measures=("bic", "draper", "mled", "cs"))
        assert passes == [data.patterns.weights.size]

    def test_complete_data_rejected(self, make_instance):
        spec, data, prior, em = self._fitted(make_instance, seed=92)
        complete = ls.Dataset(spec, data.rows,
                              hidden=np.zeros(data.n_samples, dtype=int))
        for measures in (("bic", "laplace"), ls.MEASURES):
            with pytest.raises(ValueError):
                ls.score_report(em, complete, prior, measures=measures)

    def test_csv_round_trip_preserves_precision(self, make_instance):
        spec, data, prior, em = self._fitted(make_instance, seed=89)
        report = ls.score_report(em, data, prior)
        header = report.csv_header().split(",")
        cells = report.csv_row().split(",")
        assert header == list(ls.MEASURES)
        for name, cell in zip(header, cells):
            assert float(cell) == report.scores[name]
            digits = len(cell.replace("-", "").replace(".", "").split("e")[0])
            assert digits >= 12

    def test_unknown_measure_rejected(self, make_instance):
        spec, data, prior, em = self._fitted(make_instance, seed=90)
        with pytest.raises(ValueError):
            ls.score_report(em, data, prior, measures=("laplace", "aic"))

    def test_infeasible_oracle_recorded_as_failure(self):
        spec = ls.binary_spec(8, 2)
        model = ls.generate_model(spec, ls.SeededStream(7, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 30, ls.SeededStream(7, 1)))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(7, 2))
        # These 30 records fall into about 2.65e7 groups of hidden
        # completions, well past ORACLE_CAP.
        report = ls.score_report(em, data, prior, measures=("bic", "oracle"))
        assert "oracle" in report.failures
        assert "oracle" not in report.scores
        assert "bic" in report.scores
        assert report.csv_row().split(",")[1] == ""

    def test_ridge_curvature_recorded_as_failure(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(82, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 20, ls.SeededStream(82, 1)))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        row = np.array([[0.3, 0.7], [0.3, 0.7]])
        ridge = ls.ParamSet(spec, np.array([0.5, 0.5]), [row.copy(), row.copy()])
        em = ls.EmResult(params=ridge,
                         final_g=ls.log_posterior_g(ridge, data, prior),
                         converged=True, iterations_used=0, g_trace=[])
        report = ls.score_report(em, data, prior)
        assert "laplace" in report.failures
        for name in ("bic", "draper", "mled", "cs"):
            assert name in report.scores

    def test_laplace_goes_through_laplace_score(self, make_instance,
                                                monkeypatch):
        import latentscore.scoring as scoring
        spec, data, prior, em = self._fitted(make_instance, seed=94)
        expected = ls.laplace_score(em, data, prior)
        row = np.array([[0.3, 0.7]] * 2)
        ridge = ls.ParamSet(spec, np.array([0.5, 0.5]),
                            [row.copy() for _ in spec.observed_arities])
        calls = []
        laplace = scoring.laplace_score

        def counted(*args, **kwargs):
            calls.append(args[0])
            return laplace(*args, **kwargs)

        monkeypatch.setattr(scoring, "laplace_score", counted)
        report = ls.score_report(em, data, prior)
        assert len(calls) == 1
        assert report.scores["laplace"] == expected
        calls.clear()
        ls.score_report(em, data, prior, measures=("bic", "draper", "mled",
                                                   "cs", "oracle"))
        assert calls == []
        report = ls.score_report(ridge, data, prior, measures=("laplace",))
        assert len(calls) == 1
        assert report.failures == {
            "laplace": "NotPositiveDefiniteError: matrix is not positive "
                       "definite"}
