import math

import numpy as np
import pytest

import latentscore as ls
from latentscore.numerics import gammaln
from latentscore.model_core import (align_hidden_arity, clamp_rows,
                                    counts_from_posteriors, e_pass,
                                    expected_counts)


def test_dimension_formula():
    assert ls.dimension(ls.binary_spec(1, 4)) == 7
    assert ls.dimension(ls.binary_spec(64, 32)) == 2079
    assert ls.dimension(ls.binary_spec(32, 4)) == 131
    assert ls.dimension(ls.ModelSpec((3, 4), 2)) == 1 + 2 * 2 + 2 * 3


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ls.ModelSpec((), 2)
    with pytest.raises(ValueError):
        ls.ModelSpec((1,), 2)
    with pytest.raises(ValueError):
        ls.ModelSpec((2,), 0)


def test_paramset_validation():
    spec = ls.binary_spec(1, 2)
    with pytest.raises(ValueError):
        ls.ParamSet(spec, np.array([0.7, 0.7]), [np.full((2, 2), 0.5)])
    with pytest.raises(ValueError):
        ls.ParamSet(spec, np.array([1.2, -0.2]), [np.full((2, 2), 0.5)])
    # The bad row is the second row of the leaf table, not its first.
    root = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        ls.ParamSet(spec, root, [np.array([[0.5, 0.5], [0.7, 0.7]])])
    with pytest.raises(ValueError):
        ls.ParamSet(spec, root, [np.array([[0.5, 0.5], [1.2, -0.2]])])


def _single_leaf_params(c, root, rows):
    spec = ls.ModelSpec((len(rows[0]),), c)
    return ls.ParamSet(spec, np.array(root), [np.array(rows)])


class TestLogLikelihood:
    def test_single_component(self):
        params = _single_leaf_params(1, [1.0], [[0.3, 0.7]])
        data = ls.Dataset(params.spec, [[1]])
        assert ls.log_likelihood(params, data) == pytest.approx(math.log(0.7))

    def test_identical_components_collapse(self):
        p1 = _single_leaf_params(1, [1.0], [[0.3, 0.7]])
        p2 = _single_leaf_params(2, [0.25, 0.75], [[0.3, 0.7], [0.3, 0.7]])
        data1 = ls.Dataset(p1.spec, [[1], [0], [1]])
        data2 = ls.Dataset(p2.spec, [[1], [0], [1]])
        assert ls.log_likelihood(p2, data2) == pytest.approx(
            ls.log_likelihood(p1, data1), abs=1e-12)

    def test_even_mixture(self):
        params = _single_leaf_params(2, [0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]])
        data = ls.Dataset(params.spec, [[1]])
        # 0.5*0.9 + 0.5*0.1 = 0.5
        assert ls.log_likelihood(params, data) == pytest.approx(math.log(0.5))

    def test_complete_data_path(self):
        params = _single_leaf_params(2, [0.4, 0.6], [[0.1, 0.9], [0.8, 0.2]])
        data = ls.Dataset(params.spec, [[1], [0]], hidden=[0, 1])
        expected = math.log(0.4 * 0.9) + math.log(0.6 * 0.8)
        assert ls.log_likelihood(params, data) == pytest.approx(expected)

    def test_c1_incomplete_equals_forced_complete(self, make_instance):
        spec, data, _ = make_instance(seed=4, n=3, c=1, n_samples=12)
        model = ls.generate_model(spec, ls.SeededStream(5, 0))
        complete = ls.Dataset(spec, data.rows, hidden=np.zeros(12, dtype=int))
        assert ls.log_likelihood(model, data) == pytest.approx(
            ls.log_likelihood(model, complete), abs=1e-12)

    def test_spec_mismatch(self):
        params = _single_leaf_params(2, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        data = ls.Dataset(ls.binary_spec(2, 2), [[0, 1]])
        with pytest.raises(ValueError):
            ls.log_likelihood(params, data)


class TestLogPrior:
    def test_uniform_prior_density_is_zero(self):
        params = _single_leaf_params(1, [1.0], [[0.37, 0.63]])
        prior = ls.PriorSet.symmetric(params.spec, 1.0)
        assert ls.log_prior(params, prior) == pytest.approx(0.0, abs=1e-14)

    def test_single_row_alpha_two(self):
        # density Gamma(4)/(Gamma(2)Gamma(2)) * 0.5 * 0.5 = 1.5 on the leaf row;
        # c=1 root row contributes 0
        params = _single_leaf_params(1, [1.0], [[0.5, 0.5]])
        prior = ls.PriorSet.symmetric(params.spec, 2.0)
        assert ls.log_prior(params, prior) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_row_additivity(self):
        p2 = _single_leaf_params(2, [0.5, 0.5], [[0.3, 0.7], [0.6, 0.4]])
        prior2 = ls.PriorSet.symmetric(p2.spec, 2.0)
        total = ls.log_prior(p2, prior2)

        def one_row(theta):
            a = np.array([2.0, 2.0])
            return (math.lgamma(a.sum()) - sum(math.lgamma(x) for x in a)
                    + ((a - 1) * np.log(theta)).sum())

        expected = sum(one_row(np.array(r))
                       for r in ([0.5, 0.5], [0.3, 0.7], [0.6, 0.4]))
        assert total == pytest.approx(expected, abs=1e-12)

    def test_equals_row_by_row_reference(self):
        rng = np.random.default_rng(104)
        for c in (3, 1):
            spec = ls.ModelSpec((2, 3, 5), c)
            prior = ls.PriorSet(
                spec, rng.uniform(0.5, 3.0, c),
                [rng.uniform(0.5, 3.0, (c, r)) for r in spec.observed_arities])
            params = ls.generate_model(spec, ls.SeededStream(104, c))
            rows = [(params.root, prior.root)]
            for table, alphas in zip(params.leaves, prior.leaves):
                rows.extend(zip(table, alphas))
            total = 0.0
            for theta, alpha in rows:
                total += (gammaln(alpha.sum()) - gammaln(alpha).sum()
                          + ((alpha - 1.0) * np.log(theta)).sum())
            assert ls.log_prior(params, prior) == float(total)

    @pytest.mark.parametrize("arities, c", [
        ((2,) * 8, 4), ((2, 3, 5, 9, 12), 3), ((2, 3, 5), 1),
    ], ids=["binary-n8-c4", "mixed-c3", "c1"])
    def test_cached_normalizers_equal_inline_formula(self, arities, c):
        spec = ls.ModelSpec(arities, c)
        rng = np.random.default_rng(105)
        prior = ls.PriorSet(
            spec, rng.uniform(0.5, 3.0, c),
            [rng.uniform(0.5, 3.0, (c, r)) for r in arities])
        sets = [ls.generate_model(spec, ls.SeededStream(106, k))
                for k in range(64)]
        stack = ls.ParamSet.from_tables(
            spec, [np.stack(t) for t in zip(*(s.tables for s in sets))])

        def inline(params):
            # The formula before the normalizers were cached per prior.
            terms = [gammaln(alpha.sum(axis=1)) - gammaln(alpha).sum(axis=1)
                     + ((alpha - 1.0) * np.log(theta)).sum(axis=-1)
                     for theta, alpha in zip(params.tables, prior.tables)]
            return np.cumsum(np.concatenate(terms, axis=-1), axis=-1)[..., -1]

        one = ls.log_prior(sets[0], prior)
        assert type(one) is float and one == float(inline(sets[0]))
        assert np.array_equal(ls.log_prior(stack, prior), inline(stack))
        assert prior.log_normalizers is prior.log_normalizers


class TestLogPosteriorG:
    def test_uniform_prior_collapse(self, make_instance):
        spec, data, _ = make_instance(seed=1)
        model = ls.generate_model(spec, ls.SeededStream(2, 0))
        prior = ls.PriorSet.symmetric(spec, 1.0)
        assert ls.log_posterior_g(model, data, prior) == pytest.approx(
            ls.log_likelihood(model, data), abs=1e-12)

    def test_epsilon_shift_identity(self, make_instance):
        spec, data, _ = make_instance(seed=2)
        model = ls.generate_model(spec, ls.SeededStream(3, 0))
        eps = 0.01
        prior_eps = ls.PriorSet.symmetric(spec, 1.0 + eps)
        prior_one = ls.PriorSet.symmetric(spec, 1.0)
        shift = (ls.log_posterior_g(model, data, prior_eps)
                 - ls.log_posterior_g(model, data, prior_one))
        rows = [model.root] + [row for t in model.leaves for row in t]
        expected = 0.0
        for row in rows:
            r = len(row)
            a0, a = r * (1 + eps), 1 + eps
            expected += (math.lgamma(a0) - r * math.lgamma(a)
                         + eps * np.log(row).sum())
        assert shift == pytest.approx(expected, abs=1e-10)

    def test_brute_force_cross_check(self):
        # direct probability-domain evaluation on a small instance
        params = _single_leaf_params(2, [0.3, 0.7], [[0.2, 0.8], [0.9, 0.1]])
        spec = params.spec
        data = ls.Dataset(spec, [[0], [1], [1]])
        prior = ls.PriorSet.symmetric(spec, 1.5)
        lik = 1.0
        for (x,) in data.rows:
            lik *= (0.3 * params.leaves[0][0][x] + 0.7 * params.leaves[0][1][x])
        dens = 1.0
        for row in [params.root, params.leaves[0][0], params.leaves[0][1]]:
            dens *= (math.gamma(3.0) / math.gamma(1.5) ** 2
                     * row[0] ** 0.5 * row[1] ** 0.5)
        assert ls.log_posterior_g(params, data, prior) == pytest.approx(
            math.log(lik * dens), abs=1e-12)


class TestPosteriorOverHidden:
    def test_c1(self):
        params = _single_leaf_params(1, [1.0], [[0.3, 0.7]])
        assert np.array_equal(ls.posterior_over_hidden(params, [1]), [1.0])

    def test_symmetric_components(self):
        params = _single_leaf_params(2, [0.5, 0.5], [[0.3, 0.7], [0.3, 0.7]])
        post = ls.posterior_over_hidden(params, [0])
        assert np.allclose(post, [0.5, 0.5], atol=1e-12)

    def test_hand_case(self):
        params = _single_leaf_params(2, [0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]])
        post = ls.posterior_over_hidden(params, [1])
        assert np.allclose(post, [0.9, 0.1], atol=1e-12)

    def test_sums_to_one(self, make_instance):
        spec, data, _ = make_instance(seed=6, n=4, c=3, n_samples=5)
        model = ls.generate_model(spec, ls.SeededStream(7, 0))
        for row in data.rows:
            assert ls.posterior_over_hidden(model, row).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("row", [[-1], [0, 1], []],
                             ids=["negative-state", "extra-field", "short"])
    def test_malformed_record_rejected(self, row):
        params = _single_leaf_params(2, [0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]])
        with pytest.raises(ValueError):
            ls.posterior_over_hidden(params, row)


class TestFreeCoords:
    def test_round_trip_exact(self):
        # One set at c=1 and at c=4; a stack of four sets at c=4 below.
        spec4 = ls.ModelSpec((2, 3, 5), 4)
        sets, stack = _stack(spec4, 8, 4)
        models = [ls.generate_model(ls.ModelSpec((2, 3, 5), 1),
                                    ls.SeededStream(8, 0)), sets[0]]
        for model in models:
            spec = model.spec
            coords = ls.params_to_free(model)
            assert coords.shape == (ls.dimension(spec),)
            back = ls.free_to_params(spec, coords)
            assert np.array_equal(ls.params_to_free(back), coords)
            # Each dropped component comes back as one minus its row's free
            # sum, which is within rounding of the original component.
            for table, rebuilt in zip(model.tables, back.tables):
                r = table.shape[-1]
                for row, out in zip(table.reshape(-1, r),
                                    rebuilt.reshape(-1, r)):
                    expected = np.append(row[:-1], 1.0 - row[:-1].sum())
                    assert np.array_equal(out, expected)
                    assert np.allclose(out, row, atol=1e-15)
        # A stack's row b is the coordinates of set b alone.
        assert ls.params_to_free(stack).shape == (4, ls.dimension(spec4))
        for b, params in enumerate(sets):
            assert np.array_equal(ls.params_to_free(stack)[b],
                                  ls.params_to_free(params))

    def test_boundary_rejected(self):
        spec = ls.binary_spec(1, 2)
        with pytest.raises(ValueError):
            ls.free_to_params(spec, np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError):
            ls.free_to_params(spec, np.array([0.5, 1.0, 0.5]))
        with pytest.raises(ValueError):
            ls.free_to_params(spec, np.array([0.5, 0.5]))
        # An arity-3 row whose free coordinates are each below 1 but sum to 1.
        spec3 = ls.ModelSpec((3,), 1)
        with pytest.raises(ValueError):
            ls.free_to_params(spec3, np.array([0.6, 0.4]))
        with pytest.raises(ValueError):
            ls.free_to_params(spec3, np.array([0.7, 0.5]))

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("case", ["wrong-d", "3-d", "non-positive",
                                      "row-sum-1", "row-sum-above-1"])
    def test_malformed_coordinates_rejected(self, case, stacked):
        spec = ls.ModelSpec((3, 2), 2)
        good = ls.params_to_free(ls.generate_model(spec, ls.SeededStream(5, 0)))
        bad = good.copy()
        if case == "wrong-d":
            bad = bad[:-1]
        elif case == "3-d":
            bad = bad[None, None, :]
        elif case == "non-positive":
            bad[3] = 0.0
        else:
            # Leaf 0's first row: free coordinates at positions 1 and 2.
            bad[1] = 0.5
            bad[2] = 0.5 if case == "row-sum-1" else 0.7
        if stacked:
            # A stack of wrong-shaped sets, or one bad set among good ones.
            bad = (np.stack([bad, bad]) if case in ("wrong-d", "3-d")
                   else np.stack([good, bad, good]))
        with pytest.raises(ValueError):
            ls.free_to_params(spec, bad)


class TestGradG:
    def test_matches_finite_differences(self):
        spec = ls.binary_spec(2, 2)
        prior = ls.PriorSet.symmetric(spec, 1.01)
        model0 = ls.generate_model(spec, ls.SeededStream(100, 0))
        data = ls.strip_hidden(ls.sample_dataset(model0, 6, ls.SeededStream(100, 1)))
        h = 1e-6
        for point in range(20):
            params = ls.generate_model(spec, ls.SeededStream(101, point))
            x = ls.params_to_free(params)
            analytic = ls.grad_g(x, data, prior)
            fd = np.empty_like(x)
            for j in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[j] = (ls.log_posterior_g(ls.free_to_params(spec, xp), data, prior)
                         - ls.log_posterior_g(ls.free_to_params(spec, xm), data, prior)) / (2 * h)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() <= 1e-5

    def test_equals_row_by_row_reference(self):
        spec = ls.ModelSpec((2, 3, 5), 3)
        prior = ls.PriorSet.symmetric(spec, 1.3)
        model = ls.generate_model(spec, ls.SeededStream(102, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 40, ls.SeededStream(102, 1)))
        x = ls.params_to_free(ls.generate_model(spec, ls.SeededStream(103, 0)))
        at = ls.free_to_params(spec, x)
        stats = expected_counts(at, data)
        rows = [(at.root, stats.root, prior.root)]
        for table, counts, alphas in zip(at.leaves, stats.leaves, prior.leaves):
            rows.extend(zip(table, counts, alphas))
        parts = []
        for theta, counts, alpha in rows:
            v = counts + alpha - 1.0
            parts.append(v[:-1] / theta[:-1] - v[-1] / theta[-1])
        assert np.array_equal(ls.grad_g(x, data, prior), np.concatenate(parts))

    def test_complete_data_uniform_prior_closed_form(self):
        spec = ls.binary_spec(1, 2)
        params = _single_leaf_params(2, [0.4, 0.6], [[0.3, 0.7], [0.8, 0.2]])
        data = ls.Dataset(spec, [[0], [1], [1], [0], [0]], hidden=[0, 0, 1, 1, 1])
        prior = ls.PriorSet.symmetric(spec, 1.0)
        grad = ls.grad_g(ls.params_to_free(params), data, prior)
        # counts: root (2,3); leaf c0 rows x=(0:1, 1:1); c1 (0:2, 1:1)
        expected = np.array([
            2 / 0.4 - 3 / 0.6,
            1 / 0.3 - 1 / 0.7,
            2 / 0.8 - 1 / 0.2,
        ])
        assert np.allclose(grad, expected, rtol=1e-12)

    def test_boundary_rejected(self, make_instance):
        spec, data, prior = make_instance(seed=3, n=2, c=2, n_samples=6)
        bad = np.full(ls.dimension(spec), 0.5)
        bad[0] = 1.0
        with pytest.raises(ValueError):
            ls.grad_g(bad, data, prior)


def test_label_permutation_invariance(make_instance):
    spec, data, prior = make_instance(seed=9, n=3, c=3, n_samples=15, alpha=1.3)
    model = ls.generate_model(spec, ls.SeededStream(10, 0))
    perm = [2, 0, 1]
    permuted = ls.ParamSet(spec, model.root[perm],
                           [t[perm] for t in model.leaves])
    assert ls.log_likelihood(permuted, data) == pytest.approx(
        ls.log_likelihood(model, data), abs=1e-12)
    assert ls.log_prior(permuted, prior) == pytest.approx(
        ls.log_prior(model, prior), abs=1e-12)
    assert ls.log_posterior_g(permuted, data, prior) == pytest.approx(
        ls.log_posterior_g(model, data, prior), abs=1e-12)


def test_expected_counts_totals_and_complete_match(make_instance):
    spec, data, _ = make_instance(seed=12, n=3, c=2, n_samples=25)
    model = ls.generate_model(spec, ls.SeededStream(13, 0))
    counts = expected_counts(model, data)
    assert counts.root.sum() == pytest.approx(25, abs=1e-9)
    for t in counts.leaves:
        assert t.sum() == pytest.approx(25, abs=1e-9)

    complete = ls.sample_dataset(model, 30, ls.SeededStream(13, 1))
    counts = expected_counts(model, complete)
    stats = ls.sufficient_stats(complete)
    assert np.array_equal(counts.root, stats.root)
    for a, b in zip(counts.leaves, stats.leaves):
        assert np.array_equal(a, b)


def _add_at_counts(post, data):
    # Per-leaf scatter-add of the weighted posteriors: each cell sums its
    # terms in pattern order.
    patterns = data.patterns
    post = np.ascontiguousarray((post * patterns.weights).T)
    leaves = []
    for i, r in enumerate(data.spec.observed_arities):
        table = np.zeros((r, post.shape[1]))
        np.add.at(table, patterns.rows[:, i], post)
        leaves.append(table.T.copy())
    return [post.sum(axis=0)[None, :], *leaves]


def _bincount_stats(data):
    # Per-leaf integer counts of (hidden, value) pairs, record by record.
    c = data.spec.hidden_arity
    leaves = [np.bincount(data.hidden * r + data.rows[:, i], minlength=c * r)
              .astype(float).reshape(c, r)
              for i, r in enumerate(data.spec.observed_arities)]
    return [np.bincount(data.hidden, minlength=c).astype(float)[None, :],
            *leaves]


@pytest.mark.parametrize("spec, n_samples, complete", [
    (ls.ModelSpec((2, 3, 5, 9, 12), 3), 200, False),
    (ls.binary_spec(32, 8), 400, False),
    (ls.binary_spec(2, 1), 30, False),
    (ls.ModelSpec((2, 3, 2), 3), 37, True),
    (ls.ModelSpec((2, 3, 2), 1), 37, True),
], ids=["mixed-c3", "n32-c8", "n2-c1", "complete-c3", "complete-c1"])
def test_counts_equal_per_leaf_references(spec, n_samples, complete):
    """Integer counts (complete data, and c=1 where every posterior is 1)
    equal the record-by-record tallies exactly.  Fractional counts are
    sums of K nonnegative terms post * w; the product rounds each term at
    most once and adds them in BLAS's order, the reference rounds each
    product and adds in pattern order, so the two agree to within
    2 (K + 1) u relative, u = 2**-53."""
    model = ls.generate_model(spec, ls.SeededStream(14, 0))
    data = ls.sample_dataset(model, n_samples, ls.SeededStream(14, 1))
    if complete:
        got, want = ls.sufficient_stats(data), _bincount_stats(data)
    else:
        data = ls.strip_hidden(data)
        post = e_pass(model, data)[1]
        got = counts_from_posteriors(post, data)
        want = _add_at_counts(post, data)
    assert len(got.tables) == len(want)
    bound = 2 * (data.patterns.weights.size + 1) * 2.0**-53
    for a, b in zip(got.tables, want):
        if complete or spec.hidden_arity == 1:
            assert np.array_equal(a, b)
        else:
            assert np.all(np.abs(a - b) <= bound * b)


def _spec_data(arities, c, n_samples, seed):
    spec = ls.ModelSpec(arities, c)
    truth = ls.generate_model(ls.ModelSpec(arities, 3), ls.SeededStream(seed, 0))
    drawn = ls.sample_dataset(truth, n_samples, ls.SeededStream(seed, 1))
    return spec, ls.Dataset(spec, drawn.rows)


def _stack(spec, seed, size):
    sets = [ls.generate_model(spec, ls.SeededStream(seed, k))
            for k in range(size)]
    return sets, ls.ParamSet.from_tables(
        spec, [np.stack(t) for t in zip(*(s.tables for s in sets))])


@pytest.mark.parametrize("arities", [(2,) * 8, (2, 3, 5, 9, 12), (4,)],
                         ids=["binary-n8", "mixed", "one-leaf"])
def test_design_is_one_hot_at_offsets(arities):
    spec, data = _spec_data(arities, 2, 50, 15)
    patterns = data.patterns
    # The distinct records in order of first occurrence, with their counts.
    seen = {}
    for row in map(tuple, data.rows):
        seen[row] = seen.get(row, 0) + 1
    assert np.array_equal(patterns.rows, list(seen))
    assert np.array_equal(patterns.weights, list(seen.values()))
    assert patterns.hidden is None
    k = len(seen)
    x = patterns.design
    assert x.shape == (k, sum(arities)) and x.dtype == np.float64
    assert np.array_equal(x.sum(axis=1), np.full(k, len(arities)))
    offsets = np.cumsum((0,) + arities[:-1])
    want = np.zeros_like(x)
    for t in range(k):
        want[t, patterns.rows[t] + offsets] = 1.0
    assert np.array_equal(x, want)
    assert patterns.design_t.flags.c_contiguous
    assert np.array_equal(patterns.design_t, x.T)
    ones = np.ones((k, 1))
    assert np.array_equal(patterns.counts_design,
                          patterns.weights[:, None] * np.hstack((ones, x)))
    assert data.patterns is patterns


def test_complete_patterns_group_on_record_and_hidden_state():
    spec = ls.ModelSpec((2, 3), 2)
    data = ls.Dataset(spec, [[0, 1], [0, 1], [1, 2], [0, 1], [1, 2]],
                      hidden=[1, 0, 1, 1, 1])
    patterns = data.patterns
    assert np.array_equal(patterns.rows, [[0, 1], [0, 1], [1, 2]])
    assert np.array_equal(patterns.hidden, [1, 0, 1])
    assert np.array_equal(patterns.weights, [2.0, 1.0, 2.0])


@pytest.mark.parametrize("n, c, size", [(8, 2, 64), (8, 4, 64), (8, 8, 64),
                                        (32, 8, 40)],
                         ids=["n8-c2", "n8-c4", "n8-c8", "n32-c8"])
def test_stacked_counts_equal_one_set_at_a_time(n, c, size):
    spec, data = _spec_data((2,) * n, c, 400, 16)
    sets, stack = _stack(spec, 17, size)
    counts = counts_from_posteriors(e_pass(stack, data)[1], data)
    assert counts.root.shape == (size, c)
    for b, params in enumerate(sets):
        alone = counts_from_posteriors(e_pass(params, data)[1], data)
        for row, want in zip(counts.tables, alone.tables):
            assert np.array_equal(row[b], want)


@pytest.mark.parametrize("arities, c, stacked", [
    ((2,) * 8, 4, False), ((2,) * 8, 4, True),
    ((2, 3, 5, 9, 12), 3, False), ((2, 3, 5, 9, 12), 3, True),
    ((2, 3, 5), 1, False), ((2, 3, 5), 1, True),
], ids=["n8-c4-one", "n8-c4-stack", "mixed-one", "mixed-stack", "c1-one",
        "c1-stack"])
def test_component_scores_equal_strided_gather(arities, c, stacked):
    """The design product adds the same n + 1 nonpositive terms as the
    strided gather (log root and one log entry per leaf; the design's zeros
    add exact zeros), in another order.  Any order of a same-sign sum is
    within gamma_n |S| of the exact sum, gamma_n = n u / (1 - n u),
    u = 2**-53, so the two differ by at most 2 gamma_n |want| < 2 (n+1) u
    |want|: 2.0e-15 relative at n=8.  A stack's copies are the same bits
    as single-set calls."""
    from latentscore.model_core import _component_log_scores
    spec, data = _spec_data(arities, c, 300, 18)
    sets, stack = _stack(spec, 19, 16)
    params = stack if stacked else sets[0]
    # The old gather: fancy indexing into a strided view of each log table,
    # added root first, then the leaves in order.
    patterns = data.patterns
    want = np.repeat(np.log(params.root)[..., None, :],
                     patterns.weights.size, axis=-2)
    for i, table in enumerate(params.leaves):
        want += np.swapaxes(np.log(table), -1, -2)[..., patterns.rows[:, i], :]
    want = np.swapaxes(want, -1, -2)
    got = _component_log_scores(params, patterns.design_t)
    assert got.shape == want.shape
    bound = 2 * (len(arities) + 1) * 2.0**-53
    assert np.all(np.abs(got - want) <= bound * np.abs(want))
    if stacked:
        for b, one in enumerate(sets):
            alone = _component_log_scores(one, patterns.design_t)
            assert np.array_equal(got[b], alone)


@pytest.mark.parametrize("c", [2, 5, 8])
def test_tied_states_split_evenly(c):
    # Every state has the same root weight and leaf tables, so each
    # record's scores tie across the row and its posterior is 1/c.
    spec, data = _spec_data((2, 3, 5, 9, 12), c, 200, 22)
    one = ls.generate_model(ls.ModelSpec(spec.observed_arities, 1),
                            ls.SeededStream(23, 0))
    tied = ls.ParamSet(spec, np.full(c, 1.0 / c),
                       [np.repeat(t, c, axis=0) for t in one.leaves])
    ll, post = e_pass(tied, data)
    assert np.all(np.abs(post - 1.0 / c) <= 1e-12)
    assert ll == pytest.approx(
        ls.log_likelihood(one, ls.Dataset(one.spec, data.rows)), rel=1e-12)


def test_e_pass_survives_joints_below_exp_minus_745():
    """Leaf entries at PARAM_FLOOR make every record's joint underflow when
    exponentiated directly; the shifted sum still gives finite posteriors
    and the log likelihood that scipy's logsumexp gives."""
    from scipy.special import logsumexp
    floor = ls.model_core.PARAM_FLOOR
    n, c = 64, 3
    spec = ls.binary_spec(n, c)
    # State j puts (j + 1) * PARAM_FLOOR on value 0 of every leaf.
    leaves = [np.array([[(j + 1) * floor, 1.0 - (j + 1) * floor]
                        for j in range(c)])] * n
    params = ls.ParamSet(spec, np.array([0.2, 0.3, 0.5]), leaves)
    gen = np.random.default_rng(24)
    rows = (gen.random((40, n)) < 0.1).astype(int)
    data = ls.Dataset(spec, rows)
    ref = np.log(params.root) + sum(
        np.log(t.T)[rows[:, i]] for i, t in enumerate(params.leaves))
    assert np.all(ref < -745.0)
    assert np.all(np.exp(ref).sum(axis=-1) == 0.0)
    ll, post = e_pass(params, data)
    assert np.all(np.isfinite(post))
    assert np.allclose(post.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    want = float(logsumexp(ref, axis=-1).sum())
    assert abs(ll - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n, c, n_samples", [(32, 8, 2000), (64, 32, 400)],
                         ids=["n32-c8-N2000", "n64-c32-N400"])
def test_counts_near_per_leaf_reference_at_large_shapes(n, c, n_samples):
    """At these shapes the matmul's BLAS summation order differs from
    pattern order, so the counts may differ in the last bits.  Each count
    is a sum of nonnegative terms, so the two agree to within
    2 (K + 1) u relative, u = 2**-53: 4.4e-13 at K=2000."""
    spec, data = _spec_data((2,) * n, c, n_samples, 20)
    model = ls.generate_model(spec, ls.SeededStream(21, 0))
    post = e_pass(model, data)[1]
    got = counts_from_posteriors(post, data)
    want = _add_at_counts(post, data)
    for a, b in zip(got.tables, want):
        assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))


@pytest.mark.parametrize("arities, c, n_samples", [
    ((2,) * 8, 4, 400), ((2,) * 8, 4, 300), ((2,) * 8, 4, 333),
    ((2, 3, 5), 1, 300), ((2,) * 8, 1, 333), ((2,) * 8, 1, 400),
], ids=["n8-c4-N400", "n8-c4-N300", "n8-c4-N333", "c1-N300", "c1-N333",
        "c1-N400"])
def test_stacked_e_pass_and_counts_equal_one_set_at_a_time(arities, c,
                                                          n_samples):
    """At these shapes one product for the whole stack would round some
    copies differently from the product for that copy alone.  Every shape
    repeats records, so the pass runs over fewer patterns than records."""
    spec, data = _spec_data(arities, c, n_samples, 25)
    k = data.patterns.weights.size
    assert k < n_samples
    sets, stack = _stack(spec, 26, 16)
    ll, post = e_pass(stack, data)
    counts = counts_from_posteriors(post, data)
    assert post.shape == (16, c, k)
    for b, params in enumerate(sets):
        ll_one, post_one = e_pass(params, data)
        assert ll[b] == ll_one
        assert np.array_equal(post[b], post_one)
        assert np.array_equal(counts.values[b],
                              counts_from_posteriors(post_one, data).values)


def _records_by_states_e_pass(params, data):
    # The (K, c) E pass that the (c, K) layout replaced, inline, on the
    # component scores that test_component_scores_equal_strided_gather
    # checks.
    from latentscore.model_core import _component_log_scores
    patterns = data.patterns
    scores = np.swapaxes(_component_log_scores(params, patterns.design_t),
                         -1, -2).copy()
    top = scores.max(axis=-1, keepdims=True)
    scores -= top
    np.exp(scores, out=scores)
    total = scores.sum(axis=-1, keepdims=True)
    scores /= total
    return (((np.log(total) + top)[..., 0] * patterns.weights).sum(axis=-1),
            scores)


@pytest.mark.parametrize("arities, c", [
    ((2,) * 8, 1), ((2,) * 8, 2), ((2,) * 8, 4), ((2,) * 32, 7),
    ((2, 3, 5, 9, 12), 3),
], ids=["n8-c1", "n8-c2", "n8-c4", "n32-c7", "mixed-c3"])
@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
def test_e_pass_below_eight_states_keeps_the_records_by_states_bits(
        arities, c, stacked):
    """Below 8 states numpy sums a pattern's c terms left to right, as the
    (c, K) total down the rows does, so nothing moves a bit."""
    spec, data = _spec_data(arities, c, 400, 27)
    sets, stack = _stack(spec, 28, 8)
    params = stack if stacked else sets[0]
    ll, post = e_pass(params, data)
    want_ll, want_post = _records_by_states_e_pass(params, data)
    assert np.array_equal(ll, want_ll)
    assert np.array_equal(post, np.swapaxes(want_post, -1, -2))


def _pattern_of_each_record(data):
    index = {tuple(row): k for k, row in enumerate(data.patterns.rows)}
    return np.array([index[tuple(row)] for row in data.rows])


@pytest.mark.parametrize("n, c", [(8, 4), (8, 8), (32, 9)],
                         ids=["n8-c4", "n8-c8", "n32-c9"])
def test_root_counts_are_weighted_posterior_totals(n, c):
    """Each state's root count is the sum, over the records, of the
    posterior of the record's pattern.  The weighted product adds K
    nonnegative terms post * w, so it agrees with the record-order sum to
    within 2 N u relative, u = 2**-53.  A stack's root counts are the
    bits of each copy's own."""
    spec, data = _spec_data((2,) * n, c, 400, 29)
    sets, stack = _stack(spec, 30, 4)
    post = e_pass(stack, data)[1]
    want = np.zeros((4, c))
    for k in _pattern_of_each_record(data):
        want += post[..., k]
    got = counts_from_posteriors(post, data).root
    assert np.all(np.abs(got - want) <= 2 * 400 * 2.0**-53 * want)
    for b, params in enumerate(sets):
        alone = counts_from_posteriors(e_pass(params, data)[1], data).root
        assert np.array_equal(got[b], alone)


def test_dataset_rejects_non_integral_states():
    spec = ls.binary_spec(1, 2)
    with pytest.raises(ValueError):
        ls.Dataset(spec, [[1.9]])
    with pytest.raises(ValueError):
        ls.Dataset(spec, [[1], [0]], hidden=[1.7, 0])
    params = _single_leaf_params(2, [0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]])
    with pytest.raises(ValueError):
        ls.posterior_over_hidden(params, [0.7])
    # Integral floats are still accepted as states.
    data = ls.Dataset(spec, [[1.0], [0.0]], hidden=[1.0, 0.0])
    assert data.rows.dtype == np.int64 and data.hidden.dtype == np.int64
    assert np.array_equal(data.rows, [[1], [0]])
    assert np.array_equal(data.hidden, [1, 0])


def test_model_json_round_trip(tmp_path):
    spec = ls.ModelSpec((2, 4), 3)
    model = ls.generate_model(spec, ls.SeededStream(14, 0))
    path = tmp_path / "model.json"
    ls.write_model(model, path)
    back = ls.read_model(path)
    assert back.spec == spec
    assert np.array_equal(back.root, model.root)
    for a, b in zip(back.leaves, model.leaves):
        assert np.array_equal(a, b)


def test_align_hidden_arity(make_instance):
    spec, data, _ = make_instance(seed=15, n=3, c=2, n_samples=8)
    spec5 = ls.ModelSpec(spec.observed_arities, 5)
    aligned = align_hidden_arity(spec5, data)
    assert aligned.spec == spec5
    assert aligned.rows is data.rows
    # The pattern cache carries over: it does not depend on the arity.
    assert aligned.patterns is data.patterns

    complete = ls.sample_dataset(ls.generate_model(spec, ls.SeededStream(16, 0)),
                                 5, ls.SeededStream(16, 1))
    with pytest.raises(ValueError):
        align_hidden_arity(spec5, complete)
    with pytest.raises(ValueError):
        align_hidden_arity(ls.binary_spec(4, 2), data)


def test_clamp_rows():
    out = clamp_rows(np.array([[0.0, 2.0], [0.5, 0.5]]))
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.allclose(out[1], [0.5, 0.5])
