import numpy as np
import pytest
from scipy.special import gammaln

import latentscore as ls
from latentscore import em_engine
from latentscore.em_engine import DegeneratePriorError, StarvedRowError
from latentscore.model_core import (clamp_rows, counts_from_posteriors,
                                    e_pass, log_prior)
from latentscore.numerics import NumericalFailureError

# Highest objective value found by a dense grid search over the five free
# coordinates of the (n=2 binary leaves, c=2, alpha=1.01) instance built from
# SeededStream(11, 0) (model) and SeededStream(11, 1) (8 samples).  The grid
# puts 50 points with step 0.02 (0.01, 0.03, ..., 0.99) on every coordinate;
# test_fit_matches_grid_search_oracle recomputes it from scratch.
TINY_GRID_MAX_G = -7.268269989460622


def _tiny_instance():
    spec = ls.binary_spec(2, 2)
    model = ls.generate_model(spec, ls.SeededStream(11, 0))
    data = ls.strip_hidden(ls.sample_dataset(model, 8, ls.SeededStream(11, 1)))
    prior = ls.PriorSet.symmetric(spec, 1.01)
    return spec, data, prior


class TestEmConfig:
    def test_defaults(self):
        cfg = ls.EmConfig()
        assert cfg.rel_tol == 1e-5
        assert cfg.max_iters_after_init == 200
        assert cfg.tournament_start == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            ls.EmConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            ls.EmConfig(max_iters_after_init=0)
        for bad in (0, 1, 3, 6, 48):
            with pytest.raises(ValueError):
                ls.EmConfig(tournament_start=bad)
        ls.EmConfig(tournament_start=2)
        ls.EmConfig(tournament_start=64)


class TestEStep:
    def test_c1_equals_plain_counts(self, make_instance):
        spec, data, _ = make_instance(seed=40, n=3, c=1, n_samples=20)
        model = ls.generate_model(spec, ls.SeededStream(41, 0))
        stats = ls.e_step(model, data)
        assert np.array_equal(stats.root, [20.0])
        complete = ls.Dataset(spec, data.rows, hidden=np.zeros(20, dtype=int))
        exact = ls.sufficient_stats(complete)
        for a, b in zip(stats.leaves, exact.leaves):
            assert np.allclose(a, b, atol=1e-12)

    def test_symmetric_components_split_root_evenly(self):
        spec = ls.binary_spec(2, 2)
        row = np.array([[0.3, 0.7], [0.3, 0.7]])
        model = ls.ParamSet(spec, np.array([0.5, 0.5]), [row.copy(), row.copy()])
        data = ls.Dataset(spec, [[0, 1], [1, 1], [0, 0], [1, 0], [1, 1]])
        stats = ls.e_step(model, data)
        assert np.allclose(stats.root, [2.5, 2.5], atol=1e-12)

    def test_hand_computed_posteriors(self):
        # posterior for the first row is (0.9, 0.1), for the second (0.5, 0.5)
        spec = ls.ModelSpec((3,), 2)
        model = ls.ParamSet(spec, np.array([0.5, 0.5]),
                            [np.array([[0.9, 0.05, 0.05], [0.1, 0.05, 0.85]])])
        data = ls.Dataset(spec, [[0], [1]])
        stats = ls.e_step(model, data)
        assert np.allclose(stats.root, [1.4, 0.6], atol=1e-12)
        assert np.allclose(stats.leaves[0],
                           [[0.9, 0.5, 0.0], [0.1, 0.5, 0.0]], atol=1e-12)

    def test_totals_conserved(self, make_instance):
        for seed in range(8):
            spec, data, _ = make_instance(seed=seed, n=4, c=3, n_samples=17)
            model = ls.generate_model(spec, ls.SeededStream(seed + 100, 0))
            stats = ls.e_step(model, data)
            assert stats.root.sum() == pytest.approx(17.0, abs=1e-9)
            for t in stats.leaves:
                assert t.sum() == pytest.approx(17.0, abs=1e-9)

    def test_complete_data_rejected(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(42, 0))
        complete = ls.sample_dataset(model, 5, ls.SeededStream(42, 1))
        with pytest.raises(ValueError):
            ls.e_step(model, complete)


class TestMStepMap:
    def test_plug_in_formula(self):
        spec = ls.binary_spec(1, 2)
        stats = ls.StatSet(spec, np.array([3.0, 1.0]),
                           [np.array([[3.0, 1.0], [0.0, 0.0]])])
        prior = ls.PriorSet.symmetric(spec, 1.01)
        params = ls.m_step_map(stats, prior)
        assert np.allclose(params.root, [3.01 / 4.02, 1.01 / 4.02], atol=1e-12)
        assert params.root[0] == pytest.approx(0.748756, abs=1e-6)
        # the empty row falls back to the prior mode
        assert np.allclose(params.leaves[0][1], [0.5, 0.5], atol=1e-12)

    def test_alpha_two(self):
        spec = ls.binary_spec(1, 2)
        prior = ls.PriorSet.symmetric(spec, 2.0)
        stats = ls.StatSet(spec, np.array([10.0, 0.0]),
                           [np.array([[0.0, 0.0], [5.0, 5.0]])])
        params = ls.m_step_map(stats, prior)
        assert np.allclose(params.root, [11 / 12, 1 / 12], atol=1e-12)
        assert np.allclose(params.leaves[0][0], [0.5, 0.5], atol=1e-12)

    def test_degenerate_prior_rejected(self):
        spec = ls.binary_spec(1, 2)
        prior = ls.PriorSet.symmetric(spec, 0.5)
        stats = ls.StatSet(spec, np.array([0.0, 0.0]),
                           [np.array([[1.0, 1.0], [1.0, 1.0]])])
        with pytest.raises(DegeneratePriorError):
            ls.m_step_map(stats, prior)

    def test_spec_mismatch_rejected(self):
        spec = ls.binary_spec(1, 2)
        stats = ls.StatSet(spec, np.array([1.0, 1.0]),
                           [np.array([[1.0, 1.0], [1.0, 1.0]])])
        prior = ls.PriorSet.symmetric(ls.binary_spec(2, 2), 1.01)
        with pytest.raises(ValueError):
            ls.m_step_map(stats, prior)


class TestMStepMl:
    def test_relative_frequencies(self):
        spec = ls.ModelSpec((2,), 3)
        stats = ls.StatSet(spec, np.array([2.0, 2.0, 2.0]),
                           [np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 6.0]])])
        params = ls.m_step_ml(stats)
        assert np.allclose(params.root, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(params.leaves[0][0], [0.75, 0.25], atol=1e-12)

    def test_starved_row_rejected(self):
        spec = ls.binary_spec(1, 2)
        stats = ls.StatSet(spec, np.array([4.0, 0.0]),
                           [np.array([[2.0, 2.0], [0.0, 0.0]])])
        with pytest.raises(StarvedRowError):
            ls.m_step_ml(stats)

    def test_reproduces_empirical_frequencies(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(43, 0))
        data = ls.sample_dataset(model, 200, ls.SeededStream(43, 1))
        params = ls.m_step_ml(ls.sufficient_stats(data))
        hidden = np.asarray(data.hidden)
        rows = np.asarray(data.rows)
        assert np.allclose(params.root,
                           [np.mean(hidden == 0), np.mean(hidden == 1)],
                           atol=1e-12)
        for i in range(2):
            for c in range(2):
                sel = rows[hidden == c, i]
                assert np.allclose(params.leaves[i][c],
                                   [np.mean(sel == 0), np.mean(sel == 1)],
                                   atol=1e-12)


class TestRunEm:
    def test_trace_monotone(self, make_instance):
        for seed in range(10):
            spec, data, prior = make_instance(seed=seed, n=3, c=2, n_samples=25)
            init = ls.generate_model(spec, ls.SeededStream(seed + 300, 0))
            res = ls.run_em(init, data, prior, ls.EmConfig())
            trace = np.asarray(res.g_trace)
            assert np.all(np.diff(trace) >= -1e-9)
            assert res.final_g == trace[-1]
            assert len(trace) == res.iterations_used + 1

    def test_budget_exhaustion_reported(self, make_instance):
        spec, data, prior = make_instance(seed=44, n=3, c=2, n_samples=30)
        init = ls.generate_model(spec, ls.SeededStream(45, 0))
        cfg = ls.EmConfig(rel_tol=1e-16, max_iters_after_init=3)
        res = ls.run_em(init, data, prior, cfg)
        assert not res.converged
        assert res.iterations_used == 3

    def test_c1_fixed_point_converges_fast(self, make_instance):
        spec, data, _ = make_instance(seed=46, n=3, c=1, n_samples=20)
        complete = ls.Dataset(spec, data.rows, hidden=np.zeros(20, dtype=int))
        ml = ls.m_step_ml(ls.sufficient_stats(complete))
        res = ls.run_em(ml, data, None, ls.EmConfig())
        assert res.converged
        assert res.iterations_used <= 2
        for a, b in zip(res.params.leaves, ml.leaves):
            assert np.allclose(a, b, atol=1e-12)

    def test_exact_fixed_point_is_stable(self):
        # identical components keep posteriors uniform, so the MAP update map
        # has a closed-form fixed point we can construct directly
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(47, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 30, ls.SeededStream(47, 1)))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        rows = np.asarray(data.rows)
        n = data.n_samples
        leaves = []
        for i in range(2):
            m = np.bincount(rows[:, i], minlength=2).astype(float)
            row = (0.5 * m + 0.01) / (0.5 * n + 0.02)
            leaves.append(clamp_rows(np.stack([row, row])))
        fixed = ls.ParamSet(spec, np.array([0.5, 0.5]), leaves)

        stepped = ls.m_step_map(ls.e_step(fixed, data), prior)
        assert np.allclose(stepped.root, fixed.root, atol=1e-9)
        for a, b in zip(stepped.leaves, fixed.leaves):
            assert np.allclose(a, b, atol=1e-9)

        res = ls.run_em(fixed, data, prior, ls.EmConfig())
        assert res.converged
        assert res.iterations_used <= 2

    def test_complete_data_rejected(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(48, 0))
        complete = ls.sample_dataset(model, 6, ls.SeededStream(48, 1))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        with pytest.raises(ValueError):
            ls.run_em(model, complete, prior, ls.EmConfig())

    def test_ml_mode_trace_monotone(self, make_instance):
        spec, data, _ = make_instance(seed=51, n=3, c=2, n_samples=40)
        init = ls.generate_model(spec, ls.SeededStream(52, 0))
        res = ls.run_em(init, data, None, ls.EmConfig())
        assert np.all(np.diff(res.g_trace) >= -1e-9)

    @pytest.mark.parametrize("with_prior", [True, False])
    def test_objective_follows_the_prior(self, make_instance, with_prior):
        # A prior makes the objective g; prior=None makes it the log
        # likelihood.  Both reported values are those functions' own bits.
        spec, data, prior = make_instance(seed=66, n=4, c=3, n_samples=60)
        prior = prior if with_prior else None

        def objective(params):
            if prior is None:
                return ls.log_likelihood(params, data)
            return ls.log_posterior_g(params, data, prior)

        init = ls.generate_model(spec, ls.SeededStream(67, 0))
        cfg = ls.EmConfig(tournament_start=4)
        apart = ls.run_em(init, data, prior, cfg)
        assert apart.g_trace[0] == objective(init)
        fitted = ls.fit(data, spec, prior, cfg, ls.SeededStream(67, 1))
        for res in (apart, fitted):
            assert res.final_g == objective(res.params)

    def test_non_finite_objective_at_the_start_raises(self, make_instance):
        # alpha = 1e308 overflows every row's log normalizer, so g is not
        # finite at any parameters, the starts included.
        spec, data, _ = make_instance(seed=68, n=3, c=2, n_samples=20)
        prior = ls.PriorSet.symmetric(spec, 1e308)
        init = ls.generate_model(spec, ls.SeededStream(69, 0))
        cfg = ls.EmConfig(tournament_start=4)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.any(np.isfinite(prior.log_normalizers))
            with pytest.raises(NumericalFailureError,
                               match="non-finite at the initial parameters"):
                ls.run_em(init, data, prior, cfg)
            with pytest.raises(NumericalFailureError,
                               match="non-finite at the initial parameters"):
                ls.tournament_init(data, spec, prior, cfg,
                                   ls.SeededStream(69, 1))


class TestTournament:
    def test_deterministic(self, make_instance):
        spec, data, prior = make_instance(seed=53, n=3, c=2, n_samples=20)
        cfg = ls.EmConfig(tournament_start=8)
        w1 = ls.tournament_init(data, spec, prior, cfg, ls.SeededStream(54, 0))
        w2 = ls.tournament_init(data, spec, prior, cfg, ls.SeededStream(54, 0))
        assert np.array_equal(w1.root, w2.root)
        for a, b in zip(w1.leaves, w2.leaves):
            assert np.array_equal(a, b)
        w3 = ls.tournament_init(data, spec, prior, cfg, ls.SeededStream(54, 1))
        assert not np.array_equal(w3.root, w1.root)

    def test_two_copy_schedule_picks_better_single_step(self, make_instance):
        spec, data, prior = make_instance(seed=55, n=3, c=2, n_samples=15)
        rng = ls.SeededStream(56, 0)
        candidates = []
        for idx in range(2):
            start = ls.generate_model(spec, rng.child(idx))
            stepped = ls.m_step_map(ls.e_step(start, data), prior)
            g = ls.log_posterior_g(stepped, data, prior)
            candidates.append((g, idx, stepped))
        candidates.sort(key=lambda t: (-t[0], t[1]))
        expected = candidates[0][2]

        cfg = ls.EmConfig(tournament_start=2)
        winner = ls.tournament_init(data, spec, prior, cfg, ls.SeededStream(56, 0))
        assert np.array_equal(winner.root, expected.root)
        for a, b in zip(winner.leaves, expected.leaves):
            assert np.array_equal(a, b)

    def test_widens_hidden_arity_of_data(self, make_instance):
        spec, data, prior4 = None, None, None
        spec, data, _ = make_instance(seed=57, n=3, c=2, n_samples=12)
        spec4 = ls.ModelSpec(spec.observed_arities, 4)
        prior4 = ls.PriorSet.symmetric(spec4, 1.01)
        cfg = ls.EmConfig(tournament_start=4)
        winner = ls.tournament_init(data, spec4, prior4, cfg, ls.SeededStream(58, 0))
        assert winner.spec == spec4


class TestFit:
    def test_matches_grid_search_oracle(self):
        spec, data, prior = _tiny_instance()
        res = ls.fit(data, spec, prior, config=ls.EmConfig(),
                     rng=ls.SeededStream(11, 2))
        assert res.converged
        assert abs(res.final_g - TINY_GRID_MAX_G) <= 1e-2

        # recompute the frozen grid maximum from scratch
        rows = np.asarray(data.rows)
        m = np.zeros((2, 2))
        for v1, v2 in rows:
            m[v1, v2] += 1
        grid = np.linspace(0.01, 0.99, 50)
        eps = 0.01
        prior_1d = eps * (np.log(grid) + np.log1p(-grid))
        const = 5.0 * (gammaln(2.02) - 2.0 * gammaln(1.01))
        Bv = np.stack([grid, 1.0 - grid])
        best = -np.inf
        for ia, a in enumerate(grid):
            ll = np.zeros((grid.size,) * 4)
            for v1 in range(2):
                for v2 in range(2):
                    if m[v1, v2] == 0:
                        continue
                    t1 = a * np.multiply.outer(Bv[v1], Bv[v2])
                    t2 = (1 - a) * np.multiply.outer(Bv[v1], Bv[v2])
                    ll += m[v1, v2] * np.log(t1[:, None, :, None]
                                             + t2[None, :, None, :])
            ll += prior_1d[ia]
            for axis in range(4):
                shape = [1, 1, 1, 1]
                shape[axis] = grid.size
                ll += prior_1d.reshape(shape)
            best = max(best, float(ll.max()))
        best += const
        assert best == pytest.approx(TINY_GRID_MAX_G, abs=1e-9)

    def test_stationarity_at_tightly_converged_mode(self):
        spec, data, prior = _tiny_instance()
        coarse = ls.fit(data, spec, prior, config=ls.EmConfig(),
                        rng=ls.SeededStream(11, 2))
        cfg = ls.EmConfig(rel_tol=1e-13, max_iters_after_init=20000)
        tight = ls.run_em(coarse.params, data, prior, cfg)
        assert tight.converged
        grad = ls.grad_g(ls.params_to_free(tight.params), data, prior)
        assert np.abs(grad).max() < 1e-4

    def test_requires_rng(self, make_instance):
        spec, data, prior = make_instance(seed=59)
        with pytest.raises(ValueError):
            ls.fit(data, spec, prior)

    def test_bit_stable_result(self, make_instance):
        spec, data, prior = make_instance(seed=60, n=3, c=2, n_samples=20)
        cfg = ls.EmConfig(tournament_start=4)
        r1 = ls.fit(data, spec, prior, config=cfg, rng=ls.SeededStream(61, 0))
        r2 = ls.fit(data, spec, prior, config=cfg, rng=ls.SeededStream(61, 0))
        assert r1.final_g == r2.final_g
        assert r1.g_trace == r2.g_trace
        assert np.array_equal(r1.params.root, r2.params.root)

    @pytest.mark.parametrize("mode", ["map", "ml"])
    def test_fit_is_tournament_then_run_em(self, make_instance, mode):
        spec, data, prior = make_instance(seed=62, n=8, c=4, n_samples=200)
        prior = prior if mode == "map" else None
        cfg = ls.EmConfig(tournament_start=8)
        init = ls.tournament_init(data, spec, prior, cfg,
                                  ls.SeededStream(63, 0))
        apart = ls.run_em(init, data, prior, cfg)
        res = ls.fit(data, spec, prior, cfg, ls.SeededStream(63, 0))
        assert all(type(g) is float for g in res.g_trace)
        assert res.g_trace == apart.g_trace
        assert (res.final_g, res.iterations_used, res.converged) == (
            apart.final_g, apart.iterations_used, apart.converged)
        _assert_same_tables(res.params.tables, apart.params.tables)

    def test_fit_calls_each_phase_once(self, make_instance, monkeypatch):
        spec, data, prior = make_instance(seed=64, n=3, c=2, n_samples=20)
        calls = []

        def counted(name):
            inner = getattr(em_engine, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return wrapper

        for name in ("tournament_init", "run_em"):
            monkeypatch.setattr(em_engine, name, counted(name))
        ls.fit(data, spec, prior, ls.EmConfig(tournament_start=4),
               ls.SeededStream(65, 0))
        assert calls == ["tournament_init", "run_em"]


def test_result_metadata():
    res = ls.EmResult(params=None, final_g=-1.5, converged=True,
                      iterations_used=7, g_trace=[-2.0, -1.5])
    assert ls.result_metadata(res) == {
        "final_g": -1.5, "converged": True, "iterations_used": 7}


# The per-copy EM loop and tournament that the stacked loop replaced: every
# start runs its own E and M steps through the single-set functions, and each
# round re-evaluates its survivors.  The stacked loop must give the same bits.

def _reference_loop(params, data, prior, mode, max_iters, rel_tol):
    def evaluate(p):
        g, post = e_pass(p, data)
        if mode == "map":
            g += log_prior(p, prior)
        return g, post

    g, post = evaluate(params)
    trace = [g]
    for _ in range(max_iters):
        stats = counts_from_posteriors(post, data)
        params = (ls.m_step_map(stats, prior) if mode == "map"
                  else ls.m_step_ml(stats))
        g, post = evaluate(params)
        trace.append(g)
        prev = trace[-2]
        change = abs(g - prev)
        rel = change if prev == 0.0 else change / abs(prev)
        if rel < rel_tol:
            return params, trace, True
    return params, trace, False


def _reference_tournament(data, spec, prior, mode, start, rng):
    """The winner, and per round each copy's (objective, index, params)."""
    copies = [(idx, ls.generate_model(spec, rng.child(idx)))
              for idx in range(start)]
    rounds = []
    iters = 1
    while len(copies) > 1:
        scored = []
        for idx, params in copies:
            params, trace, _ = _reference_loop(params, data, prior, mode,
                                               iters, 0.0)
            scored.append((trace[-1], idx, params))
        rounds.append(scored)
        scored = sorted(scored, key=lambda t: (-t[0], t[1]))
        copies = [(idx, params) for _, idx, params in scored[:len(copies) // 2]]
        iters *= 2
    return copies[0][1], rounds


def _assert_same_tables(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def _stack(sets):
    return ls.ParamSet.from_tables(
        sets[0].spec, [np.stack(t) for t in zip(*(s.tables for s in sets))])


@pytest.mark.parametrize("mode", ["map", "ml"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("arities, c, n_samples, start", [
    ((2,) * 8, 1, 400, 16),
    ((2,) * 8, 2, 400, 16),
    ((2,) * 8, 4, 400, 64),
    ((2,) * 8, 8, 400, 16),
    ((2,) * 8, 9, 400, 16),
    ((2,) * 16, 8, 400, 8),
    ((2,) * 32, 8, 400, 8),
    ((2, 3, 5, 9, 12), 3, 200, 16),
    ((2, 2, 2), 2, 20, 64),
], ids=["n8-c1", "n8-c2", "n8-c4", "n8-c8", "n8-c9", "n16-c8", "n32-c8",
        "mixed-c3", "n3-c2"])
def test_stacked_em_matches_per_copy_reference(monkeypatch, arities, c,
                                                n_samples, start, seed, mode):
    spec = ls.ModelSpec(arities, c)
    truth = ls.generate_model(ls.ModelSpec(arities, 3),
                              ls.SeededStream(seed, 0))
    drawn = ls.sample_dataset(truth, n_samples, ls.SeededStream(seed, 1))
    data = ls.Dataset(spec, drawn.rows)
    prior = ls.PriorSet.symmetric(spec, 1.01) if mode == "map" else None
    config = ls.EmConfig(tournament_start=start)

    runs = []
    loop = em_engine._em_loop

    def recorded(*args):
        out = loop(*args)
        runs.append((out[0], out[2][-1]))
        return out

    monkeypatch.setattr(em_engine, "_em_loop", recorded)
    res = ls.fit(data, spec, prior, config, ls.SeededStream(seed, 2))

    winner, ref_rounds = _reference_tournament(
        data, spec, prior, mode, start, ls.SeededStream(seed, 2))
    *rounds, polish = runs
    assert len(rounds) == len(ref_rounds)
    for (params, g), scored in zip(rounds, ref_rounds):
        # survivors enter each round best first, as the reference sorts them
        assert np.array_equal(g, [s[0] for s in scored])
        for b, (_, _, ref_params) in enumerate(scored):
            _assert_same_tables([t[b] for t in params.tables],
                                ref_params.tables)

    ref_params, ref_trace, ref_converged = _reference_loop(
        winner, data, prior, mode, config.max_iters_after_init,
        config.rel_tol)
    assert np.array_equal(res.g_trace, ref_trace)
    assert res.converged == ref_converged
    _assert_same_tables(res.params.tables, ref_params.tables)


def test_stack_with_a_degenerate_start_raises_its_error():
    # The fourth start's first M step meets a row whose posterior count
    # plus alpha total falls below the arity; the other three do not.
    spec = ls.binary_spec(4, 4)
    truth = ls.generate_model(ls.binary_spec(4, 2), ls.SeededStream(1, 5))
    data = ls.Dataset(spec,
                      ls.sample_dataset(truth, 8, ls.SeededStream(1, 6)).rows)
    prior = ls.PriorSet.symmetric(spec, 0.8)
    rng = ls.SeededStream(1, 0)
    outcomes = []
    for idx in range(4):
        try:
            _reference_loop(ls.generate_model(spec, rng.child(idx)), data,
                            prior, "map", 1, 0.0)
            outcomes.append(None)
        except DegeneratePriorError:
            outcomes.append(idx)
    assert outcomes == [None, None, None, 3]
    with pytest.raises(DegeneratePriorError):
        ls.tournament_init(data, spec, prior,
                           ls.EmConfig(tournament_start=4), rng)


def test_stack_with_a_starved_start_raises_its_error():
    # In the second copy, state 1 gives every observed value 1e-300, so its
    # posterior underflows to zero on every record and its ML row starves.
    spec = ls.binary_spec(3, 2)
    data = ls.Dataset(spec, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    fine = ls.generate_model(spec, ls.SeededStream(62, 0))
    leaf = np.array([[0.5, 0.5], [1e-300, 1.0]])
    starved = ls.ParamSet(spec, np.array([0.5, 0.5]), [leaf] * 3)
    with pytest.raises(StarvedRowError):
        _reference_loop(starved, data, None, "ml", 1, 0.0)
    _reference_loop(fine, data, None, "ml", 1, 0.0)

    stack = _stack([fine, starved, fine])
    g, post = em_engine._evaluate(stack, data, None, em_engine._AT_START)
    with pytest.raises(StarvedRowError):
        em_engine._em_loop(stack, g, post, data, None, 1, 0.0)


def test_stacked_m_step_checks_every_copy():
    spec = ls.binary_spec(2, 2)
    prior = ls.PriorSet.symmetric(spec, 1.01)
    good = ls.StatSet(spec, np.array([3.0, 2.0]),
                      [np.array([[2.0, 1.0], [1.0, 1.0]])] * 2)
    stack = ls.StatSet.from_tables(
        spec, [np.stack([t, t]) for t in good.tables])
    params = ls.m_step_map(stack, prior)
    single = ls.m_step_map(good, prior)
    for s, t in zip(params.tables, single.tables):
        assert np.array_equal(s, np.stack([t, t]))
    bad_prior = ls.PriorSet.symmetric(spec, 0.5)
    starved = [t.copy() for t in stack.tables]
    starved[1][1, 0] = 0.0
    with pytest.raises(DegeneratePriorError):
        ls.m_step_map(ls.StatSet.from_tables(spec, starved), bad_prior)
    with pytest.raises(StarvedRowError):
        ls.m_step_ml(ls.StatSet.from_tables(spec, starved))
