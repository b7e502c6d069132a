"""The packed TableSet layout and its bit-exact segment sums."""

import numpy as np
import pytest

import latentscore as ls

ALL_ARITIES = tuple(range(2, 14))


def _values(shape, seed):
    # Signs and magnitudes spread over 16 decades, so that any change in the
    # order of a sum's additions shows in its last bits.
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


def _per_segment(values, lengths):
    """Each segment summed as a row of its own C-contiguous array."""
    ends = np.cumsum(lengths)
    return np.stack([np.array(values[..., e - r:e]).sum(axis=-1)
                     for r, e in zip(lengths, ends)], axis=-1)


@pytest.mark.parametrize("stack", [(), (2,), (64,)],
                         ids=["one", "two", "stack"])
@pytest.mark.parametrize("arities, c", [
    (ALL_ARITIES, 1), (ALL_ARITIES, 3), (ALL_ARITIES, 8),
    ((12, 2, 9, 3), 9), ((12, 2, 9, 3), 3), ((2,) * 8, 2),
], ids=["r2-13-c1", "r2-13-c3", "r2-13-c8", "apart-c9", "apart-c3",
        "binary-c2"])
def test_segment_sums_equal_separate_row_sums(arities, c, stack):
    spec = ls.ModelSpec(arities, c)
    layout = spec.layout
    assert spec.layout is layout
    cases = [(layout.rows, layout.size), (layout.tables, layout.size),
             (layout.free_rows, ls.dimension(spec)),
             (layout.table_rows, 1 + len(arities) * c)]
    for k, (segments, total) in enumerate(cases):
        assert segments.lengths.sum() == total
        spread = _values(stack + (total,), seed=k + 10 * c)
        zeros = np.zeros_like(spread)
        # Rows of all -0.0, of all +0.0 and of both signs sum to zero.
        # numpy starts a row sum from +0.0, and only the sign of a zero
        # total shows whether that start was kept.
        for values in (spread, -zeros, zeros, np.copysign(zeros, spread)):
            got = segments.sum(values)
            want = _per_segment(values, segments.lengths)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            # array_equal holds -0.0 equal to +0.0; the sign bits are not.
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_side_by_side_rows_are_sliced_and_apart_rows_gathered():
    # (12, 2, 9, 3) at c=9: the root row and leaf 2's rows share length 9
    # but are not adjacent, so only they are gathered.
    groups = {int(r): cols for _, cols, r in
              ls.ModelSpec((12, 2, 9, 3), 9).layout.rows._groups}
    assert not isinstance(groups[9], slice)
    assert all(isinstance(groups[r], slice) for r in (12, 2, 3))
    assert all(isinstance(cols, slice) for _, cols, _ in
               ls.binary_spec(64, 8).layout.rows._groups)


def _stacked(spec, k):
    sets = [ls.generate_model(spec, ls.SeededStream(31, i)) for i in range(k)]
    return ls.ParamSet.from_tables(
        spec, [np.stack(t) for t in zip(*(s.tables for s in sets))])


@pytest.mark.parametrize("arities, c, stacked", [
    ((2,) * 8, 4, False), ((2, 3, 5, 9, 12), 3, False), ((2, 3), 1, False),
    ((2, 3, 5, 9, 12), 3, True),
], ids=["binary-n8-c4", "mixed-c3", "c1", "stack"])
@pytest.mark.parametrize("cls", [ls.ParamSet, ls.PriorSet, ls.StatSet],
                         ids=lambda cls: cls.__name__)
def test_views_read_back_the_inputs(cls, arities, c, stacked):
    spec = ls.ModelSpec(arities, c)
    source = (_stacked(spec, 5) if stacked
              else ls.generate_model(spec, ls.SeededStream(32, 0)))
    root, leaves = source.root.copy(), [t.copy() for t in source.leaves]
    built = (cls.from_tables(spec, [root[..., None, :], *leaves]) if stacked
             else cls(spec, root, leaves))
    assert built.values.shape == root.shape[:-1] + (spec.layout.size,)
    assert built.values.flags.c_contiguous
    views = [built.root, *built.leaves, *built.tables]
    inputs = [root, *leaves, root[..., None, :], *leaves]
    assert len(views) == len(inputs)
    for view, want in zip(views, inputs):
        assert view.shape == want.shape
        assert np.array_equal(view, want)
        assert np.shares_memory(view, built.values)


def test_from_values_wraps_without_a_copy():
    spec = ls.ModelSpec((2, 3, 5), 3)
    model = ls.generate_model(spec, ls.SeededStream(33, 0))
    wrapped = ls.ParamSet.from_values(spec, model.values)
    assert wrapped.values is model.values
    with pytest.raises(ValueError, match="sum to 1"):
        ls.ParamSet.from_values(spec, model.values * 0.9)
    with pytest.raises(ValueError, match="expected"):
        ls.StatSet.from_values(spec, model.values[:-1])
    with pytest.raises(ValueError, match="expected"):
        ls.StatSet.from_values(spec, model.values[None, None])


def _param_sets(spec):
    """A ParamSet from each way one is built: the constructor,
    ``from_values``, ``from_tables`` (one set and a stack of 3), both M
    steps and ``free_to_params``."""
    model = ls.generate_model(spec, ls.SeededStream(35, 0))
    stack = _stacked(spec, 3)
    prior = ls.PriorSet.symmetric(spec, 1.5)
    stats = ls.StatSet.from_values(spec, 40.0 * stack.values)
    return {
        "constructor": ls.ParamSet(spec, model.root, model.leaves),
        "from_values": ls.ParamSet.from_values(spec, model.values.copy()),
        "from_tables": ls.ParamSet.from_tables(spec, model.tables),
        "from_tables-stack": ls.ParamSet.from_tables(spec, stack.tables),
        "m_step_map-stack": ls.m_step_map(stats, prior),
        "m_step_ml": ls.m_step_ml(ls.StatSet.from_values(
            spec, 40.0 * model.values)),
        "free_to_params": ls.free_to_params(spec, ls.params_to_free(model)),
    }


@pytest.mark.parametrize("arities, c", [((2,) * 8, 4), ((2, 3, 5, 9, 12), 3),
                                        ((2, 3), 1)],
                         ids=["binary-n8-c4", "mixed-c3", "c1"])
def test_param_set_caches_the_log_of_its_values(arities, c):
    # The E pass and log_prior read the cached log in place of np.log.
    for how, params in _param_sets(ls.ModelSpec(arities, c)).items():
        cached = params.log_values
        assert cached is params.log_values, how
        assert np.array_equal(cached, np.log(params.values)), how
        assert cached.shape == params.values.shape, how


@pytest.mark.parametrize("arities, c", [((2,) * 8, 4), ((2, 3, 5, 9, 12), 3),
                                        ((12, 2, 9, 3), 9), ((2, 3), 1)])
def test_layout_indices_match_the_tables(arities, c):
    spec = ls.ModelSpec(arities, c)
    layout = spec.layout
    model = ls.generate_model(spec, ls.SeededStream(34, 0))
    v = model.values
    assert np.array_equal(v[layout.block],
                          np.concatenate(model.leaves, axis=-1))
    assert np.array_equal(
        v[layout.last],
        np.concatenate([t[..., -1].ravel() for t in model.tables]))
    assert np.array_equal(
        v[layout.free],
        np.concatenate([t[..., :-1].ravel() for t in model.tables]))
