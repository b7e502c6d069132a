import numpy as np
import pytest

import latentscore as ls
from latentscore.numerics import gamma_variates
from latentscore.synth_data import DatasetParseError


class TestStatSet:
    # The shape rule is shared by all three table containers.
    @pytest.mark.parametrize("cls", [ls.ParamSet, ls.PriorSet, ls.StatSet],
                             ids=lambda cls: cls.__name__)
    def test_validation(self, cls):
        spec = ls.binary_spec(2, 2)
        root, leaf = np.full(2, 0.5), np.full((2, 2), 0.5)
        cls(spec, root, [leaf, leaf])
        with pytest.raises(ValueError):
            cls(spec, np.array([1.0, -0.5]), [leaf, leaf])
        with pytest.raises(ValueError, match="root has shape"):
            cls(spec, np.full(1, 0.5), [leaf, leaf])
        with pytest.raises(ValueError, match="has 1 leaf tables"):
            cls(spec, root, [leaf])
        with pytest.raises(ValueError, match="leaf table 1 has shape"):
            cls(spec, root, [leaf, np.full((2, 3), 0.5)])

    def test_n_samples_and_integrality(self):
        spec = ls.binary_spec(1, 2)
        s = ls.StatSet(spec, np.array([2.0, 3.0]), [np.array([[1.0, 1.0], [2.0, 1.0]])])
        assert s.n_samples == pytest.approx(5.0)
        assert s.is_integral
        frac = ls.StatSet(spec, np.array([2.5, 2.5]), [np.array([[1.25, 1.25], [1.25, 1.25]])])
        assert not frac.is_integral


class TestGenerateModel:
    def test_deterministic(self):
        spec = ls.ModelSpec((2, 3), 4)
        m1 = ls.generate_model(spec, ls.SeededStream(21, 5))
        m2 = ls.generate_model(spec, ls.SeededStream(21, 5))
        assert np.array_equal(m1.root, m2.root)
        for a, b in zip(m1.leaves, m2.leaves):
            assert np.array_equal(a, b)
        m3 = ls.generate_model(spec, ls.SeededStream(21, 6))
        assert not np.array_equal(m1.root, m3.root)

    def test_c1_root_is_unit(self):
        spec = ls.binary_spec(2, 1)
        m = ls.generate_model(spec, ls.SeededStream(22, 0))
        assert np.array_equal(m.root, [1.0])

    def test_rows_are_distributions(self):
        spec = ls.ModelSpec((4, 2, 3), 3)
        m = ls.generate_model(spec, ls.SeededStream(23, 0))
        assert m.root.sum() == pytest.approx(1.0, abs=1e-12)
        for t in m.leaves:
            assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(t > 0)

    @pytest.mark.parametrize("spec", [ls.ModelSpec((2, 3, 5, 9, 12), 3),
                                      ls.ModelSpec((2, 3), 1)],
                             ids=["mixed-c3", "c1"])
    def test_tables_match_row_by_row_draws(self, spec):
        # Every seed relies on this stream order: the root, then each leaf
        # table row by row, as if each row were its own Dirichlet draw.
        m = ls.generate_model(spec, ls.SeededStream(33, 4))
        rng = ls.SeededStream(33, 4)
        c = spec.hidden_arity
        root = ls.sample_dirichlet(np.ones(c), rng) if c > 1 else np.ones(1)
        assert np.array_equal(m.root, root)
        for r, table in zip(spec.observed_arities, m.leaves):
            rows = [ls.sample_dirichlet(np.ones(r), rng) for _ in range(c)]
            assert np.array_equal(table, np.array(rows))

    @pytest.mark.parametrize("spec", [ls.binary_spec(8, 4),
                                      ls.ModelSpec((2, 3, 5, 9, 12), 3),
                                      ls.ModelSpec((2, 3), 1)],
                             ids=["n8-c4", "mixed-c3", "c1"])
    def test_stack_of_streams_equals_one_draw_per_stream(self, spec,
                                                         monkeypatch):
        # Copy b of a stack is the set that child b draws alone.
        rng = ls.SeededStream(34, 0)
        checks = []
        check = ls.ParamSet._check_values

        def counted(self, values):
            checks.append(values.shape)
            return check(self, values)

        monkeypatch.setattr(ls.ParamSet, "_check_values", counted)
        stack = ls.generate_model(spec, rng, copies=16)
        assert checks == [(16, spec.layout.size)]
        for b in range(16):
            alone = ls.generate_model(spec, rng.child(b))
            assert np.array_equal(stack.values[b], alone.values)

    @pytest.mark.parametrize("spec", [ls.binary_spec(8, 4),
                                      ls.ModelSpec((2, 3, 5, 9, 12), 3),
                                      ls.ModelSpec((2, 3), 1)],
                             ids=["n8-c4", "mixed-c3", "c1"])
    @pytest.mark.parametrize("copies", [None, 1, 16],
                             ids=["stream", "one-of-many", "many"])
    def test_draw_equals_gamma_variates_on_ones(self, spec, copies):
        # The recipe every seed was drawn with: per stream (the stream
        # itself, or child b for copy b), gamma_variates on a shape array
        # of ones (the root skipped at c=1), then every row normalized.
        rng = ls.SeededStream(36, 0)
        got = ls.generate_model(spec, rng, copies=copies)
        streams = ([ls.SeededStream(36, 0)] if copies is None
                   else [rng.child(b) for b in range(copies)])
        skip = int(spec.hidden_arity == 1)
        draws = np.ones((len(streams), spec.layout.size))
        for row, stream in zip(draws, streams):
            row[skip:] = gamma_variates(np.ones(row.size - skip), stream)
        want = spec.layout.rows.normalize(draws)
        assert np.array_equal(got.values,
                              want[0] if copies is None else want)

    @pytest.mark.parametrize("built", [False, True], ids=["fresh", "built"])
    def test_stacked_draw_leaves_the_stream_untouched(self, built):
        rng, own = ls.SeededStream(37, 3), ls.SeededStream(37, 3)
        if built:
            rng.generator.random(2)
            own.generator.random(2)
        ls.generate_model(ls.binary_spec(8, 4), rng, copies=8)
        assert (rng.generator.bit_generator.state
                == own.generator.bit_generator.state)

    @pytest.mark.parametrize("copies", [0, -1])
    def test_copies_below_one_rejected(self, copies):
        with pytest.raises(ValueError, match="copies"):
            ls.generate_model(ls.binary_spec(2, 2), ls.SeededStream(38, 0),
                              copies=copies)

    def test_flat_dirichlet_mean(self):
        # averaging many independently generated root rows approaches uniform
        spec = ls.binary_spec(1, 4)
        roots = np.array([ls.generate_model(spec, ls.SeededStream(24, i)).root
                          for i in range(1500)])
        assert np.allclose(roots.mean(axis=0), 0.25, atol=0.02)


class TestSampleDataset:
    def test_deterministic(self):
        spec = ls.binary_spec(3, 2)
        model = ls.generate_model(spec, ls.SeededStream(25, 0))
        d1 = ls.sample_dataset(model, 40, ls.SeededStream(25, 1))
        d2 = ls.sample_dataset(model, 40, ls.SeededStream(25, 1))
        assert np.array_equal(d1.rows, d2.rows)
        assert np.array_equal(d1.hidden, d2.hidden)

    def test_complete_with_hidden_column(self):
        spec = ls.binary_spec(2, 3)
        model = ls.generate_model(spec, ls.SeededStream(26, 0))
        data = ls.sample_dataset(model, 10, ls.SeededStream(26, 1))
        assert data.is_complete
        assert data.n_samples == 10
        assert np.all(data.hidden >= 0) and np.all(data.hidden < 3)
        assert np.all(np.asarray(data.rows) >= 0)
        assert np.all(np.asarray(data.rows) < 2)

    def test_degenerate_rows_force_values(self):
        spec = ls.binary_spec(1, 2)
        model = ls.ParamSet(spec, np.array([1.0, 1e-300]),
                            [np.array([[1e-300, 1.0], [1.0, 1e-300]])])
        data = ls.sample_dataset(model, 50, ls.SeededStream(27, 0))
        assert np.all(data.hidden == 0)
        assert all(row[0] == 1 for row in data.rows)

    def test_empirical_frequencies(self):
        spec = ls.binary_spec(1, 1)
        model = ls.ParamSet(spec, np.array([1.0]), [np.array([[0.3, 0.7]])])
        data = ls.sample_dataset(model, 10000, ls.SeededStream(28, 0))
        ones = np.mean([row[0] for row in data.rows])
        assert ones == pytest.approx(0.7, abs=0.02)

    def test_n_samples_zero_rejected(self):
        spec = ls.binary_spec(1, 2)
        model = ls.generate_model(spec, ls.SeededStream(29, 0))
        with pytest.raises(ValueError):
            ls.sample_dataset(model, 0, ls.SeededStream(29, 1))


class TestStripHidden:
    def test_contract(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(30, 0))
        full = ls.sample_dataset(model, 12, ls.SeededStream(30, 1))
        bare = ls.strip_hidden(full)
        assert not bare.is_complete
        assert bare.hidden is None
        assert np.array_equal(bare.rows, full.rows)
        assert bare.spec == full.spec

    def test_double_strip_rejected(self):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(31, 0))
        bare = ls.strip_hidden(ls.sample_dataset(model, 6, ls.SeededStream(31, 1)))
        with pytest.raises(ValueError):
            ls.strip_hidden(bare)


class TestSufficientStats:
    def test_hand_case(self):
        spec = ls.binary_spec(2, 2)
        data = ls.Dataset(spec, [[0, 1], [1, 1], [0, 0]], hidden=[0, 1, 0])
        stats = ls.sufficient_stats(data)
        assert np.array_equal(stats.root, [2, 1])
        assert np.array_equal(stats.leaves[0], [[2, 0], [0, 1]])
        assert np.array_equal(stats.leaves[1], [[1, 1], [0, 1]])
        assert stats.is_integral
        assert stats.n_samples == 3

    def test_requires_complete(self):
        spec = ls.binary_spec(2, 2)
        bare = ls.Dataset(spec, [[0, 1]])
        with pytest.raises(ValueError):
            ls.sufficient_stats(bare)

    def test_totals(self, rng):
        spec = ls.ModelSpec((2, 3, 2), 3)
        model = ls.generate_model(spec, ls.SeededStream(32, 0))
        data = ls.sample_dataset(model, 37, ls.SeededStream(32, 1))
        stats = ls.sufficient_stats(data)
        assert stats.root.sum() == 37
        for t in stats.leaves:
            assert t.sum() == 37


class TestDatasetFiles:
    def test_round_trip_incomplete(self, tmp_path):
        spec = ls.ModelSpec((2, 4), 2)
        model = ls.generate_model(spec, ls.SeededStream(33, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 15, ls.SeededStream(33, 1)))
        path = tmp_path / "data.csv"
        ls.write_dataset(data, path)
        back = ls.read_dataset(path)
        assert back.spec.observed_arities == spec.observed_arities
        assert not back.is_complete
        assert np.array_equal(back.rows, data.rows)

    def test_round_trip_complete(self, tmp_path):
        spec = ls.binary_spec(3, 4)
        model = ls.generate_model(spec, ls.SeededStream(34, 0))
        data = ls.sample_dataset(model, 9, ls.SeededStream(34, 1))
        path = tmp_path / "data.csv"
        ls.write_dataset(data, path)
        back = ls.read_dataset(path)
        assert back.is_complete
        assert np.array_equal(back.rows, data.rows)
        assert np.array_equal(back.hidden, data.hidden)

    def test_write_is_deterministic(self, tmp_path):
        spec = ls.binary_spec(2, 2)
        model = ls.generate_model(spec, ls.SeededStream(35, 0))
        data = ls.strip_hidden(ls.sample_dataset(model, 8, ls.SeededStream(35, 1)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ls.write_dataset(data, p1)
        ls.write_dataset(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_value_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0,1\n0,-1\n", encoding="utf-8")
        with pytest.raises(DatasetParseError) as err:
            ls.read_dataset(path)
        assert "line 3" in str(err.value)

    def test_negative_hidden_state_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,hidden\n0,1,-1\n1,0,-1\n", encoding="utf-8")
        with pytest.raises(DatasetParseError) as err:
            ls.read_dataset(path)
        assert "line 2" in str(err.value)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0,1\n0\n", encoding="utf-8")
        with pytest.raises(DatasetParseError) as err:
            ls.read_dataset(path)
        assert "line 3" in str(err.value)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0,one\n", encoding="utf-8")
        with pytest.raises(DatasetParseError):
            ls.read_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n", encoding="utf-8")
        with pytest.raises(DatasetParseError) as err:
            ls.read_dataset(path)
        assert "header" in str(err.value)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2\n", encoding="utf-8")
        with pytest.raises(DatasetParseError):
            ls.read_dataset(path)

    def test_inferred_arities_cover_observed_values(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n0,2\n1,0\n", encoding="utf-8")
        back = ls.read_dataset(path)
        assert back.spec.observed_arities == (2, 3)
