import numpy as np
import pytest

from cpgsnn.encoder import (
    CPGPEConfig,
    cpg_pe_at,
    export_pe_csv,
    float_pe,
    generate_pe,
    position_repetition_rate,
    random_pe,
    repetition_rate,
)


class TestConfig:
    def test_defaults(self):
        cfg = CPGPEConfig()
        assert cfg.width == 40
        assert cfg.pair_frequencies().shape == (20,)

    def test_frequencies_are_geometric(self):
        cfg = CPGPEConfig(n_pairs=4, tau=16.0, eta=1.0)
        w = cfg.pair_frequencies()
        # eta / tau^(i/N) for i=1..N, so ratios are constant tau^(-1/N)
        assert np.allclose(w, [16 ** -0.25, 16 ** -0.5, 16 ** -0.75, 1 / 16.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pairs": 0},
            {"tau": 1.0},
            {"eta": 0.0},
            {"v_thres": 1.0},
            {"v_thres": -1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CPGPEConfig(**kwargs)


class TestCodeValues:
    def test_t_zero_all_pairs_fire_cos_only(self):
        # at t=0 the cos potential is 1 >= v_thres and sin is 0 < v_thres
        cfg = CPGPEConfig(n_pairs=3, v_thres=0.8)
        code = cpg_pe_at(0, cfg)
        assert np.array_equal(code, [1, 0, 1, 0, 1, 0])

    def test_threshold_tie_spikes(self):
        # v_thres=0 makes sin(0)=0 a tie, which must emit 1
        cfg = CPGPEConfig(n_pairs=2, v_thres=0.0)
        code = cpg_pe_at(0, cfg)
        assert np.array_equal(code, [1, 1, 1, 1])

    def test_hand_computed_code(self):
        cfg = CPGPEConfig(n_pairs=2, tau=4.0, eta=1.0, v_thres=0.5)
        w = cfg.pair_frequencies()
        t = 3
        expected = []
        for wi in w:
            expected.append(1 if np.cos(wi * t) >= 0.5 else 0)
            expected.append(1 if np.sin(wi * t) >= 0.5 else 0)
        assert np.array_equal(cpg_pe_at(t, cfg), expected)

    def test_vectorized_matches_scalar(self):
        cfg = CPGPEConfig(n_pairs=5)
        ts = np.arange(40)
        batch = cpg_pe_at(ts, cfg)
        assert batch.shape == (40, 10)
        for t in ts:
            assert np.array_equal(batch[t], cpg_pe_at(int(t), cfg))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            cpg_pe_at(-1, CPGPEConfig())


class TestGeneratePE:
    def test_shape_and_binarity(self):
        cfg = CPGPEConfig(n_pairs=6)
        pe = generate_pe(4, 10, cfg)
        assert pe.shape == (4, 1, 10, 12)
        assert set(np.unique(pe.bits)) <= {0, 1}

    def test_step_major_flattening(self):
        cfg = CPGPEConfig(n_pairs=3)
        pe = generate_pe(3, 5, cfg)
        for s in range(3):
            for p in range(5):
                assert np.array_equal(
                    pe.bits[s, 0, p], cpg_pe_at(s * 5 + p, cfg)
                )

    def test_bad_extent_rejected(self):
        with pytest.raises(ValueError):
            generate_pe(0, 5, CPGPEConfig())


class TestRepetitionRate:
    def test_all_unique(self):
        assert repetition_rate(np.eye(4, dtype=np.uint8)) == 0.0

    def test_all_identical(self):
        assert repetition_rate(np.ones((5, 3), dtype=np.uint8)) == 1.0

    def test_partial(self):
        codes = np.array([[0, 0], [0, 0], [0, 1], [1, 0]], dtype=np.uint8)
        assert repetition_rate(codes) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            repetition_rate(np.zeros((0, 3)))

    def test_reference_settings_positions_all_distinct(self):
        # per-position representations (stacked over the 4 steps) never
        # collide at the reference resolution
        cfg = CPGPEConfig(n_pairs=20, tau=10000.0, eta=2 * np.pi, v_thres=0.8)
        pe = generate_pe(4, 160, cfg)
        assert position_repetition_rate(pe) == 0.0

    def test_reference_settings_flat_code_collisions(self):
        # the individual 40-bit codes do collide: four adjacent index pairs
        # give identical codes, so the stricter per-step comparison matters
        cfg = CPGPEConfig(n_pairs=20, tau=10000.0, eta=2 * np.pi, v_thres=0.8)
        codes = cpg_pe_at(np.arange(640), cfg)
        assert repetition_rate(codes) == pytest.approx(8 / 640)

    def test_position_rate_reduces_to_flat_rate_for_single_step(self):
        cfg = CPGPEConfig(n_pairs=4, tau=50.0, eta=1.0, v_thres=0.5)
        pe = generate_pe(1, 30, cfg)
        flat = pe.bits.reshape(30, cfg.width)
        assert position_repetition_rate(pe) == repetition_rate(flat)


class TestBaselines:
    def test_float_pe_values(self):
        pe = float_pe(3, 4)
        w = 1.0 / 10000.0 ** np.array([0.0, 0.5])
        expected = [np.sin(3 * w[0]), np.cos(3 * w[0]),
                    np.sin(3 * w[1]), np.cos(3 * w[1])]
        assert np.allclose(pe, expected, atol=1e-15)

    def test_float_pe_position_zero(self):
        pe = float_pe(0, 8)
        assert np.array_equal(pe, np.tile([0.0, 1.0], 4))

    def test_float_pe_odd_width_rejected(self):
        with pytest.raises(ValueError):
            float_pe(1, 5)

    def test_random_pe_deterministic(self):
        a = random_pe(10, 6, 0.3, seed=7)
        b = random_pe(10, 6, 0.3, seed=7)
        c = random_pe(10, 6, 0.3, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert set(np.unique(a)) <= {0, 1}

    def test_random_pe_prob_bounds(self):
        with pytest.raises(ValueError):
            random_pe(4, 4, 1.5, seed=0)


def test_export_pe_csv_round_trip(tmp_path):
    cfg = CPGPEConfig(n_pairs=2)
    pe = generate_pe(2, 3, cfg)
    path = tmp_path / "raster.csv"
    export_pe_csv(pe, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,ch0,ch1,ch2,ch3"
    assert len(lines) == 1 + 6
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == t
        assert [int(c) for c in cells[1:]] == list(cpg_pe_at(t, cfg))
