import struct

import numpy as np
import pytest

from limfb.formats import BadMagicError, DimensionError, TruncatedError
from limfb.scene import (ArrayGeometry, ChannelDataset, SceneConfig,
                         generate_channels, load_dataset, load_scene_config,
                         normalize_dataset, save_dataset, steering_vector)


def test_steering_broadside_is_all_ones():
    geom = ArrayGeometry(2, 2, 0.5, 0.5)
    np.testing.assert_allclose(steering_vector(geom, 0.0, 0.0),
                               np.ones(4), atol=1e-15)


def test_steering_matches_hand_expanded_kronecker():
    # horizontal direction cosine 1 (azimuth pi/2), elevation cosine 0
    geom = ArrayGeometry(2, 2, 0.5, 0.5)
    got = steering_vector(geom, 0.0, np.pi / 2)
    a_vert = np.array([1.0, 1.0])
    a_horiz = np.array([1.0, np.exp(1j * np.pi)])
    np.testing.assert_allclose(got, np.kron(a_vert, a_horiz), atol=1e-12)


def test_steering_norm_is_antenna_count():
    geom = ArrayGeometry(3, 5, 1.0, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        el, az = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        vec = steering_vector(geom, el, az)
        assert abs(np.sum(np.abs(vec) ** 2) - geom.n) < 1e-10


def test_steering_rejects_nonfinite_angles():
    geom = ArrayGeometry(2, 2)
    with pytest.raises(ValueError):
        steering_vector(geom, np.nan, 0.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 4)
    with pytest.raises(ValueError):
        ArrayGeometry(2, 4, spacing_horiz=0.0)


def test_generation_is_deterministic(desk_scene):
    a = generate_channels(desk_scene, 256, sample_seed=5)
    b = generate_channels(desk_scene, 256, sample_seed=5)
    assert np.array_equal(a.samples, b.samples)
    c = generate_channels(desk_scene, 256, sample_seed=6)
    assert not np.array_equal(a.samples, c.samples)


def test_generation_rejects_zero_count(desk_scene):
    with pytest.raises(ValueError):
        generate_channels(desk_scene, 0)


def test_single_path_scene_gives_rank_one_samples():
    geom = ArrayGeometry(2, 4)
    scene = SceneConfig(geom, num_clusters=1, paths_per_cluster=1,
                        azimuth_spread=0.0, elevation_spread=0.0,
                        diffuse_power=0.0, seed=3)
    ds = generate_channels(scene, 50)
    ref = ds.samples[0] / np.linalg.norm(ds.samples[0])
    for h in ds.samples:
        # every sample is a complex multiple of the same steering vector
        coherence = abs(np.vdot(ref, h)) / np.linalg.norm(h)
        assert coherence > 1.0 - 1e-5


def _beamspace_circular_spread(power, n_beams):
    """Circular std of a beam-power profile on the DFT index circle."""
    angles = 2.0 * np.pi * np.arange(n_beams) / n_beams
    resultant = np.sum(power * np.exp(1j * angles)) / np.sum(power)
    return np.sqrt(-2.0 * np.log(max(abs(resultant), 1e-12)))


def test_default_scene_has_wider_horizontal_spread(desk_scene):
    geom = desk_scene.geometry
    ds = generate_channels(desk_scene, 100_000, sample_seed=4)
    x = ds.samples.astype(np.complex128)
    grid = x.reshape(len(ds), geom.n_vert, geom.n_horiz)
    beams = np.fft.fft(np.fft.fft(grid, axis=1), axis=2)
    power = np.mean(np.abs(beams) ** 2, axis=0)
    spread_v = _beamspace_circular_spread(power.sum(axis=1), geom.n_vert)
    spread_h = _beamspace_circular_spread(power.sum(axis=0), geom.n_horiz)
    assert spread_h > spread_v


def test_normalize_hits_target_mean(desk_scene):
    ds = generate_channels(desk_scene, 5000, sample_seed=9)
    normed = normalize_dataset(ds)
    energy = np.sum(np.abs(normed.samples.astype(np.complex128)) ** 2, axis=1)
    assert abs(energy.mean() - ds.dim) <= 1e-9 * ds.dim
    assert normed.normalized


def test_normalize_two_sample_oracle():
    #||h||^2 of {2, 6} already averages to N=4: the scale is exactly one
    samples = np.array([[1, 1, 0, 0], [2, 1, 1, 0]], dtype=np.complex64)
    ds = ChannelDataset(samples)
    normed = normalize_dataset(ds)
    energy = np.sum(np.abs(normed.samples) ** 2, axis=1)
    assert abs(energy.mean() - 4.0) < 1e-12
    np.testing.assert_array_equal(normed.samples, samples)


def test_normalize_is_scale_invariant(desk_scene):
    ds = generate_channels(desk_scene, 500, sample_seed=9)
    scaled = ChannelDataset(3.0 * ds.samples.astype(np.complex128),
                            scene=ds.scene)
    a = normalize_dataset(ds)
    b = normalize_dataset(scaled)
    np.testing.assert_allclose(b.samples, a.samples, rtol=1e-6, atol=1e-9)


def test_normalize_is_idempotent(desk_scene):
    ds = normalize_dataset(generate_channels(desk_scene, 2000, sample_seed=9))
    again = normalize_dataset(ds)
    np.testing.assert_allclose(again.samples, ds.samples, rtol=1e-12)


def test_normalize_rejects_all_zero():
    ds = ChannelDataset(np.zeros((3, 4), dtype=np.complex64))
    with pytest.raises(ValueError):
        normalize_dataset(ds)


def test_dataset_roundtrip_is_bitwise(tmp_path, desk_scene):
    ds = generate_channels(desk_scene, 64, sample_seed=2)
    path = tmp_path / "scene.lfbd"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.samples, ds.samples)
    assert loaded.normalized == ds.normalized
    save_dataset(loaded, path)
    again = load_dataset(path)
    assert np.array_equal(again.samples, loaded.samples)


def test_dataset_file_size_matches_format(tmp_path):
    # header: 4 magic + 2 version + 4 N + 8 L + 1 flag; payload L*N*2 floats
    ds = ChannelDataset(np.ones((3, 2), dtype=np.complex64))
    path = tmp_path / "tiny.lfbd"
    save_dataset(ds, path)
    assert path.stat().st_size == 19 + 3 * 2 * 8


def test_dataset_load_errors_are_distinct(tmp_path):
    ds = ChannelDataset(np.ones((3, 2), dtype=np.complex64))
    path = tmp_path / "data.lfbd"
    save_dataset(ds, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.lfbd"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagicError):
        load_dataset(bad_magic)

    truncated = tmp_path / "short.lfbd"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(TruncatedError):
        load_dataset(truncated)

    trailing = tmp_path / "long.lfbd"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(DimensionError):
        load_dataset(trailing)


def test_dataset_load_refuses_a_count_beyond_the_file(tmp_path):
    # L = 2^62 samples declared; the payload check comes before any read
    path = tmp_path / "huge.lfbd"
    save_dataset(ChannelDataset(np.ones((3, 2), dtype=np.complex64)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:10] + struct.pack("<Q", 2 ** 62) + raw[18:])
    with pytest.raises(TruncatedError, match="expected"):
        load_dataset(path)


def test_scene_config_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text("n_vert = 2\nn_horiz = 8\nnum_clusters = 4\n"
                    "azimuth_spread = 0.1\nseed = 42\n")
    cfg = load_scene_config(path)
    assert cfg.geometry.n == 16
    assert cfg.num_clusters == 4
    assert cfg.azimuth_spread == 0.1
    assert cfg.seed == 42


def test_scene_config_reads_every_field(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text("spacing_vert = 0.75\nspacing_horiz = 0.25\n"
                    "paths_per_cluster = 3\nelevation_spread = 0.02\n"
                    "diffuse_power = 0.1\n")
    cfg = load_scene_config(path)
    assert cfg.geometry == ArrayGeometry(4, 16, 0.75, 0.25)
    assert (cfg.paths_per_cluster, cfg.elevation_spread,
            cfg.diffuse_power) == (3, 0.02, 0.1)
    assert (cfg.num_clusters, cfg.azimuth_spread, cfg.seed) == (16, 0.08, 0)


@pytest.mark.parametrize("line", ["num_cluster = 4", "geometry = 2x8",
                                  "profile = desk"])
def test_scene_config_rejects_unknown_keys(tmp_path, line):
    path = tmp_path / "scene.cfg"
    path.write_text(f"n_vert = 2\n{line}\n")
    with pytest.raises(ValueError, match=line.split()[0]):
        load_scene_config(path)


def test_scene_config_validation(desk_geometry):
    with pytest.raises(ValueError):
        SceneConfig(desk_geometry, azimuth_spread=np.pi)
    with pytest.raises(ValueError):
        SceneConfig(desk_geometry, num_clusters=0)
    with pytest.raises(ValueError):
        SceneConfig(desk_geometry, diffuse_power=1.0)
