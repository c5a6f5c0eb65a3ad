"""Synthetic uniform-rectangular-array (URA) channel scenes.

A scene is a set of scatterer clusters in front of a base-station URA. Each
generated channel vector is a superposition of plane-wave steering vectors
whose angles are Gaussian perturbations around one randomly drawn cluster
center, with i.i.d. complex Gaussian path gains. The cluster geometry is a
deterministic function of the scene seed, so several datasets drawn with
different sample seeds share one propagation environment.

Datasets are persisted in a little-endian binary container (magic ``LFBD``)
holding interleaved 32-bit float real/imag pairs; in-memory samples use
complex64 so that save/load round trips are bit exact.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .config import read_fields, read_kv
from .formats import DimensionError, FileFormatError, expect_magic, read_exact

DATASET_MAGIC = b"LFBD"
DATASET_VERSION = 1

# Sector in which cluster centers are placed (radians). Azimuth covers a wide
# street-level sector, elevation a narrow band around the array broadside.
_AZIMUTH_SECTOR = np.pi / 3.0
_ELEVATION_SECTOR = np.pi / 12.0

_GENERATION_BLOCK = 8192


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform rectangular array: counts and element spacings in wavelengths."""

    n_vert: int = 4
    n_horiz: int = 16
    spacing_vert: float = 1.0
    spacing_horiz: float = 0.5

    def __post_init__(self):
        if self.n_vert < 1 or self.n_horiz < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.spacing_vert <= 0 or self.spacing_horiz <= 0:
            raise ValueError("element spacings must be positive")

    @property
    def n(self):
        """Total number of array elements."""
        return self.n_vert * self.n_horiz


@dataclass(frozen=True)
class SceneConfig:
    """Cluster-based scattering scene in front of a URA.

    ``seed`` fixes the cluster centers (the scene identity); the per-sample
    randomness can be varied independently via ``generate_channels``.
    ``diffuse_power`` is the fraction of average channel energy carried by a
    spatially white diffuse field on top of the specular cluster paths; it
    keeps channel covariances well conditioned, as diffuse multipath does in
    measured data.
    """

    geometry: ArrayGeometry
    num_clusters: int = 16
    paths_per_cluster: int = 8
    azimuth_spread: float = 0.08
    elevation_spread: float = 0.03
    diffuse_power: float = 0.35
    seed: int = 0

    def __post_init__(self):
        if self.num_clusters < 1 or self.paths_per_cluster < 1:
            raise ValueError("num_clusters and paths_per_cluster must be >= 1")
        for spread in (self.azimuth_spread, self.elevation_spread):
            if not (0.0 <= spread < np.pi):
                raise ValueError("angular spreads must lie in [0, pi)")
        if not (0.0 <= self.diffuse_power < 1.0):
            raise ValueError("diffuse_power must lie in [0, 1)")


class ChannelDataset:
    """Immutable collection of complex channel vectors plus scene metadata.

    Samples are held as a complex64 matrix of shape (L, N), matching the
    32-bit storage precision of the on-disk container.
    """

    def __init__(self, samples, scene=None, normalized=False):
        arr = np.ascontiguousarray(np.asarray(samples), dtype=np.complex64)
        if arr.ndim != 2:
            raise ValueError("samples must be a 2-D (L, N) array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("dataset must contain at least one sample of dim >= 1")
        arr.setflags(write=False)
        self.samples = arr
        self.scene = scene
        self.normalized = bool(normalized)

    def __len__(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]


def steering_vector(geometry, elevation, azimuth):
    """URA plane-wave response, Kronecker of the vertical and horizontal factors.

    Angles are measured from array broadside: the vertical phase progression
    is driven by sin(elevation), the horizontal one by
    cos(elevation)*sin(azimuth). Entries have unit modulus, so the squared
    norm equals the number of elements.
    """
    if not (np.isfinite(elevation) and np.isfinite(azimuth)):
        raise ValueError("angles must be finite")
    return _steering_block(geometry, np.array([elevation]),
                           np.array([azimuth]))[0]


def _steering_block(geometry, elevations, azimuths):
    """Vectorized steering vectors for flat angle arrays; shape (M, N)."""
    u_vert = np.sin(elevations)
    u_horiz = np.cos(elevations) * np.sin(azimuths)
    phase_v = (
        2j * np.pi * geometry.spacing_vert
        * np.arange(geometry.n_vert)[None, :] * u_vert[:, None]
    )
    phase_h = (
        2j * np.pi * geometry.spacing_horiz
        * np.arange(geometry.n_horiz)[None, :] * u_horiz[:, None]
    )
    a_v = np.exp(phase_v)  # (M, n_vert)
    a_h = np.exp(phase_h)  # (M, n_horiz)
    return (a_v[:, :, None] * a_h[:, None, :]).reshape(len(elevations), -1)


def generate_channels(config, count, sample_seed=None):
    """Draw ``count`` channels from the scene described by ``config``.

    Cluster centers depend only on ``config.seed``; the per-sample draws
    (cluster choice, path angles, path gains) are controlled by
    ``sample_seed`` (default: the scene seed). Passing distinct sample seeds
    yields independent datasets from the same propagation environment, e.g.
    a training and an evaluation set.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    geometry = config.geometry
    if sample_seed is None:
        sample_seed = config.seed

    scene_rng = np.random.default_rng([int(config.seed), 0])
    az_centers = scene_rng.uniform(-_AZIMUTH_SECTOR, _AZIMUTH_SECTOR,
                                   config.num_clusters)
    el_centers = scene_rng.uniform(-_ELEVATION_SECTOR, _ELEVATION_SECTOR,
                                   config.num_clusters)

    sample_rng = np.random.default_rng([int(sample_seed), 1])
    n_paths = config.paths_per_cluster
    cluster_of = sample_rng.integers(0, config.num_clusters, size=count)
    az = (az_centers[cluster_of][:, None]
          + config.azimuth_spread * sample_rng.standard_normal((count, n_paths)))
    el = (el_centers[cluster_of][:, None]
          + config.elevation_spread * sample_rng.standard_normal((count, n_paths)))
    gains = (sample_rng.standard_normal((count, n_paths))
             + 1j * sample_rng.standard_normal((count, n_paths)))
    gains *= np.sqrt((1.0 - config.diffuse_power) / (2.0 * n_paths))

    samples = np.empty((count, geometry.n), dtype=np.complex128)
    for start in range(0, count, _GENERATION_BLOCK):
        stop = min(start + _GENERATION_BLOCK, count)
        block = stop - start
        steer = _steering_block(geometry, el[start:stop].ravel(),
                                az[start:stop].ravel())
        steer = steer.reshape(block, n_paths, geometry.n)
        samples[start:stop] = np.einsum("sp,spn->sn", gains[start:stop], steer)

    if config.diffuse_power > 0.0:
        diffuse = (sample_rng.standard_normal((count, geometry.n))
                   + 1j * sample_rng.standard_normal((count, geometry.n)))
        samples += np.sqrt(config.diffuse_power / 2.0) * diffuse

    return ChannelDataset(samples, scene=config, normalized=False)


def normalize_dataset(dataset):
    """Rescale all samples by one scalar so the mean of ||h||^2 equals N.

    The scale is computed in double precision and the result is re-quantized
    to the complex64 storage grid; a short fixed-point loop re-applies the
    correction until the constraint holds or the quantization floor is hit
    (only relevant for very small datasets).
    """
    x = dataset.samples.astype(np.complex128)
    target = float(dataset.dim)
    mean_sq = np.mean(np.sum(np.abs(x) ** 2, axis=1))
    if mean_sq == 0.0:
        raise ValueError("cannot normalize an all-zero dataset")
    for _ in range(8):
        if abs(mean_sq - target) <= 1e-12 * target:
            break
        x = (x * np.sqrt(target / mean_sq)).astype(np.complex64).astype(np.complex128)
        mean_sq = np.mean(np.sum(np.abs(x) ** 2, axis=1))
    return ChannelDataset(x, scene=dataset.scene, normalized=True)


def save_dataset(dataset, path):
    """Write the dataset to the ``LFBD`` binary container."""
    n_dim = dataset.dim
    n_samples = len(dataset)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<HIQB", DATASET_VERSION, n_dim, n_samples,
                             1 if dataset.normalized else 0))
        fh.write(np.ascontiguousarray(dataset.samples, dtype="<c8").tobytes())


def load_dataset(path):
    """Read a dataset written by :func:`save_dataset`.

    The container does not carry scene metadata, so ``scene`` is None on the
    returned dataset; supply geometry separately where it is needed.
    """
    with open(path, "rb") as fh:
        expect_magic(fh, DATASET_MAGIC)
        header = read_exact(fh, struct.calcsize("<HIQB"), "dataset header")
        version, n_dim, n_samples, norm_flag = struct.unpack("<HIQB", header)
        if version != DATASET_VERSION:
            raise FileFormatError(f"unsupported dataset version {version}")
        if n_dim < 1 or n_samples < 1:
            raise DimensionError(
                f"invalid dataset dimensions N={n_dim}, L={n_samples}")
        payload = read_exact(fh, 8 * n_dim * n_samples, "dataset payload")
        if fh.read(1):
            raise DimensionError("trailing bytes after declared payload")
    samples = np.frombuffer(payload, dtype="<c8").reshape(n_samples, n_dim)
    return ChannelDataset(samples, scene=None, normalized=bool(norm_flag))


def read_geometry(kv, base=ArrayGeometry()):
    """``base`` with the fields named by the array keys it pops off ``kv``."""
    return replace(base, **read_fields(ArrayGeometry, kv))


def load_scene_config(path):
    """Build a SceneConfig from a flat ``key = value`` file.

    Recognized keys: the array keys of :func:`read_geometry`, num_clusters,
    paths_per_cluster, azimuth_spread, elevation_spread, diffuse_power,
    seed. Missing keys fall back to the dataclass defaults; an unknown key
    raises ValueError.
    """
    kv = read_kv(path)
    geometry = read_geometry(kv)
    values = read_fields(SceneConfig, kv)
    if kv:
        raise ValueError(f"unknown scene config keys: {sorted(kv)}")
    return SceneConfig(geometry, **values)
