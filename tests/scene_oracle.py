"""Reference implementations for the channel data path, shared by tests.

``reference_generate_channels`` and ``reference_normalize_dataset`` keep an
earlier form of the scene generator and of normalization, which built the
steering tensor 8,192 rows at a time and the diffuse field and every
normalization pass as full-size temporaries. ``reference_save_dataset`` and
``reference_save_model`` keep the writers that serialized through a full
``tobytes()`` copy. The library's streaming versions must reproduce all
four byte for byte.
"""

import struct

import numpy as np

from limfb.gmm import MODEL_MAGIC, MODEL_VERSION, _model_record
from limfb.scene import (_AZIMUTH_SECTOR, _ELEVATION_SECTOR, DATASET_MAGIC,
                         DATASET_VERSION, ChannelDataset, _steering_block)

_GENERATION_BLOCK = 8192


def reference_generate_channels(config, count, sample_seed=None):
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


def reference_normalize_dataset(dataset):
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


def reference_save_dataset(dataset, path):
    """Write the dataset to the ``LFBD`` binary container."""
    n_dim = dataset.dim
    n_samples = len(dataset)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<HIQB", DATASET_VERSION, n_dim, n_samples,
                             1 if dataset.normalized else 0))
        fh.write(np.ascontiguousarray(dataset.samples, dtype="<c8").tobytes())


def reference_save_model(model, path):
    """Write a mixture to the ``LFBM`` binary container.

    The component count must be a power of two (the header stores the bit
    width B with K = 2^B). Full covariances are stored as upper triangles in
    complex f64; toeplitz models store the spectral vectors in f64 (the
    dictionary is implied by the geometry and is not persisted).
    """
    n_comp = model.n_components
    bits = int(round(np.log2(n_comp)))
    if 2 ** bits != n_comp:
        raise ValueError("can only serialize models whose K is a power of two")
    dim = model.dim
    records = np.empty(n_comp, dtype=_model_record(dim, model.constraint))
    records["weight"] = model.weights
    records["mean"] = model.means
    if model.constraint == "full":
        upper, cols = np.triu_indices(dim)
        records["triangle"] = model.covariances[:, upper, cols]
    else:
        records["spectrum"] = model.spectral
    flag = 0 if model.constraint == "full" else 1
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<HBIB", MODEL_VERSION, bits, dim, flag))
        fh.write(records.tobytes())
