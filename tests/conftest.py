"""Shared fixtures: the desk-scale scene and mixture fits, built once."""

import pytest

from limfb.gmm import EmOptions, GmmModel, fit_em
from limfb.scene import (ArrayGeometry, SceneConfig, generate_channels,
                         normalize_dataset)

DESK_GEOMETRY = ArrayGeometry(2, 8, 1.0, 0.5)
DESK_SCENE = SceneConfig(DESK_GEOMETRY, seed=7)


@pytest.fixture(scope="session")
def desk_geometry():
    return DESK_GEOMETRY


@pytest.fixture(scope="session")
def desk_scene():
    return DESK_SCENE


@pytest.fixture(scope="session")
def desk_train():
    return normalize_dataset(generate_channels(DESK_SCENE, 10_000, sample_seed=1))


@pytest.fixture(scope="session")
def desk_eval():
    return normalize_dataset(generate_channels(DESK_SCENE, 2_000, sample_seed=2))


@pytest.fixture(scope="session")
def desk_model(desk_train):
    # exactly 50 iterations: the acceptance suite inspects the LL sequence
    options = EmOptions(max_iters=50, rel_loglik_tol=0.0, seed=3)
    return fit_em(desk_train, 16, "full", options, geometry=DESK_GEOMETRY)


@pytest.fixture(scope="session")
def desk_tmodel(desk_train):
    options = EmOptions(max_iters=50, rel_loglik_tol=0.0, seed=3)
    return fit_em(desk_train, 16, "toeplitz", options, geometry=DESK_GEOMETRY)


@pytest.fixture(scope="session")
def cold_copy():
    """A function returning an equal GmmModel with nothing cached: the
    session models keep whatever earlier tests derived from them."""
    def copy(model):
        return GmmModel(model.weights, model.means, model.covariances,
                        model.constraint, model.spectral, model.geometry)
    return copy
