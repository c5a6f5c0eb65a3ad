import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limfb import gmm, toeplitz
from limfb.gmm import EmOptions, fit_em
from limfb.scene import (ArrayGeometry, SceneConfig, generate_channels,
                         normalize_dataset)
from limfb.toeplitz import (check_structure, realize_spectral,
                            toeplitz_mstep, toeplitz_start)

from toeplitz_oracle import (ascent_terms, dense_dictionary, objective,
                             reference_ascent_step, reference_forms,
                             reference_realize, reference_start)

GEOM = ArrayGeometry(2, 2, 1.0, 0.5)  # N=4, 16 atoms
_SEEDS = st.integers(0, 2**32 - 1)


def _hermitian(rng, n, count):
    raw = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal(
        (count, n, n))
    return raw + raw.conj().transpose(0, 2, 1)


def _psd_scatter(rng, n, rank):
    raw = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return raw @ raw.conj().T / rank


def _precision(spectrum, geometry):
    return np.linalg.inv(realize_spectral(spectrum, geometry))


def _step(spectrum, scatter, geometry, floor):
    """One ascent step of a single spectrum from its own precision."""
    return toeplitz_mstep(spectrum[None], _precision(spectrum, geometry)[None],
                          np.asarray(scatter)[None], geometry, floor)[0]


# -- FFT algebra against the dense dictionary --------------------------------

@settings(max_examples=150, deadline=None)
@given(n_vert=st.integers(1, 4), n_horiz=st.integers(1, 16),
       count=st.integers(1, 3), zeros=st.booleans(), seed=_SEEDS)
@example(n_vert=4, n_horiz=16, count=3, zeros=False, seed=0)
@example(n_vert=1, n_horiz=1, count=1, zeros=True, seed=0)
def test_fft_realization_and_forms_match_dense_dictionary(
        n_vert, n_horiz, count, zeros, seed):
    geometry = ArrayGeometry(n_vert, n_horiz)
    dictionary = dense_dictionary(geometry)
    rng = np.random.default_rng(seed)
    spectra = rng.uniform(0.0, 2.0, (count, 4 * geometry.n))
    if zeros:
        spectra[:, rng.random(4 * geometry.n) < 0.5] = 0.0
    realized = realize_spectral(spectra, geometry)
    mats = _hermitian(rng, geometry.n, count)
    forms = [toeplitz.spectral_forms(mat, geometry) for mat in mats]
    for k in range(count):
        dense = reference_realize(spectra[k], dictionary)
        scale = max(np.abs(dense).max(), 1e-300)
        assert np.abs(realized[k] - dense).max() <= 1e-13 * scale
        # one spectrum realizes as it does in a stack; every lag is copied,
        # so the result is exactly Hermitian and exactly block-Toeplitz
        assert (realize_spectral(spectra[k], geometry).tobytes()
                == realized[k].tobytes())
        assert np.array_equal(realized[k], realized[k].conj().T)
        assert check_structure(realized[k], geometry, rtol=0.0)
        dense_forms = reference_forms(mats[k], dictionary)
        assert (np.abs(forms[k] - dense_forms).max()
                <= 1e-12 * np.abs(dense_forms).max())


# -- the ascent step ---------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(n_vert=st.integers(1, 4), n_horiz=st.integers(1, 16),
       count=st.integers(1, 3), rank=st.integers(1, 70),
       log_floor=st.floats(-6.0, -1.0), seed=_SEEDS)
@example(n_vert=4, n_horiz=16, count=2, rank=70, log_floor=-6.0, seed=0)
def test_ascent_step_matches_dense_reference(n_vert, n_horiz, count, rank,
                                             log_floor, seed):
    geometry = ArrayGeometry(n_vert, n_horiz)
    dictionary = dense_dictionary(geometry)
    rng = np.random.default_rng(seed)
    floor = 10.0 ** log_floor
    spectra = floor + rng.uniform(0.0, 2.0, (count, 4 * geometry.n))
    scatters = np.array([_psd_scatter(rng, geometry.n, rank)
                         for _ in range(count)])
    precisions = np.array([_precision(c, geometry) for c in spectra])
    got = toeplitz_mstep(spectra, precisions, scatters, geometry, floor)
    assert got.shape == spectra.shape
    assert np.all(got >= floor)
    for k in range(count):
        expected = reference_ascent_step(spectra[k], scatters[k],
                                         dictionary, floor)
        np.testing.assert_allclose(got[k], expected, rtol=1e-9,
                                   atol=1e-9 * np.abs(expected).max())


@settings(max_examples=200, deadline=None)
@given(n_vert=st.integers(1, 3), n_horiz=st.integers(1, 4),
       kind=st.sampled_from(["psd", "zero"]), rank=st.integers(1, 13),
       log_floor=st.floats(-6.0, 0.0), log_spread=st.floats(0.0, 4.0),
       seed=_SEEDS)
def test_ascent_step_never_lowers_q(n_vert, n_horiz, kind, rank, log_floor,
                                    log_spread, seed):
    # Q(C) = -log det C - tr(C^-1 S) is the Gaussian log-likelihood of a
    # scatter S; one EM step may not lower it beyond rounding
    geometry = ArrayGeometry(n_vert, n_horiz)
    dictionary = dense_dictionary(geometry)
    rng = np.random.default_rng(seed)
    floor = 10.0 ** log_floor
    scatter = (_psd_scatter(rng, geometry.n, rank) if kind == "psd"
               else np.zeros((geometry.n, geometry.n), dtype=complex))
    spectrum = floor + 10.0 ** rng.uniform(-log_spread, 0.0, 4 * geometry.n)
    stepped = _step(spectrum, scatter, geometry, floor)
    before = objective(spectrum, scatter, dictionary)
    after = objective(stepped, scatter, dictionary)
    assert after >= before - 1e-9 * (abs(before) + geometry.n)


@pytest.mark.parametrize("floor", [0.0, 1e-3])
@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (3, 4)])
def test_ascent_step_keeps_floored_atoms_at_the_floor(shape, floor):
    # the step needs no active set: an atom at the floor (c' = 0) stays
    # there, and every other one stays above it, whatever the scatter
    geometry = ArrayGeometry(*shape)
    n_atoms = 4 * geometry.n
    for seed in range(10):
        rng = np.random.default_rng(seed)
        spectrum = floor + rng.uniform(0.1, 2.0, n_atoms)
        floored = rng.random(n_atoms) < 0.3
        spectrum[floored] = floor
        scatter = (_psd_scatter(rng, geometry.n, 2) if seed % 2 else
                   _hermitian(rng, geometry.n, 1)[0])  # indefinite
        stepped = _step(spectrum, scatter, geometry, floor)
        assert np.array_equal(stepped[floored], spectrum[floored])
        assert np.all(stepped >= floor)
        if seed % 2:  # with a PSD scatter, every c' > 0 stays positive
            assert np.all(stepped[~floored] > floor)


@pytest.fixture
def solved_sizes(monkeypatch):
    """Orders of the systems np.linalg.solve gets from limfb.toeplitz."""
    sizes = []
    solve = toeplitz.np.linalg.solve

    def counting_solve(a, b):
        sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(toeplitz.np.linalg, "solve", counting_solve)
    return sizes


def test_feasible_scatter_makes_no_lu_solve(solved_sizes):
    # a spectrum in the range of the dictionary's Gram, realized: the start
    # and the steps that follow it solve no linear system and never lower Q
    dictionary = dense_dictionary(GEOM)
    rng = np.random.default_rng(1)
    gram = np.abs(dictionary @ dictionary.conj().T) ** 2
    c0 = gram @ rng.uniform(0.5, 1.5, 4 * GEOM.n)
    c0 *= 1.0 / c0.min()
    scatter = realize_spectral(c0, GEOM)
    spectra = [toeplitz_start(scatter, GEOM, floor=1e-8)[0]]
    for _ in range(5):
        spectra.append(_step(spectra[-1], scatter, GEOM, 1e-8))
    assert solved_sizes == []
    values = [objective(c, scatter, dictionary) for c in spectra]
    assert all(after >= before - 1e-12 * abs(before)
               for before, after in zip(values, values[1:]))
    assert np.all(spectra[-1] >= 1e-8)


@pytest.mark.parametrize("floor", [0.0, 1e-3])
@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (3, 4)])
def test_projection_never_solves_with_every_atom_free(solved_sizes, shape,
                                                      floor):
    # the step clamps at the floor where the active set solved: over PSD
    # and indefinite scatters it solves no system, with every atom free or
    # any fewer, and the indefinite ones drive some atoms to the floor
    geometry = ArrayGeometry(*shape)
    n_atoms = 4 * geometry.n
    clipping = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        spectrum = floor + rng.uniform(0.1, 2.0, n_atoms)
        scatter = (_psd_scatter(rng, geometry.n, 2) if seed % 2 else
                   _hermitian(rng, geometry.n, 1)[0])
        stepped = _step(spectrum, scatter, geometry, floor)
        assert solved_sizes == []
        assert np.all(stepped >= floor)
        clipping += bool(np.any(stepped == floor))
    assert clipping >= 2


def test_kkt_holds_at_a_converged_spectrum():
    # at a maximum of Q over c' >= 0 the gradient b - a vanishes where
    # c' > 0 and is <= 0 where c' = 0
    geometry = ArrayGeometry(1, 3)
    dictionary = dense_dictionary(geometry)
    rng = np.random.default_rng(0)
    floor = 1e-3
    realizable = reference_realize(rng.uniform(0.5, 1.5, 12), dictionary)
    deficient = _psd_scatter(rng, 3, 2)  # rank 2: some c' -> 0
    for scatter, steps in ((realizable, 300), (deficient, 10_000)):
        spectrum, _ = toeplitz_start(scatter, geometry, floor)
        for _ in range(steps):
            spectrum = _step(spectrum, scatter, geometry, floor)
        a, b = ascent_terms(spectrum, scatter, dictionary)
        excess = spectrum - floor
        positive = excess > 1e-2 * excess.max()
        scale = np.abs(a).max()
        assert np.abs(b - a)[positive].max() <= 1e-5 * scale
        assert np.all((b - a)[~positive] <= 0.0)
    assert not positive.all()  # the rank-2 scatter has a boundary optimum


@settings(max_examples=50, deadline=None)
@given(n_vert=st.integers(1, 4), n_horiz=st.integers(1, 16),
       rank=st.integers(1, 70), log_floor=st.floats(-6.0, -1.0), seed=_SEEDS)
def test_start_matches_dense_reference(n_vert, n_horiz, rank, log_floor,
                                       seed):
    geometry = ArrayGeometry(n_vert, n_horiz)
    dictionary = dense_dictionary(geometry)
    rng = np.random.default_rng(seed)
    floor = 10.0 ** log_floor
    scatter = _psd_scatter(rng, geometry.n, rank)
    spectrum, steps = toeplitz_start(scatter, geometry, floor)
    assert 1 <= steps <= toeplitz._START_STEPS
    assert np.all(spectrum >= floor)
    expected = reference_start(scatter, dictionary, floor)
    np.testing.assert_allclose(spectrum, expected, rtol=1e-8,
                               atol=1e-8 * np.abs(expected).max())


def test_generic_spectrum_realization_matches():
    # a realizable scatter is the maximum of Q; the steps find a spectrum
    # that realizes it, though not the one that made it
    rng = np.random.default_rng(2)
    c0 = rng.uniform(0.0, 2.0, 16)
    target = realize_spectral(c0, GEOM)
    spectrum, _ = toeplitz_start(target, GEOM, floor=0.0)
    for _ in range(500):
        spectrum = _step(spectrum, target, GEOM, 0.0)
    np.testing.assert_allclose(realize_spectral(spectrum, GEOM), target,
                               atol=1e-8)


def test_zero_scatter_returns_floor():
    floor = 1e-5
    zero = np.zeros((4, 4))
    at_floor = np.full(16, floor)
    stepped = _step(at_floor, zero, GEOM, floor)
    np.testing.assert_array_equal(stepped, at_floor)
    # from above, a zero scatter only pulls every entry down to the floor
    spectrum = floor + np.linspace(0.1, 2.0, 16)
    for _ in range(5):
        stepped = _step(spectrum, zero, GEOM, floor)
        assert np.all(stepped >= floor) and np.all(stepped < spectrum)
        spectrum = stepped


def test_toeplitz_fit_matches_dense_reference_steps(monkeypatch):
    # EM's own scatters, precisions and floor, on a small scene
    geometry = ArrayGeometry(2, 4)
    dictionary = dense_dictionary(geometry)
    data = normalize_dataset(generate_channels(SceneConfig(geometry, seed=5),
                                               800, sample_seed=1))
    options = EmOptions(max_iters=6, rel_loglik_tol=0.0, seed=2)
    fast = fit_em(data, 6, "toeplitz", options, geometry=geometry)

    def dense_step(spectra, precisions, scatters, geometry, floor):
        return np.array([reference_ascent_step(c, s, dictionary, floor)
                         for c, s in zip(spectra, scatters)])

    def dense_realize(spectra, geometry):
        realized = np.array([reference_realize(c, dictionary)
                             for c in np.atleast_2d(spectra)])
        return realized if np.ndim(spectra) == 2 else realized[0]

    monkeypatch.setattr(gmm, "toeplitz_mstep", dense_step)
    monkeypatch.setattr(gmm, "toeplitz_start", lambda scatter, geometry, floor:
                        (reference_start(scatter, dictionary, floor), 0))
    monkeypatch.setattr(gmm, "realize_spectral", dense_realize)
    reference = fit_em(data, 6, "toeplitz", options, geometry=geometry)
    np.testing.assert_allclose(fast.fit_log_likelihoods,
                               reference.fit_log_likelihoods, rtol=1e-10)
    np.testing.assert_allclose(fast.spectral, reference.spectral, rtol=1e-7,
                               atol=1e-7 * np.abs(reference.spectral).max())


def test_realized_spectra_pass_structure_check():
    rng = np.random.default_rng(4)
    geom = ArrayGeometry(2, 4)
    for _ in range(5):
        c = rng.uniform(0.0, 1.0, 4 * geom.n)
        assert check_structure(realize_spectral(c, geom), geom)


def test_identity_passes_structure_check():
    geom = ArrayGeometry(2, 4)
    assert check_structure(np.eye(8), geom)


def _index_walking_structure_oracle(cov, geometry, rtol):
    n_vert, n_horiz = geometry.n_vert, geometry.n_horiz
    scale = np.max(np.abs(cov))
    blocks = cov.reshape(n_vert, n_horiz, n_vert, n_horiz)
    for a in range(n_vert):
        for b in range(n_vert):
            for i in range(n_horiz):
                for j in range(n_horiz):
                    dv, dh = a - b, i - j
                    ra, rb = (dv, 0) if dv >= 0 else (0, -dv)
                    ri, rj = (dh, 0) if dh >= 0 else (0, -dh)
                    if abs(blocks[a, i, b, j] - blocks[ra, ri, rb, rj]) \
                            > rtol * scale:
                        return False
    herm = np.max(np.abs(cov - cov.conj().T)) <= rtol * scale
    return herm


def test_random_hermitian_fails_structure_check():
    geom = ArrayGeometry(2, 4)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cov = raw + raw.conj().T
    assert not check_structure(cov, geom)
    assert check_structure(cov, geom) == \
        _index_walking_structure_oracle(cov, geom, 1e-8)


def test_structure_check_agrees_with_index_oracle():
    geom = ArrayGeometry(2, 3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        c = rng.uniform(0.0, 1.0, 4 * geom.n)
        cov = realize_spectral(c, geom)
        # corrupt half of the cases
        if rng.random() < 0.5:
            cov = cov.copy()
            cov[0, 1] += 0.1
        assert check_structure(cov, geom) == \
            _index_walking_structure_oracle(cov, geom, 1e-8)
