import json
import logging
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from limfb import evaluate
from limfb.config import read_kv
from limfb.evaluate import (Experiment, ExperimentConfig, SweepResult,
                            dump_raw, emit_csv, export_trajectory_csv,
                            parse_scheme, read_sweep_csv, run_sweep, sum_rate)
from limfb.feedback import observe
from limfb.gmm import EmOptions, GmmModel, fit_em, project_to_observation
from limfb.precoding import (PrecoderSet, directional_representatives,
                             rci_precoders, swmmse_precoders, swmmse_samples,
                             swmmse_white)
from limfb.scene import ArrayGeometry, load_scene_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _experiment(desk_train, desk_eval, desk_model, desk_tmodel=None,
                **overrides):
    models = {("full", 4): desk_model}
    if desk_tmodel is not None:
        models[("toeplitz", 4)] = desk_tmodel
    defaults = dict(users=4, constellations=8, seed=17, snr_db=(10.0,),
                    schemes=("gmm-obs", "dft:lmmse", "dft:omp"))
    defaults.update(overrides)
    config = ExperimentConfig.desk_profile(**defaults)
    return Experiment(config, train_dataset=desk_train,
                      eval_dataset=desk_eval, models=models)


# -- sum_rate ------------------------------------------------------------------

def test_sum_rate_unit_sinr():
    h = np.array([[np.exp(0.7j), 0.0]])
    v = PrecoderSet(np.array([[np.exp(-0.7j), 0.0]]), rho=1.0)
    assert abs(sum_rate(h, v, sigma_n2=1.0) - 1.0) < 1e-12


def test_sum_rate_zero_precoders():
    h = np.ones((3, 4), dtype=complex)
    v = PrecoderSet(np.zeros((3, 4), dtype=complex), rho=1.0)
    assert sum_rate(h, v, 0.5) == 0.0


def test_sum_rate_matches_term_by_term_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v *= np.sqrt(1.0 / np.sum(np.abs(v) ** 2))
        sigma_n2 = rng.uniform(0.05, 1.0)
        oracle = 0.0
        for j in range(2):
            signal = abs(h[j] @ v[j]) ** 2
            interference = sum(abs(h[j] @ v[m]) ** 2 for m in range(2)
                               if m != j)
            oracle += np.log2(1.0 + signal / (interference + sigma_n2))
        got = sum_rate(h, PrecoderSet(v, 1.0), sigma_n2)
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_sum_rate_invariant_to_user_phase():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = PrecoderSet(0.5 * (rng.standard_normal((2, 3))
                           + 1j * rng.standard_normal((2, 3))), 10.0)
    phased = h.copy()
    phased[0] *= np.exp(1.23j)
    assert abs(sum_rate(h, v, 0.3) - sum_rate(phased, v, 0.3)) < 1e-12


# -- scheme parsing --------------------------------------------------------------

def test_parse_scheme_variants():
    assert parse_scheme("gmm-obs") == ("obs", "full", None)
    assert parse_scheme("tgmm-perfect+rci") == ("perfect", "toeplitz", "rci")
    assert parse_scheme("gmm-obs+swmmse") == ("obs", "full", "swmmse")
    assert parse_scheme("dft:omp") == ("dft:omp", None, None)
    assert parse_scheme("dft:perfect") == ("dft:perfect", None, None)
    assert parse_scheme("dft:lmmse") == ("dft:lmmse", None, None)
    assert parse_scheme("dft:gmm") == ("dft:gmm", "full", None)
    assert parse_scheme("dft:tgmm+rci") == ("dft:tgmm", "toeplitz", "rci")
    for bad in ("gmm", "dft:fancy", "gmm-obs+zf", "dft-obs", "dft:gmm-obs",
                "gmm-obs-perfect", "tgmm:obs", "lmmse-obs", "dft:", "obs"):
        with pytest.raises(ValueError):
            parse_scheme(bad)


# -- constellation runs ----------------------------------------------------------

def test_feedback_is_one_index_array_for_every_scheme(
        desk_train, desk_eval, desk_model, desk_tmodel):
    exp = _experiment(desk_train, desk_eval, desk_model, desk_tmodel)
    setup = exp.pilot_setup(8, 0.1)
    channels = desk_eval.samples[:5].astype(np.complex128)
    observations = channels @ setup.pilot_matrix.T
    for tag in ("gmm-obs", "gmm-perfect", "tgmm-obs", "tgmm-perfect",
                *(f"dft:{name}" for name in evaluate.DFT_ESTIMATORS)):
        indices = exp.feedback(tag, 4, setup, channels, observations)
        assert indices.shape == (5,) and indices.dtype.kind == "i", tag
        assert 1 <= indices.min() and indices.max() <= 16, tag


def test_run_constellation_deterministic(desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model)
    [(a, _)] = exp.run_constellation([17, 0])
    [(b, _)] = exp.run_constellation([17, 0])
    assert a == b


def test_run_constellation_matches_hand_driven_pipeline(
        desk_train, desk_eval, desk_model):
    """Composition oracle: replay the pipeline with public module calls."""
    exp = _experiment(desk_train, desk_eval, desk_model,
                      schemes=("gmm-obs",))
    seed = [17, 3]
    [(rates, _)] = exp.run_constellation(seed)

    cfg = exp.config
    sigma_n2 = 1.0 / 10.0 ** (cfg.snr_db[0] / 10.0)  # at unit power
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(desk_eval), size=cfg.users, replace=False)
    channels = desk_eval.samples[picks].astype(np.complex128)
    unit = (rng.standard_normal((cfg.users, cfg.pilots))
            + 1j * rng.standard_normal((cfg.users, cfg.pilots))) / np.sqrt(2)
    setup = exp.pilot_setup(cfg.pilots, sigma_n2)
    observations = channels @ setup.pilot_matrix.T + np.sqrt(sigma_n2) * unit

    obs_model = project_to_observation(desk_model, setup)
    reps = directional_representatives(desk_model, np.arange(1, 17))
    chosen = []
    for j in range(cfg.users):
        idx = int(np.argmax(obs_model.log_responsibilities(observations[j])))
        chosen.append(reps[idx])
    precoders = rci_precoders(np.vstack(chosen), sigma_n2, 1.0)
    assert rates["gmm-obs"] == sum_rate(channels, precoders, sigma_n2)


def test_representatives_are_computed_once_per_used_component(
        desk_train, desk_eval, desk_model, desk_tmodel, cold_copy,
        monkeypatch):
    # fresh copies: the session models may hold rows from earlier tests
    full_model, toeplitz_model = cold_copy(desk_model), cold_copy(desk_tmodel)

    def experiment():
        return _experiment(desk_train, desk_eval, full_model, toeplitz_model,
                           schemes=("gmm-obs", "gmm-perfect", "tgmm-obs"))

    exp = experiment()
    used = {"full": set(), "toeplitz": set()}
    feedback = exp.feedback

    def recording_feedback(tag, *args):
        indices = feedback(tag, *args)
        used["toeplitz" if tag.startswith("t") else "full"].update(
            indices.tolist())
        return indices

    eigh_rows = []
    eigh = np.linalg.eigh

    def counting_eigh(matrices):
        eigh_rows.append(len(matrices))
        return eigh(matrices)

    monkeypatch.setattr(exp, "feedback", recording_feedback)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    [(first, _)] = exp.run_constellation([17, 0])
    assert sum(eigh_rows) == len(used["full"]) + len(used["toeplitz"])
    assert set(full_model._representatives) == used["full"]
    assert set(toeplitz_model._representatives) == used["toeplitz"]

    # the same constellation again: every representative comes from the model
    eigh_rows.clear()
    [(again, _)] = exp.run_constellation([17, 0])
    assert again == first and eigh_rows == []
    # so does a second Experiment on the same models
    [(again, _)] = experiment().run_constellation([17, 0])
    assert again == first and eigh_rows == []
    # a new constellation computes only the components not seen before
    seen = len(used["full"]) + len(used["toeplitz"])
    exp.run_constellation([17, 1])
    assert sum(eigh_rows) == len(used["full"]) + len(used["toeplitz"]) - seen
    # kept rows are a cold model's rows of the full matrix, bit for bit
    for model, source in ((full_model, desk_model),
                          (toeplitz_model, desk_tmodel)):
        cold = directional_representatives(cold_copy(source),
                                           np.arange(1, 17))
        for k, row in model._representatives.items():
            assert row.tobytes() == cold[k - 1].tobytes()


def test_perfect_equals_observed_with_invertible_noiseless_pilots(
        desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model,
                      schemes=("gmm-obs", "gmm-perfect"))
    point = replace(exp.config, pilots=16, snr_db=(120.0,))  # sigma_n2 1e-12
    [(rates, _)] = exp.run_constellation([17, 5], [point])
    assert rates["gmm-obs"] == rates["gmm-perfect"]


def test_skipped_schemes_are_reported(desk_eval, desk_model):
    config = ExperimentConfig.desk_profile(
        users=4, constellations=2, seed=1,
        schemes=("gmm-obs", "tgmm-obs", "dft:lmmse"))
    exp = Experiment(config, eval_dataset=desk_eval,
                     models={("full", 4): desk_model})
    [(rates, skipped)] = exp.run_constellation([1, 0])
    assert "gmm-obs" in rates
    assert set(skipped) == {"tgmm-obs", "dft:lmmse"}


# -- sweeps ----------------------------------------------------------------------

def test_single_value_sweep_equals_constellation_mean(
        desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model)
    result = run_sweep(exp, "snr", values=[10.0])
    direct = [exp.run_constellation([17, i])[0][0]["gmm-obs"]
              for i in range(8)]
    assert result.means["gmm-obs"][0] == np.mean(direct)


@pytest.mark.parametrize("axis, values, match", [
    ("iterations", [0, 4], r"^iterations value 0: iters must be >= 1, got 0$"),
    ("pilots", [4, 17],
     r"^pilots value 17: pilots must lie in 1..16, got 17$"),
    ("users", [2, 2001],
     r"^users value 2001: more users than the 2000 evaluation channels$"),
    ("bits", [2, -1], r"^bits value -1: bits must be >= 0, got -1$"),
    ("bits", [4, 20], "^bits value 20: need at least as many samples as "
                      "components: K=1048576, 10000 "),
    ("bits", [2.5], r"^bits value 2.5: bits must be an integer, got 2.5$"),
    ("users", [2, 3.0], r"^users value 3.0: users must be an integer"),
    ("iterations", [4, 2.5], r"^iterations value 2.5: iters must be an "
                             r"integer, got 2.5$"),
    ("snr", [0.0, np.nan], r"^snr value nan: snr_db must be finite"),
    ("snr", [-np.inf], r"^snr value -inf: snr_db must be finite"),
    ("snr", [10.0, 4000.0], r"^snr value 4000.0: snr_db 4000.0: no finite "
                            r"noise variance > 0$")],
    ids=["iterations", "pilots", "users", "bits", "bits-beyond-training",
         "bits-fraction", "users-float", "iterations-fraction", "snr-nan",
         "snr-minus-inf", "snr-noise-underflow"])
def test_sweep_rejects_axis_values_out_of_range(
        desk_train, desk_eval, desk_model, monkeypatch, axis, values, match):
    exp = _experiment(desk_train, desk_eval, desk_model)
    monkeypatch.setattr(exp, "run_constellation",
                        lambda *args, **kwargs: pytest.fail("sweep ran"))
    with pytest.raises(ValueError, match=match):
        run_sweep(exp, axis, values=values)


def test_sweep_runtime_ignores_wall_clock_steps(desk_eval, desk_model,
                                                monkeypatch):
    exp = Experiment(ExperimentConfig.desk_profile(
        users=2, constellations=1, seed=1, schemes=("gmm-perfect",)),
        eval_dataset=desk_eval, models={("full", 4): desk_model})
    clock = iter([2e9])  # the wall clock steps back by 1e9 s after one read
    monkeypatch.setattr(evaluate.time, "time", lambda: next(clock, 1e9))
    result = run_sweep(exp, "snr", values=[10.0])
    assert 0.0 <= result.metadata["runtime_s"] < 1e3


def test_sweep_prefix_stability(desk_train, desk_eval, desk_model):
    short = _experiment(desk_train, desk_eval, desk_model, constellations=4)
    long = _experiment(desk_train, desk_eval, desk_model, constellations=8)
    a = run_sweep(short, "pilots", values=[4, 8])
    b = run_sweep(long, "pilots", values=[4, 8])
    np.testing.assert_array_equal(a.per_constellation["gmm-obs"],
                                  b.per_constellation["gmm-obs"][:, :4])


def test_sweep_standard_error_matches_recomputation(
        desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model)
    result = run_sweep(exp, "pilots", values=[4, 8])
    for tag in result.schemes:
        raw = result.per_constellation[tag]
        np.testing.assert_allclose(
            result.std_errors[tag],
            raw.std(axis=1, ddof=1) / np.sqrt(raw.shape[1]), rtol=1e-12)


def test_users_axis(desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model,
                      schemes=("gmm-obs",))
    result = run_sweep(exp, "users", values=[2, 4])
    assert result.per_constellation["gmm-obs"].shape == (2, 8)


def test_bits_axis_uses_models_per_width(desk_train, desk_eval, desk_model):
    from limfb.gmm import EmOptions, fit_em
    small = fit_em(desk_train, 4, options=EmOptions(max_iters=10, seed=2),
                   geometry=desk_model.geometry)
    config = ExperimentConfig.desk_profile(
        users=4, constellations=3, seed=17, schemes=("gmm-obs",))
    exp = Experiment(config, train_dataset=desk_train,
                     eval_dataset=desk_eval,
                     models={("full", 4): desk_model, ("full", 2): small})
    result = run_sweep(exp, "bits", values=[2, 4])
    assert result.per_constellation["gmm-obs"].shape == (2, 3)
    assert np.all(np.isfinite(result.means["gmm-obs"]))


def test_iterations_axis_reuses_trajectory(desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model, constellations=3,
                      schemes=("gmm-obs+swmmse", "gmm-obs+rci"), iters=20)
    result = run_sweep(exp, "iterations", values=[1, 10, 20])
    swmmse = result.per_constellation["gmm-obs+swmmse"]
    rci = result.per_constellation["gmm-obs+rci"]
    assert swmmse.shape == (3, 3)
    # the RCI designer does not iterate: identical value at every checkpoint
    assert np.all(rci == rci[0])
    assert not np.all(swmmse == swmmse[0])


def test_at_iterations_evaluates_only_the_requested_snapshots(
        desk_train, desk_eval, desk_model, monkeypatch):
    exp = _experiment(desk_train, desk_eval, desk_model, constellations=1,
                      schemes=("gmm-obs+swmmse", "gmm-obs"), iters=12)
    calls = []
    real_sum_rate = evaluate.sum_rate

    def counting_sum_rate(*args):
        calls.append(args)
        return real_sum_rate(*args)

    monkeypatch.setattr(evaluate, "sum_rate", counting_sum_rate)
    [(rates, _)] = exp.run_constellation([17, 0], at_iterations=[3, 12, 1])
    # three SWMMSE snapshots and one RCI design, not all 12 iterations
    assert len(calls) == 4
    assert np.ndim(rates["gmm-obs"]) == 0
    # the SWMMSE draws are a prefix-stable stream, so snapshot t is the
    # design of a run stopped after t iterations
    expected = [exp.run_constellation([17, 0], [replace(exp.config, iters=t)])
                [0][0]["gmm-obs+swmmse"] for t in (3, 12, 1)]
    assert rates["gmm-obs+swmmse"].tolist() == expected


def test_shared_swmmse_draws_leave_every_rate_unchanged(
        desk_train, desk_eval, desk_model, desk_tmodel, monkeypatch):
    # every SWMMSE design of a constellation, at every SNR point, uses the
    # same seed, so they share one draw; every rate equals that of a fresh
    # Experiment run at that point alone
    draws = []
    real_white = evaluate.swmmse_white

    def counting_white(*key):
        draws.append(key)
        return real_white(*key)

    monkeypatch.setattr(evaluate, "swmmse_white", counting_white)
    overrides = dict(constellations=2, iters=15,
                     schemes=("gmm-obs+swmmse", "tgmm-obs+swmmse", "gmm-obs"))
    exp = _experiment(desk_train, desk_eval, desk_model, desk_tmodel,
                      **overrides)
    result = run_sweep(exp, "snr", values=[0.0, 20.0])
    assert len(draws) == 2  # one per constellation, not per point or design
    for row, snr in enumerate((0.0, 20.0)):
        for i in range(2):
            fresh = _experiment(desk_train, desk_eval, desk_model, desk_tmodel,
                                **overrides)
            [(rates, _)] = fresh.run_constellation(
                [17, i], [replace(fresh.config, snr_db=(snr,))])
            for tag, rate in rates.items():
                got = result.per_constellation[tag][row, i]
                assert np.float64(got).tobytes() == np.float64(rate).tobytes()


def _swmmse_seed(exp, seed, users):
    """The SWMMSE seed of constellation ``seed`` at ``users`` users: the
    draw after the user picks and the pilot noise."""
    rng = np.random.default_rng(seed)
    rng.choice(len(exp.eval), size=users, replace=False)
    rng.standard_normal((users, exp.config.pilots))
    rng.standard_normal((users, exp.config.pilots))
    return int(rng.integers(0, 2 ** 63))


def test_shared_swmmse_draws_match_each_design(desk_train, desk_eval,
                                               desk_model, monkeypatch):
    # every design samples swmmse_white(seed, iters + 1, users, N) for the
    # seed of its own constellation and point. The second sweep reruns the
    # first one's constellations at fewer iterations, and the users axis
    # changes the shape and the seed between points
    exp = _experiment(desk_train, desk_eval, desk_model, constellations=2,
                      iters=9, schemes=("gmm-obs+swmmse", "gmm-perfect+swmmse"))
    constellation, seen = [], []
    real_run = exp.run_constellation
    real_samples, real_design = evaluate.swmmse_samples, evaluate.swmmse_precoders

    def recording_run(seed, *args):
        constellation[:] = [seed]
        return real_run(seed, *args)

    def checking_samples(model, indices, white):
        seed = _swmmse_seed(exp, constellation[0], len(indices))
        expected = swmmse_white(seed, len(white), len(indices), model.dim)
        assert white.tobytes() == expected.tobytes()
        return real_samples(model, indices, white)

    def recording_design(samples, sigma_n2, rho):
        seen.append(samples.shape)
        return real_design(samples, sigma_n2, rho)

    monkeypatch.setattr(exp, "run_constellation", recording_run)
    monkeypatch.setattr(evaluate, "swmmse_samples", checking_samples)
    monkeypatch.setattr(evaluate, "swmmse_precoders", recording_design)
    run_sweep(exp, "iterations", [2, 9])
    run_sweep(exp, "iterations", [2, 5])
    run_sweep(exp, "users", [2, 4, 3])
    # one design per scheme, constellation and point; a sweep runs the
    # points of one constellation before the next constellation
    per_constellation = [[(10, 4)], [(6, 4)], [(10, 2), (10, 4), (10, 3)]]
    assert seen == [(rounds, users, 16)
                    for shapes in per_constellation for _ in range(2)
                    for rounds, users in shapes for _ in range(2)]


def test_feedback_runs_once_per_source_and_model(
        desk_train, desk_eval, desk_model, desk_tmodel, monkeypatch):
    # an +swmmse scheme reuses the indices of the plain scheme of its source
    # and model; every rate equals that of a one-scheme Experiment
    schemes = ("gmm-obs", "tgmm-obs", "gmm-obs+swmmse", "tgmm-obs+swmmse")
    exp = _experiment(desk_train, desk_eval, desk_model, desk_tmodel,
                      constellations=2, iters=6, schemes=schemes)
    calls = []
    feedback = exp.feedback

    def counting_feedback(tag, *args):
        calls.append(parse_scheme(tag)[:2])
        return feedback(tag, *args)

    monkeypatch.setattr(exp, "feedback", counting_feedback)
    result = run_sweep(exp, "snr", values=[0.0, 20.0])
    # two constellations at two points, one call per (source, constraint)
    assert calls == [("obs", "full"), ("obs", "toeplitz")] * 4
    for tag in schemes:
        alone = _experiment(desk_train, desk_eval, desk_model, desk_tmodel,
                            constellations=2, iters=6, schemes=(tag,))
        for row, snr in enumerate((0.0, 20.0)):
            point = replace(alone.config, snr_db=(snr,))
            for i in range(2):
                rate = alone.run_constellation([17, i], [point])[0][0][tag]
                got = result.per_constellation[tag][row, i]
                assert np.float64(got).tobytes() == np.float64(rate).tobytes()


ALL_SCHEMES = ("gmm-obs", "tgmm-obs", "gmm-perfect", "tgmm-perfect",
               "dft:perfect", "dft:gmm", "dft:tgmm", "dft:lmmse", "dft:omp",
               "gmm-obs+swmmse", "tgmm-obs+swmmse", "gmm-perfect+swmmse")


@pytest.fixture(scope="module")
def two_bit_models(desk_train, desk_geometry):
    options = EmOptions(max_iters=5, seed=2)
    return {(constraint, 2): fit_em(desk_train, 4, constraint, options,
                                    geometry=desk_geometry)
            for constraint in ("full", "toeplitz")}


def _fresh_swmmse_rates(exp, seed, point, tag, at_iterations):
    """The rates of one SWMMSE design of ``tag`` at ``point``, replayed by
    hand on samples made for this design alone."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(exp.eval), size=point.users, replace=False)
    channels = exp.eval.samples[picks].astype(np.complex128)
    setup = exp.pilot_setup(point.pilots, point.sigma_n2)
    observations = observe(setup, channels, rng)
    white = swmmse_white(int(rng.integers(0, 2 ** 63)), point.iters + 1,
                         point.users, exp.geometry.n)
    indices = exp.feedback(tag, point.bits, setup, channels, observations)
    model = exp.model_for(parse_scheme(tag)[1], point.bits)
    out = swmmse_precoders(swmmse_samples(model, indices, white),
                           point.sigma_n2, 1.0)
    snaps = out.metadata["precoders"]
    return [sum_rate(channels, snaps[t - 1], point.sigma_n2)
            for t in at_iterations or [point.iters]]


@pytest.mark.parametrize("axis, values", [
    ("snr", [0.0, 20.0]), ("pilots", [4, 8]), ("users", [2, 4]),
    ("bits", [2, 4]), ("iterations", [2, 6])])
def test_constellation_major_sweep_equals_per_point_runs(
        desk_train, desk_eval, desk_model, desk_tmodel, two_bit_models,
        axis, values):
    # one run_constellation call per constellation covers every point and
    # shares draws, samples and perfect-CSI feedback across them; every
    # rate equals, bit for bit, a fresh Experiment's run of the point
    # alone, and every SWMMSE rate a design on samples made for it alone
    models = {("full", 4): desk_model, ("toeplitz", 4): desk_tmodel,
              **two_bit_models}
    config = ExperimentConfig.desk_profile(
        users=4, constellations=2, seed=17, iters=6, schemes=ALL_SCHEMES)

    def experiment():
        return Experiment(config, train_dataset=desk_train,
                          eval_dataset=desk_eval, models=models)

    result = run_sweep(experiment(), axis, values)
    assert result.schemes == list(ALL_SCHEMES)
    at_iterations = values if axis == "iterations" else None
    if at_iterations:
        points = [(slice(None), evaluate.sweep_point(config, axis, 6))]
    else:
        points = [(row, evaluate.sweep_point(config, axis, value))
                  for row, value in enumerate(values)]
    for i in range(2):
        for row, point in points:
            fresh = experiment()
            [(rates, skipped)] = fresh.run_constellation([17, i], [point],
                                                         at_iterations)
            assert skipped == {}
            for tag in ALL_SCHEMES:
                got = result.per_constellation[tag][row, i]
                expected = (_fresh_swmmse_rates(fresh, [17, i], point, tag,
                                                at_iterations)
                            if tag.endswith("+swmmse") else rates[tag])
                assert np.all(got == expected), (tag, row, i)


def test_designs_sharing_a_sample_set_sample_once(desk_train, desk_eval,
                                                  desk_model, monkeypatch):
    # perfect-CSI indices do not change with the SNR, and the points of a
    # constellation share its draw: per constellation, one feedback call
    # serves both schemes at all three points, and one sample set the
    # three SWMMSE designs
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    exp = _experiment(desk_train, desk_eval, desk_model, constellations=2,
                      iters=6, schemes=("gmm-perfect+swmmse", "gmm-perfect"))
    monkeypatch.setattr(exp, "feedback", counting("feedback", exp.feedback))
    monkeypatch.setattr(evaluate, "swmmse_samples",
                        counting("samples", evaluate.swmmse_samples))
    monkeypatch.setattr(evaluate, "swmmse_precoders",
                        counting("design", evaluate.swmmse_precoders))
    run_sweep(exp, "snr", [0.0, 10.0, 20.0])
    assert calls == ["feedback", "samples", "design", "design", "design"] * 2


def test_run_constellation_holds_one_draw_and_one_sample_set(
        desk_train, desk_eval, desk_model, desk_tmodel):
    # three SNR points, two SWMMSE schemes: six designs, on up to six
    # sample sets of one draw. The call may hold the draw and one sample
    # set besides the design in hand, and nothing of a finished design
    import tracemalloc

    exp = _experiment(desk_train, desk_eval, desk_model, desk_tmodel,
                      iters=300, schemes=("gmm-obs+swmmse", "tgmm-obs+swmmse"))
    points = [replace(exp.config, snr_db=(snr,)) for snr in (0.0, 10.0, 20.0)]
    exp.run_constellation([17, 0], points)  # warm-up: the Experiment's caches
    one_set = 301 * 4 * 16 * 16  # (T + 1) J N complex
    samples = swmmse_samples(desk_model, [1, 5, 5, 9],
                             swmmse_white(3, 301, 4, 16))
    tracemalloc.start()
    try:
        swmmse_precoders(samples, 0.1, 1.0)
        design_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        exp.run_constellation([17, 0], points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < design_peak + 2.25 * one_set


def test_a_scheme_skipped_at_some_points_rates_nan_there(desk_eval,
                                                         desk_model):
    # a full model for B=4 only and no training data to fit another:
    # gmm-obs runs at B=4 and is skipped at B=5
    config = ExperimentConfig.desk_profile(
        users=4, constellations=3, seed=1, schemes=("gmm-obs", "dft:perfect"))
    exp = Experiment(config, eval_dataset=desk_eval,
                     models={("full", 4): desk_model})
    result = run_sweep(exp, "bits", values=[4, 5])
    assert result.schemes == ["gmm-obs", "dft:perfect"]
    rates = result.per_constellation["gmm-obs"]
    assert np.all(np.isfinite(rates[0])) and np.all(np.isnan(rates[1]))
    assert np.isnan(result.means["gmm-obs"][1])
    assert np.isnan(result.std_errors["gmm-obs"][1])
    assert np.all(np.isfinite(result.per_constellation["dft:perfect"]))
    assert result.metadata["skipped"] == {
        "gmm-obs": {5: "no full model for B=5"}}


def test_no_swmmse_draw_without_a_runnable_swmmse_scheme(
        desk_eval, desk_model, monkeypatch):
    # without training data there is no Toeplitz model, so tgmm-obs+swmmse
    # is skipped
    monkeypatch.setattr(evaluate, "swmmse_white",
                        lambda *args: pytest.fail("drew SWMMSE noise"))
    config = ExperimentConfig.desk_profile(
        users=4, constellations=2, seed=17,
        schemes=("gmm-obs", "gmm-perfect+rci", "dft:omp", "tgmm-obs+swmmse"))
    exp = Experiment(config, eval_dataset=desk_eval,
                     models={("full", 4): desk_model})
    result = run_sweep(exp, "snr", values=[0.0, 10.0])
    assert result.schemes == ["gmm-obs", "gmm-perfect+rci", "dft:omp"]
    assert set(result.metadata["skipped"]) == {"tgmm-obs+swmmse"}


def test_monotone_snr_for_perfect_feedback(desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model, constellations=30,
                      schemes=("gmm-perfect",))
    result = run_sweep(exp, "snr", values=[0.0, 5.0, 10.0, 15.0, 20.0])
    means = result.means["gmm-perfect"]
    ses = result.std_errors["gmm-perfect"]
    for i in range(len(means) - 1):
        pooled = np.hypot(ses[i], ses[i + 1])
        assert means[i + 1] - means[i] >= -2.0 * pooled


# -- CSV and raw dumps -------------------------------------------------------------

def test_emit_csv_round_trip(tmp_path, desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model, constellations=4)
    result = run_sweep(exp, "pilots", values=[2, 4, 6, 8, 10, 12, 14, 16])
    path = tmp_path / "sweep.csv"
    emit_csv(result, path)
    axis, header, rows = read_sweep_csv(path)
    assert axis == "pilots"
    assert len(rows) == 8
    assert len(header) == 1 + 2 * len(result.schemes)
    for i, row in enumerate(rows):
        assert row[0] == result.values[i]
        for s_idx, tag in enumerate(result.schemes):
            assert row[1 + 2 * s_idx] == result.means[tag][i]
            assert row[2 + 2 * s_idx] == result.std_errors[tag][i]


def test_emit_csv_empty_schemes(tmp_path):
    result = SweepResult(axis="snr", values=[10.0], schemes=[], means={},
                         std_errors={}, per_constellation={},
                         metadata={"constellations": 0})
    path = tmp_path / "empty.csv"
    emit_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "snr"


def test_emit_csv_deterministic_bytes(tmp_path, desk_train, desk_eval,
                                      desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model, constellations=3)
    result = run_sweep(exp, "snr", values=[10.0])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(result, a)
    emit_csv(result, b)
    assert a.read_bytes() == b.read_bytes()


def test_dump_raw_round_trip(tmp_path, desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model, constellations=4)
    result = run_sweep(exp, "pilots", values=[4, 8])
    path = tmp_path / "raw.npy"
    dump_raw(result, path)
    raw = np.load(path)
    assert raw.shape == (8, len(result.schemes)) and raw.dtype == np.float64
    for s_idx, tag in enumerate(result.schemes):
        np.testing.assert_array_equal(
            raw[:, s_idx], result.per_constellation[tag].reshape(-1))
    # the sidecar is one header line; it fixes every row: row = v * C + i
    lines = (tmp_path / "raw.npy.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [{
        "schemes": result.schemes, "axis": "pilots",
        "config_hash": exp.config.config_hash(),
        "master_seed": exp.config.seed}]


def test_export_trajectory_csv(tmp_path):
    mean = np.array([1.0, 0.5j, -0.25, 0.1], dtype=complex)
    model = GmmModel([1.0], [mean], [1e-10 * np.eye(4)])
    out = swmmse_precoders(swmmse_samples(model, [1], swmmse_white(0, 13, 1, 4)),
                           0.1, 1.0)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,sum_rate,power"
    assert len(lines) == 13


# -- config ------------------------------------------------------------------------

def test_experiment_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "profile = desk\n"
        "train_data = train.lfbd\n"
        "eval_data = eval.lfbd\n"
        "users = 4\n"
        "pilots = 8\n"
        "snr_db = 0,10,20\n"
        "schemes = gmm-obs, dft:omp\n"
        "constellations = 10\n"
        "seed = 5\n"
        "model.full = m.lfbm\n")
    config = ExperimentConfig.from_file(path)
    assert config.geometry.n == 16
    assert config.bits == 4
    assert config.snr_db == (0.0, 10.0, 20.0)
    assert config.schemes == ("gmm-obs", "dft:omp")
    assert config.model_paths == {"full": "m.lfbm"}
    assert config.seed == 5


def test_experiment_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("profile = desk\nnonsense = 1\n")
    with pytest.raises(ValueError, match="nonsense"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("line, match", [
    ("geometry = 4x16", "geometry"), ("model_paths = m.lfbm", "model_paths"),
    ("num_clusters = 4", "num_clusters"), ("profile = huge", "huge")])
def test_experiment_config_rejects_keys_of_no_field(tmp_path, line, match):
    path = tmp_path / "bad.cfg"
    path.write_text(f"eval_data = eval.lfbd\n{line}\n")
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_file(path)


def test_experiment_config_array_keys_override_the_profile_geometry(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("profile = desk\nn_horiz = 4\n")
    config = ExperimentConfig.from_file(path)
    assert config.geometry == ArrayGeometry(2, 4, 1.0, 0.5)
    assert config.bits == 4 and config.pilots == 8


def test_experiment_config_without_profile_reads_the_array_keys(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n_vert = 2\nn_horiz = 4\nspacing_horiz = 0.25\n"
                    "pilots = 3\n")
    config = ExperimentConfig.from_file(path)
    assert (config.geometry.n_vert, config.geometry.n_horiz) == (2, 4)
    assert config.geometry.spacing_horiz == 0.25
    assert config.pilots == 3 and config.bits == 6
    assert config.model_paths == {}


@pytest.mark.parametrize("overrides, match", [
    (dict(iters=0), "iters"), (dict(snr_db=()), "snr_db"),
    (dict(constellations=0), "constellations"), (dict(users=0), "users"),
    (dict(bits=-1), "bits must be >= 0, got -1"),
    (dict(bits=2.5), "bits must be an integer, got 2.5"),
    (dict(constellations=2.5), "constellations must be an integer"),
    (dict(users=2.0), "users must be an integer"),
    (dict(pilots=4.0), "pilots must be an integer"),
    (dict(iters=1.5), "iters must be an integer"),
    (dict(snr_db=(10.0, np.nan)), "snr_db must be finite"),
    (dict(snr_db=(np.inf,)), "snr_db must be finite"),
    (dict(snr_db=(-np.inf,)), "snr_db must be finite"),
    (dict(snr_db=(10.0, 4000.0)), "^snr_db 4000.0: no finite noise"),
    (dict(snr_db=(-4000.0,)), "^snr_db -4000.0: no finite noise"),
    (dict(snr_db=(-3090.0,)), "^snr_db -3090.0: no finite"),
    (dict(snr_db=10.0), "^snr_db must be a sequence, got 10.0$"),
    (dict(schemes="gmm-obs"), "^schemes must be a sequence, got 'gmm-obs'$")],
    ids=["iters",
         "snr_db", "constellations", "users", "bits-negative",
         "bits-fraction", "constellations-fraction", "users-float",
         "pilots-float", "iters-fraction", "snr-nan", "snr-inf",
         "snr-minus-inf", "snr-noise-underflow", "snr-noise-overflow",
         "snr-noise-overflow-in-division", "snr-scalar", "schemes-string"])
def test_experiment_config_rejects_bad_values(overrides, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.desk_profile(**overrides)


def _readme_config_blocks():
    section = README.read_text().split("### Config files", 1)[1]
    return re.findall(r"```\n(.*?)```", section.split("\n## ", 1)[0], re.S)


def test_readme_config_blocks_are_read_field_by_field(tmp_path):
    scene_block, experiment_block = _readme_config_blocks()
    scene_path = tmp_path / "scene.cfg"
    scene_path.write_text(scene_block)
    scene = load_scene_config(scene_path)
    for key, text in read_kv(scene_path).items():
        owner = scene.geometry if hasattr(scene.geometry, key) else scene
        assert getattr(owner, key) == type(getattr(owner, key))(text), key

    experiment_path = tmp_path / "exp.cfg"
    experiment_path.write_text(experiment_block)
    config = ExperimentConfig.from_file(experiment_path)
    for key, text in read_kv(experiment_path).items():
        if key.startswith("model."):
            assert config.model_paths[key[len("model."):]] == text
        elif hasattr(config.geometry, key):
            assert getattr(config.geometry, key) == float(text), key
        elif key == "snr_db":
            assert config.snr_db == tuple(map(float, text.split(",")))
        elif key == "schemes":
            assert config.schemes == tuple(text.replace(" ", "").split(","))
        elif key != "profile":
            value = getattr(config, key)
            assert value == type(value)(text), key


def test_config_hash_tracks_fields():
    a = ExperimentConfig.desk_profile(seed=1)
    b = ExperimentConfig.desk_profile(seed=1)
    c = ExperimentConfig.desk_profile(seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_hash_ignores_the_order_of_the_model_paths(tmp_path):
    forward = ExperimentConfig.desk_profile(
        model_paths={"full": "a", "toeplitz": "b"})
    backward = ExperimentConfig.desk_profile(
        model_paths={"toeplitz": "b", "full": "a"})
    swapped = ExperimentConfig.desk_profile(
        model_paths={"full": "b", "toeplitz": "a"})
    assert forward.config_hash() == backward.config_hash()
    assert forward.config_hash() != swapped.config_hash()
    # so the line order of a config file does not move the hash
    lines = ["profile = desk", "model.full = a", "model.toeplitz = b"]
    hashes = set()
    for order in (lines, lines[::-1]):
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(order) + "\n")
        hashes.add(ExperimentConfig.from_file(path).config_hash())
    assert len(hashes) == 1


def test_on_demand_fit_is_logged(desk_train, desk_eval, desk_model, caplog):
    config = ExperimentConfig.desk_profile(constellations=1)
    exp = Experiment(config, train_dataset=desk_train, eval_dataset=desk_eval,
                     models={("full", 4): desk_model})
    with caplog.at_level(logging.INFO, logger="limfb.evaluate"):
        assert exp.model_for("full", 4) is desk_model
        assert not caplog.records
        model = exp.model_for("full", 1)
    assert model.n_components == 2
    [record] = [r for r in caplog.records if r.name == "limfb.evaluate"]
    assert record.levelno == logging.INFO
    message = record.getMessage()
    assert "full" in message and "K=2" in message
    assert f"{len(desk_train)} training channels" in message


def test_experiment_validates_eval_size(desk_eval, desk_model):
    config = ExperimentConfig.desk_profile(users=5000, constellations=1)
    with pytest.raises(ValueError):
        Experiment(config, eval_dataset=desk_eval,
                   models={("full", 4): desk_model})
