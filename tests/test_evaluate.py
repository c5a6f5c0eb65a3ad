import logging
import re
from pathlib import Path

import numpy as np
import pytest

from limfb import evaluate
from limfb.config import read_kv
from limfb.evaluate import (Experiment, ExperimentConfig, SweepResult,
                            dump_raw, emit_csv, export_trajectory_csv,
                            parse_scheme, read_sweep_csv, run_sweep, sum_rate)
from limfb.gmm import GmmModel, project_to_observation
from limfb.precoding import (PrecoderSet, SwmmseOptions,
                             directional_representatives, rci_precoders,
                             swmmse_precoders)
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
    v = PrecoderSet(np.array([[np.exp(-0.7j), 0.0]]), rho=1.0, designer="rci")
    assert abs(sum_rate(h, v, sigma_n2=1.0) - 1.0) < 1e-12


def test_sum_rate_zero_precoders():
    h = np.ones((3, 4), dtype=complex)
    v = PrecoderSet(np.zeros((3, 4), dtype=complex), rho=1.0, designer="rci")
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
        got = sum_rate(h, PrecoderSet(v, 1.0, "rci"), sigma_n2)
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_sum_rate_invariant_to_user_phase():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v = PrecoderSet(0.5 * (rng.standard_normal((2, 3))
                           + 1j * rng.standard_normal((2, 3))), 10.0, "rci")
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
    a, _ = exp.run_constellation([17, 0])
    b, _ = exp.run_constellation([17, 0])
    assert a == b


def test_run_constellation_matches_hand_driven_pipeline(
        desk_train, desk_eval, desk_model):
    """Composition oracle: replay the pipeline with public module calls."""
    exp = _experiment(desk_train, desk_eval, desk_model,
                      schemes=("gmm-obs",))
    seed = [17, 3]
    rates, _ = exp.run_constellation(seed)

    cfg = exp.config
    sigma_n2 = cfg.rho / 10.0 ** (cfg.snr_db[0] / 10.0)
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
    precoders = rci_precoders(np.vstack(chosen), sigma_n2, cfg.rho)
    assert rates["gmm-obs"] == sum_rate(channels, precoders, sigma_n2)


def test_representatives_are_computed_once_per_used_component(
        desk_train, desk_eval, desk_model, desk_tmodel, monkeypatch):
    exp = _experiment(desk_train, desk_eval, desk_model, desk_tmodel,
                      schemes=("gmm-obs", "gmm-perfect", "tgmm-obs"))
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
    first, _ = exp.run_constellation([17, 0])
    assert sum(eigh_rows) == len(used["full"]) + len(used["toeplitz"])
    for constraint in ("full", "toeplitz"):
        assert (set(exp._cache[("representatives", constraint, 4)])
                == used[constraint])

    # the same constellation again: every representative comes from the cache
    eigh_rows.clear()
    again, _ = exp.run_constellation([17, 0])
    assert again == first and eigh_rows == []
    # a new constellation computes only the components not seen before
    seen = len(used["full"]) + len(used["toeplitz"])
    exp.run_constellation([17, 1])
    assert sum(eigh_rows) == len(used["full"]) + len(used["toeplitz"]) - seen
    # cached rows are the rows of the full matrix, bit for bit
    full = directional_representatives(desk_model, np.arange(1, 17))
    for k, row in exp._cache[("representatives", "full", 4)].items():
        assert row.tobytes() == full[k - 1].tobytes()


def test_perfect_equals_observed_with_invertible_noiseless_pilots(
        desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model,
                      schemes=("gmm-obs", "gmm-perfect"))
    rates, _ = exp.run_constellation([17, 5], n_pilots=16, sigma_n2=1e-12)
    assert rates["gmm-obs"] == rates["gmm-perfect"]


def test_skipped_schemes_are_reported(desk_eval, desk_model):
    config = ExperimentConfig.desk_profile(
        users=4, constellations=2, seed=1,
        schemes=("gmm-obs", "tgmm-obs", "dft:lmmse"))
    exp = Experiment(config, eval_dataset=desk_eval,
                     models={("full", 4): desk_model})
    rates, skipped = exp.run_constellation([1, 0])
    assert "gmm-obs" in rates
    assert set(skipped) == {"tgmm-obs", "dft:lmmse"}


# -- sweeps ----------------------------------------------------------------------

def test_single_value_sweep_equals_constellation_mean(
        desk_train, desk_eval, desk_model):
    exp = _experiment(desk_train, desk_eval, desk_model)
    result = run_sweep(exp, "snr", values=[10.0])
    direct = [exp.run_constellation([17, i])[0]["gmm-obs"] for i in range(8)]
    assert result.means["gmm-obs"][0] == np.mean(direct)


@pytest.mark.parametrize("axis, values, match", [
    ("iterations", [0, 4], r"iterations values must lie in 1..inf, got \[0\]"),
    ("pilots", [4, 17], r"pilots values must lie in 1..16, got \[17\]"),
    ("users", [2, 2001], r"users values must lie in 1..2000, got \[2001\]"),
    ("bits", [2, -1], r"bits values must lie in 0..inf, got \[-1\]"),
    ("bits", [4, 20], "as many samples as components: K=1048576, 10000 ")],
    ids=["iterations", "pilots", "users", "bits", "bits-beyond-training"])
def test_sweep_rejects_axis_values_out_of_range(
        desk_train, desk_eval, desk_model, monkeypatch, axis, values, match):
    exp = _experiment(desk_train, desk_eval, desk_model)
    monkeypatch.setattr(exp, "run_constellation",
                        lambda *args, **kwargs: pytest.fail("sweep ran"))
    with pytest.raises(ValueError, match=match):
        run_sweep(exp, axis, values=values)


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
    rates, _ = exp.run_constellation([17, 0], iters=12,
                                     at_iterations=[3, 12, 1])
    # three SWMMSE snapshots and one RCI design, not all 12 iterations
    assert len(calls) == 4
    assert np.ndim(rates["gmm-obs"]) == 0
    # the SWMMSE draws are a prefix-stable stream, so snapshot t is the
    # design of a run stopped after t iterations
    expected = [exp.run_constellation([17, 0], iters=t)[0]["gmm-obs+swmmse"]
                for t in (3, 12, 1)]
    assert rates["gmm-obs+swmmse"].tolist() == expected


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
    sidecar = (str(path) + ".jsonl")
    import json
    with open(sidecar) as fh:
        head = json.loads(fh.readline())
    assert head["schemes"] == result.schemes


def test_export_trajectory_csv(tmp_path):
    mean = np.array([1.0, 0.5j, -0.25, 0.1], dtype=complex)
    model = GmmModel([1.0], [mean], [1e-10 * np.eye(4)])
    out = swmmse_precoders(model, [1], 0.1, 1.0,
                           SwmmseOptions(max_iters=12, seed=0))
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
                    "pilots = 3\nrho = 2.5\n")
    config = ExperimentConfig.from_file(path)
    assert (config.geometry.n_vert, config.geometry.n_horiz) == (2, 4)
    assert config.geometry.spacing_horiz == 0.25
    assert config.pilots == 3 and config.rho == 2.5 and config.bits == 6
    assert config.model_paths == {}


@pytest.mark.parametrize("overrides, match", [
    (dict(rho=np.nan), "rho"), (dict(rho=np.inf), "rho"),
    (dict(rho=0.0), "rho"), (dict(rho=-1.0), "rho"),
    (dict(iters=0), "iters"), (dict(snr_db=()), "snr_db"),
    (dict(constellations=0), "constellations"), (dict(users=0), "users")],
    ids=["rho-nan", "rho-inf", "rho-zero", "rho-negative", "iters",
         "snr_db", "constellations", "users"])
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
