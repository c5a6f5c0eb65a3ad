import warnings

import numpy as np
import pytest

from limfb import evaluate
from limfb.cli import main
from limfb.estimators import (build_omp_dictionary, estimate_gmm,
                              estimate_lmmse, estimate_omp)
from limfb.feedback import (build_dft_codebook, build_pilot_matrix, observe,
                            select_codebook_index)
from limfb.gmm import load_model, project_to_observation, sample_moments
from limfb.scene import ArrayGeometry, load_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny end-to-end CLI workspace: scene config, datasets, model."""
    root = tmp_path_factory.mktemp("cli")
    scene_cfg = root / "scene.cfg"
    scene_cfg.write_text(
        "n_vert = 2\nn_horiz = 4\nnum_clusters = 4\npaths_per_cluster = 4\n"
        "azimuth_spread = 0.08\nelevation_spread = 0.03\nseed = 3\n")
    train = root / "train.lfbd"
    evalset = root / "eval.lfbd"
    main(["generate", "--config", str(scene_cfg), "--count", "1200",
          "--seed", "1", "--out", str(train), "--normalize"])
    main(["generate", "--config", str(scene_cfg), "--count", "400",
          "--seed", "2", "--out", str(evalset), "--normalize"])
    model = root / "model.lfbm"
    main(["train", "--data", str(train), "--bits", "2", "--constraint",
          "full", "--out", str(model), "--max-iters", "15", "--seed", "0"])
    tmodel = root / "tmodel.lfbm"
    main(["train", "--data", str(train), "--bits", "2", "--constraint",
          "toeplitz", "--out", str(tmodel), "--geometry", "2x4",
          "--max-iters", "15", "--seed", "0"])
    return root


def test_generate_writes_loadable_dataset(workspace):
    ds = load_dataset(workspace / "train.lfbd")
    assert len(ds) == 1200 and ds.dim == 8
    assert ds.normalized


def test_generate_seed_changes_samples(workspace):
    a = load_dataset(workspace / "train.lfbd")
    b = load_dataset(workspace / "eval.lfbd")
    assert not np.array_equal(a.samples[:400], b.samples)


def test_feedback_command_writes_reports(workspace, capsys):
    main(["feedback", "--model", str(workspace / "model.lfbm"),
          "--scheme", "gmm", "--pilots", "4", "--snr-db", "10",
          "--data", str(workspace / "eval.lfbd"), "--geometry", "2x4",
          "--count", "10"])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "user,index,scheme"
    assert len(out) == 11
    for line in out[1:]:
        user, index, scheme = line.split(",")
        assert scheme == "gmm"
        assert 1 <= int(index) <= 4


def test_feedback_command_dft_schemes(workspace, tmp_path):
    out_path = tmp_path / "fb.csv"
    main(["feedback", "--model", str(workspace / "model.lfbm"),
          "--scheme", "dft:omp", "--pilots", "4", "--snr-db", "10",
          "--data", str(workspace / "eval.lfbd"), "--geometry", "2x4",
          "--count", "5", "--out", str(out_path)])
    lines = out_path.read_text().splitlines()
    assert len(lines) == 6


@pytest.mark.parametrize("scheme, model_file", [
    pytest.param(scheme, model_file, id=scheme + suffix)
    for model_file, suffix in (("model.lfbm", ""), ("tmodel.lfbm", "+tmodel"))
    for scheme in ("gmm", "tgmm", "dft:gmm", "dft:tgmm", "dft:lmmse",
                   "dft:omp")])
def test_feedback_command_matches_per_user_inference(workspace, tmp_path,
                                                     monkeypatch, scheme,
                                                     model_file):
    """Either model file serves every scheme; nothing is fitted on demand."""
    def no_fit(*args, **kwargs):
        raise AssertionError("limfb feedback must not fit a model")

    monkeypatch.setattr(evaluate, "fit_em", no_fit)
    out_path = tmp_path / "fb.csv"
    main(["feedback", "--model", str(workspace / model_file),
          "--scheme", scheme, "--pilots", "4", "--snr-db", "10",
          "--data", str(workspace / "eval.lfbd"), "--geometry", "2x4",
          "--train-data", str(workspace / "train.lfbd"),
          "--count", "40", "--seed", "3", "--out", str(out_path)])
    geometry = ArrayGeometry(2, 4)
    model = load_model(workspace / model_file, geometry=geometry)
    setup = build_pilot_matrix(geometry, 4, sigma_n2=0.1)
    obs = project_to_observation(model, setup)
    codebook = build_dft_codebook(geometry, 2)
    mean, cov = sample_moments(load_dataset(workspace / "train.lfbd").samples)
    dictionary = build_omp_dictionary(geometry)
    expected = ["user,index,scheme"]
    channels = load_dataset(workspace / "eval.lfbd").samples[:40]
    for j, h in enumerate(channels.astype(np.complex128)):
        y = observe(setup, h, [3, j])
        if scheme in ("gmm", "tgmm"):
            index = int(np.argmax(obs.log_responsibilities(y))) + 1
        else:
            if scheme in ("dft:gmm", "dft:tgmm"):
                h_hat = estimate_gmm(model, obs, y)
            elif scheme == "dft:lmmse":
                h_hat = estimate_lmmse(mean, cov, setup, y)
            else:
                h_hat = estimate_omp(setup, dictionary, y)
            index = select_codebook_index(codebook, h_hat).index
        expected.append(f"{j},{index},{scheme}")
    assert out_path.read_text().splitlines() == expected


def test_sweep_and_report(workspace, tmp_path, capsys):
    exp_cfg = workspace / "exp.cfg"
    exp_cfg.write_text(
        "n_vert = 2\nn_horiz = 4\n"
        f"train_data = {workspace / 'train.lfbd'}\n"
        f"eval_data = {workspace / 'eval.lfbd'}\n"
        "bits = 2\nusers = 2\npilots = 4\nsnr_db = 10\n"
        "constellations = 4\nschemes = gmm-obs, dft:lmmse\nseed = 9\n"
        f"model.full = {workspace / 'model.lfbm'}\n")
    csv_path = tmp_path / "sweep.csv"
    raw_path = tmp_path / "raw.npy"
    main(["sweep", "--config", str(exp_cfg), "--axis", "pilots",
          "--values", "2,4", "--out", str(csv_path),
          "--dump-raw", str(raw_path)])
    capsys.readouterr()
    assert csv_path.exists() and raw_path.exists()

    main(["report", "--csv", str(csv_path), "--raw", str(raw_path)])
    out = capsys.readouterr().out
    assert "gmm-obs" in out and "recomputed" in out


def _sweep_config(workspace, path, **overrides):
    keys = {"n_vert": 2, "n_horiz": 4,
            "train_data": workspace / "train.lfbd",
            "eval_data": workspace / "eval.lfbd", "bits": 2, "users": 2,
            "pilots": 4, "snr_db": "0,10", "constellations": 3,
            "schemes": "gmm-obs, dft:lmmse", "seed": 9,
            "model.full": workspace / "model.lfbm", **overrides}
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in keys.items()))
    return path


@pytest.mark.parametrize("overrides, extra, match", [
    (dict(rho="nan"), [], "rho must be finite and > 0, got nan"),
    (dict(rho="0"), [], "rho must be finite and > 0"),
    (dict(iters=0), [], "iters must be >= 1"),
    ({}, ["--iters", "0"], "iters must be >= 1"),
    (dict(num_cluster=4), [], "unknown config keys"),
    ({}, ["--values", "2,x"], "invalid literal"),
    ({}, ["--values", "4,9"], r"pilots values must lie in 1..8, got \[9\]"),
    ({}, ["--axis", "users", "--values", "2,500"],
     r"users values must lie in 1..400, got \[500\]"),
    ({}, ["--axis", "iterations", "--values", "0,4"],
     r"iterations values must lie in 1..inf, got \[0\]"),
    ({}, ["--axis", "bits", "--values=-1"],
     r"bits values must lie in 0..inf, got \[-1\]"),
    ({}, ["--axis", "bits", "--values", "2,20"],
     "need at least as many samples as components: K=1048576, 1200 samples"),
], ids=["rho-nan", "rho-zero", "iters-key", "iters-flag", "unknown-key",
        "bad-values", "pilots-range", "users-range", "iterations-range",
        "bits-range", "bits-beyond-training"])
def test_sweep_exits_with_the_message_on_a_bad_config(
        workspace, tmp_path, capsys, overrides, extra, match):
    cfg = _sweep_config(workspace, tmp_path / "bad.cfg", **overrides)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit, match=match):
        main(["sweep", "--config", str(cfg), "--axis", "pilots",
              "--out", str(out), *extra])
    assert not out.exists() and capsys.readouterr().out == ""


def test_bits_sweep_refuses_a_codebook_the_array_cannot_split(
        workspace, tmp_path, capsys, monkeypatch):
    # 16 beams on a 3x4 array: 3 vertical beams leave 16/3 horizontal ones
    scene_cfg = tmp_path / "scene.cfg"
    scene_cfg.write_text(
        "n_vert = 3\nn_horiz = 4\nnum_clusters = 4\npaths_per_cluster = 4\n"
        "azimuth_spread = 0.08\nelevation_spread = 0.03\nseed = 3\n")
    data = tmp_path / "eval.lfbd"
    main(["generate", "--config", str(scene_cfg), "--count", "40",
          "--out", str(data), "--normalize"])
    capsys.readouterr()
    cfg = tmp_path / "dft.cfg"
    cfg.write_text(f"n_vert = 3\nn_horiz = 4\neval_data = {data}\n"
                   "users = 2\npilots = 4\nconstellations = 2\n"
                   "schemes = dft:perfect\n")
    ran = []
    monkeypatch.setattr(evaluate.Experiment, "run_constellation",
                        lambda self, *args, **kwargs: ran.append(args))
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit,
                       match=r"cannot build a 2\^4-entry codebook on a 3x4"):
        main(["sweep", "--config", str(cfg), "--axis", "bits",
              "--values", "2,4", "--out", str(out)])
    assert ran == [] and not out.exists() and capsys.readouterr().out == ""


def test_report_of_one_constellation_has_zero_standard_error(
        workspace, tmp_path, capsys):
    cfg = _sweep_config(workspace, tmp_path / "one.cfg", constellations=1)
    csv_path, raw_path = tmp_path / "one.csv", tmp_path / "one.npy"
    main(["sweep", "--config", str(cfg), "--axis", "snr",
          "--out", str(csv_path), "--dump-raw", str(raw_path)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["report", "--csv", str(csv_path), "--raw", str(raw_path)])
    table, recomputed = capsys.readouterr().out.split("\nrecomputed")
    assert "(1 constellations)" in recomputed and "nan" not in recomputed
    # the recomputed rows repeat the CSV's rows, +-0.000 included
    assert table.splitlines()[1:] == recomputed.splitlines()[1:]
    assert "+-0.000" in table


@pytest.fixture(scope="module")
def pilots_and_snr_dumps(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("dumps")
    cfg = _sweep_config(workspace, root / "exp.cfg")
    paths = {}
    for axis, values in (("pilots", "2,4"), ("snr", "0,10")):
        paths[axis] = (root / f"{axis}.csv", root / f"{axis}.npy")
        main(["sweep", "--config", str(cfg), "--axis", axis,
              "--values", values, "--out", str(paths[axis][0]),
              "--dump-raw", str(paths[axis][1])])
    return paths


def test_report_refuses_a_dump_of_another_sweep(pilots_and_snr_dumps,
                                                 capsys):
    snr_csv, _ = pilots_and_snr_dumps["snr"]
    _, pilots_raw = pilots_and_snr_dumps["pilots"]
    capsys.readouterr()
    with pytest.raises(SystemExit, match="pilots sweep"):
        main(["report", "--csv", str(snr_csv), "--raw", str(pilots_raw)])
    assert "recomputed" not in capsys.readouterr().out


@pytest.mark.parametrize("shape", [(6, 1), (6, 3), (5, 2), (0, 2), (6,)])
def test_report_refuses_a_dump_of_the_wrong_shape(pilots_and_snr_dumps,
                                                  tmp_path, capsys, shape):
    snr_csv, _ = pilots_and_snr_dumps["snr"]
    raw_path = tmp_path / "raw.npy"  # no sidecar: the shape alone decides
    np.save(raw_path, np.ones(shape))
    capsys.readouterr()
    with pytest.raises(SystemExit, match="not a dump of the CSV's snr sweep"):
        main(["report", "--csv", str(snr_csv), "--raw", str(raw_path)])
    assert "recomputed" not in capsys.readouterr().out


def test_report_accepts_a_matching_dump_without_sidecar(
        pilots_and_snr_dumps, tmp_path, capsys):
    snr_csv, snr_raw = pilots_and_snr_dumps["snr"]
    raw_path = tmp_path / "raw.npy"
    raw_path.write_bytes(snr_raw.read_bytes())
    capsys.readouterr()
    main(["report", "--csv", str(snr_csv), "--raw", str(raw_path)])
    assert "recomputed from" in capsys.readouterr().out


def test_sweep_determinism(workspace, tmp_path, capsys):
    exp_cfg = workspace / "det.cfg"
    exp_cfg.write_text(
        "n_vert = 2\nn_horiz = 4\n"
        f"train_data = {workspace / 'train.lfbd'}\n"
        f"eval_data = {workspace / 'eval.lfbd'}\n"
        "bits = 2\nusers = 2\npilots = 4\nsnr_db = 10\n"
        "constellations = 3\nschemes = gmm-obs\nseed = 9\n"
        f"model.full = {workspace / 'model.lfbm'}\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--config", str(exp_cfg), "--axis", "snr",
          "--out", str(a)])
    main(["sweep", "--config", str(exp_cfg), "--axis", "snr",
          "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_rejects_bad_geometry(workspace):
    with pytest.raises(SystemExit):
        main(["train", "--data", str(workspace / "train.lfbd"), "--bits", "2",
              "--constraint", "toeplitz", "--out", "/tmp/x.lfbm",
              "--geometry", "banana"])


def _feedback_args(workspace, *extra):
    return ["feedback", "--model", str(workspace / "model.lfbm"),
            "--scheme", "gmm", "--snr-db", "10",
            "--data", str(workspace / "eval.lfbd"), "--geometry", "2x4",
            *extra]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_feedback_rejects_count_below_one(workspace, capsys, count):
    with pytest.raises(SystemExit, match=f"--count must be >= 1, got {count}"):
        main(_feedback_args(workspace, "--pilots", "4", "--count", count))
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("pilots", ["0", "9"])
def test_feedback_rejects_pilots_outside_the_array(workspace, capsys, pilots):
    with pytest.raises(SystemExit,
                       match=f"pilots must lie in 1..8, got {pilots}"):
        main(_feedback_args(workspace, "--pilots", pilots))
    assert capsys.readouterr().out == ""
