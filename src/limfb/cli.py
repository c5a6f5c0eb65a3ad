"""Command line interface: generate / train / feedback / sweep / report."""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .evaluate import (Experiment, ExperimentConfig, dump_raw, emit_csv,
                       read_sweep_csv, run_sweep)
from .feedback import observe
from .gmm import EmOptions, fit_em, load_model, save_model
from .scene import (ArrayGeometry, generate_channels, load_dataset,
                    load_scene_config, normalize_dataset, save_dataset)

FEEDBACK_SCHEMES = ("gmm", "tgmm", "dft:gmm", "dft:tgmm", "dft:lmmse",
                    "dft:omp")


def _parse_geometry(text):
    try:
        n_vert, n_horiz = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"geometry must look like '4x16', got {text!r}")
    return ArrayGeometry(n_vert, n_horiz)


def _cmd_generate(args):
    config = load_scene_config(args.config)
    dataset = generate_channels(config, args.count, sample_seed=args.seed)
    if args.normalize:
        dataset = normalize_dataset(dataset)
    save_dataset(dataset, args.out)
    print(f"wrote {args.count} channels of dim {config.geometry.n} "
          f"to {args.out}")


def _cmd_train(args):
    dataset = load_dataset(args.data)
    if not dataset.normalized:
        dataset = normalize_dataset(dataset)
    options = EmOptions(max_iters=args.max_iters, rel_loglik_tol=args.tol,
                        seed=args.seed)
    model = fit_em(dataset, 2 ** args.bits, constraint=args.constraint,
                   options=options, geometry=args.geometry)
    save_model(model, args.out)
    lls = model.fit_log_likelihoods
    print(f"fit {args.constraint} mixture with K={2 ** args.bits} in "
          f"{len(lls)} iterations (avg log-lik {lls[-1]:.4f}); "
          f"wrote {args.out}")


def _cmd_feedback(args):
    if args.count is not None and args.count < 1:
        raise SystemExit(f"--count must be >= 1, got {args.count}")
    model = load_model(args.model, geometry=args.geometry)
    bits = int(round(np.log2(model.n_components)))
    # The model file serves the family the scheme names, whatever constraint
    # it was fitted under, so the experiment never fits a model on demand.
    constraint = "toeplitz" if args.scheme.endswith("tgmm") else "full"
    try:
        config = ExperimentConfig(
            geometry=args.geometry, train_data=args.train_data,
            eval_data=args.data, bits=bits, users=1, pilots=args.pilots)
        experiment = Experiment(config, models={(constraint, bits): model})
    except ValueError as exc:
        raise SystemExit(str(exc))
    tag = (args.scheme if args.scheme.startswith("dft:")
           else f"{args.scheme}-obs")
    # With the model registered, only a missing training set can block.
    blocker = experiment.scheme_blocker(tag, bits)
    if blocker:
        raise SystemExit(f"{args.scheme}: {blocker}; pass --train-data")
    sigma_n2 = 1.0 / 10.0 ** (args.snr_db / 10.0)
    setup = experiment.pilot_setup(args.pilots, sigma_n2)

    dataset = experiment.eval
    count = len(dataset) if args.count is None else min(args.count,
                                                        len(dataset))
    channels = dataset.samples[:count].astype(np.complex128)
    observations = np.array(
        [observe(setup, h, [args.seed, j]) for j, h in enumerate(channels)],
        dtype=np.complex128).reshape(count, setup.n_pilots)
    reports = experiment.feedback(tag, bits, setup, channels, observations)
    lines = ["user,index,scheme"] + [f"{r.user},{r.index},{args.scheme}"
                                     for r in reports]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {count} feedback reports to {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_sweep(args):
    config = ExperimentConfig.from_file(args.config)
    overrides = {}
    if args.precoder:
        overrides["precoder"] = args.precoder
    if args.iters is not None:
        overrides["iters"] = args.iters
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = replace(config, **overrides)
    experiment = Experiment(config)
    values = None
    if args.values:
        caster = float if args.axis == "snr" else int
        values = [caster(v) for v in args.values.split(",")]
    result = run_sweep(experiment, args.axis, values=values)
    emit_csv(result, args.out)
    if result.metadata["skipped"]:
        for tag, reason in result.metadata["skipped"].items():
            print(f"skipped {tag}: {reason}")
    if args.dump_raw:
        dump_raw(result, args.dump_raw)
    print(f"wrote {len(result.values)} axis points x "
          f"{len(result.schemes)} schemes to {args.out} "
          f"({result.metadata['runtime_s']:.1f}s)")


def _cmd_report(args):
    axis, header, rows = read_sweep_csv(args.csv)
    schemes = [name[:-5] for name in header[1:] if name.endswith("_mean")]
    widths = [max(10, len(axis))] + [max(14, len(s) + 2) for s in schemes]
    line = axis.ljust(widths[0])
    for width, scheme in zip(widths[1:], schemes):
        line += scheme.rjust(width)
    print(line)
    for row in rows:
        line = f"{row[0]:g}".ljust(widths[0])
        for s_idx, width in enumerate(widths[1:]):
            mean, se = row[1 + 2 * s_idx], row[2 + 2 * s_idx]
            line += f"{mean:.3f}+-{se:.3f}".rjust(width)
        print(line)
    if args.raw:
        values = np.load(args.raw)
        n_rows = len(rows)
        n_const = values.shape[0] // n_rows
        print(f"\nrecomputed from {args.raw} ({n_const} constellations):")
        for v_idx in range(n_rows):
            block = values[v_idx * n_const:(v_idx + 1) * n_const]
            means = block.mean(axis=0)
            ses = block.std(axis=0, ddof=1) / np.sqrt(n_const)
            line = f"{rows[v_idx][0]:g}".ljust(widths[0])
            for s_idx, width in enumerate(widths[1:]):
                line += f"{means[s_idx]:.3f}+-{ses[s_idx]:.3f}".rjust(width)
            print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="limfb",
        description="Limited-feedback multi-user MIMO simulation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    p_gen.add_argument("--config", required=True,
                       help="scene config file (flat key = value)")
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=None,
                       help="sample seed (default: the scene seed)")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--normalize", action="store_true",
                       help="normalize so the mean of ||h||^2 equals N")
    p_gen.set_defaults(func=_cmd_generate)

    p_train = sub.add_parser("train", help="fit a mixture model")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--bits", type=int, required=True)
    p_train.add_argument("--constraint", choices=("full", "toeplitz"),
                         default="full")
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--geometry", type=_parse_geometry, default=None,
                         help="array shape VxH (required for toeplitz)")
    p_train.add_argument("--max-iters", type=int, default=100)
    p_train.add_argument("--tol", type=float, default=1e-6)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.set_defaults(func=_cmd_train)

    p_fb = sub.add_parser("feedback", help="compute feedback indices")
    p_fb.add_argument("--model", required=True)
    p_fb.add_argument("--scheme", choices=FEEDBACK_SCHEMES, required=True)
    p_fb.add_argument("--pilots", type=int, required=True)
    p_fb.add_argument("--snr-db", type=float, required=True)
    p_fb.add_argument("--data", required=True,
                      help="dataset of channels to report feedback for")
    p_fb.add_argument("--geometry", type=_parse_geometry, required=True)
    p_fb.add_argument("--train-data", default=None,
                      help="training dataset (dft:lmmse statistics)")
    p_fb.add_argument("--count", type=int, default=None)
    p_fb.add_argument("--seed", type=int, default=0)
    p_fb.add_argument("--out", default=None)
    p_fb.set_defaults(func=_cmd_feedback)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    p_sweep.add_argument("--config", required=True,
                         help="experiment config file (flat key = value)")
    p_sweep.add_argument("--axis", required=True,
                         choices=("snr", "pilots", "bits", "users",
                                  "iterations"))
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated axis values")
    p_sweep.add_argument("--dump-raw", default=None,
                         help="path for the per-constellation raw dump")
    p_sweep.add_argument("--precoder", choices=("rci", "swmmse"), default=None)
    p_sweep.add_argument("--iters", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("report", help="print a sweep CSV as a table")
    p_rep.add_argument("--csv", required=True)
    p_rep.add_argument("--raw", default=None,
                       help="raw dump to recompute the statistics from")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    args.func(args)
    return 0
