"""Command line interface: generate / train / feedback / sweep / report."""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .evaluate import (DFT_ESTIMATORS, MIXTURE_FAMILIES, SWEEP_AXES,
                       Experiment, ExperimentConfig, axis_values, dump_raw,
                       emit_csv, mean_and_se, parse_scheme, read_sweep_csv,
                       run_sweep)
from .feedback import observe
from .gmm import EmOptions, fit_em, load_model, save_model
from .scene import (ArrayGeometry, generate_channels, load_dataset,
                    load_scene_config, normalize_dataset, save_dataset)

# feedback from pilot observations: every scheme but dft:perfect, as tags
FEEDBACK_SCHEMES = (*MIXTURE_FAMILIES, *(f"dft:{name}" for name in DFT_ESTIMATORS
                                         if name != "perfect"))


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
    if args.bits < 0:
        raise SystemExit(f"--bits must be >= 0, got {args.bits}")
    dataset = load_dataset(args.data)
    if not dataset.normalized:
        dataset = normalize_dataset(dataset)
    try:
        options = EmOptions(max_iters=args.max_iters,
                            rel_loglik_tol=args.tol, seed=args.seed)
        model = fit_em(dataset, 2 ** args.bits, constraint=args.constraint,
                       options=options, geometry=args.geometry)
    except ValueError as exc:
        raise SystemExit(str(exc))
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
    tag = (f"{args.scheme}-obs" if args.scheme in MIXTURE_FAMILIES
           else args.scheme)
    # The model file serves the family the scheme names, whatever constraint
    # it was fitted under, so the experiment never fits a model on demand.
    constraint = parse_scheme(tag)[1] or "full"
    try:
        config = ExperimentConfig(
            geometry=args.geometry, train_data=args.train_data,
            eval_data=args.data, bits=bits, users=1, pilots=args.pilots,
            snr_db=(args.snr_db,))
        experiment = Experiment(config, models={(constraint, bits): model})
    except ValueError as exc:
        raise SystemExit(str(exc))
    # With the model registered, only a missing training set can block.
    blocker = experiment.scheme_blocker(tag, bits)
    if blocker:
        raise SystemExit(f"{args.scheme}: {blocker}; pass --train-data")
    setup = experiment.pilot_setup(args.pilots, config.sigma_n2)

    dataset = experiment.eval
    count = len(dataset) if args.count is None else min(args.count,
                                                        len(dataset))
    channels = dataset.samples[:count].astype(np.complex128)
    observations = np.array(
        [observe(setup, h, [args.seed, j]) for j, h in enumerate(channels)],
        dtype=np.complex128).reshape(count, setup.n_pilots)
    indices = experiment.feedback(tag, bits, setup, channels, observations)
    lines = ["user,index,scheme"] + [f"{j},{k},{args.scheme}"
                                     for j, k in enumerate(indices)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {count} feedback reports to {args.out}")
    else:
        sys.stdout.write(text)


def _cmd_sweep(args):
    overrides = {}
    for name in ("iters", "seed"):
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    values = None
    try:
        config = replace(ExperimentConfig.from_file(args.config), **overrides)
        experiment = Experiment(config)
        if args.values:
            caster = float if args.axis == "snr" else int
            values = [caster(v) for v in args.values.split(",")]
        values = axis_values(experiment, args.axis, values)
    except ValueError as exc:
        raise SystemExit(str(exc))
    result = run_sweep(experiment, args.axis, values=values)
    emit_csv(result, args.out)
    for tag, reasons in result.metadata["skipped"].items():
        if tag in result.schemes:  # it ran at the other points
            for value, reason in reasons.items():
                print(f"skipped {tag} at {args.axis} {value:g}: {reason}")
        else:
            for reason in dict.fromkeys(reasons.values()):
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
        _print_row(widths, row[0], row[1::2], row[2::2])
    if args.raw:
        raw = _load_raw(args.raw, axis, schemes, len(rows))
        n_const = raw.shape[0] // len(rows)
        print(f"\nrecomputed from {args.raw} ({n_const} constellations):")
        # row v * C + i of the dump -> [axis value v, scheme, constellation i]
        means, ses = mean_and_se(
            raw.reshape(len(rows), n_const, len(schemes)).transpose(0, 2, 1))
        for row, row_means, row_ses in zip(rows, means, ses):
            _print_row(widths, row[0], row_means, row_ses)


def _print_row(widths, value, means, ses):
    line = f"{value:g}".ljust(widths[0])
    for width, mean, se in zip(widths[1:], means, ses):
        line += f"{mean:.3f}+-{se:.3f}".rjust(width)
    print(line)


def _load_raw(path, axis, schemes, n_values):
    """The raw dump of the sweep in the CSV; exits on a dump of another."""
    raw = np.load(path)
    head = {"axis": axis, "schemes": schemes}  # unless a sidecar says
    if os.path.exists(f"{path}.jsonl"):
        with open(f"{path}.jsonl", "r", encoding="utf-8") as fh:
            head = json.loads(fh.readline())
    if (raw.ndim != 2 or raw.shape[1] != len(schemes) or not raw.shape[0]
            or not n_values or raw.shape[0] % n_values
            or head["axis"] != axis or head["schemes"] != schemes):
        raise SystemExit(
            f"{path} is not a dump of the CSV's {axis} sweep of {schemes} "
            f"at {n_values} points: it holds {raw.shape} rates of a "
            f"{head['axis']} sweep of {head['schemes']}")
    return raw


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
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated axis values")
    p_sweep.add_argument("--dump-raw", default=None,
                         help="path for the per-constellation raw dump")
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
