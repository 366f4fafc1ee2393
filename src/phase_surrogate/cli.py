"""Command-line workflow driver.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Every subcommand validates inputs up front and writes outputs atomically,
so a failed run leaves no partial files behind.
"""

import argparse
import io
import json
import os
import sys

from .errors import (CompletenessError, ConfigurationError, ContractError,
                     DivergenceError, RangeError, ShapeError,
                     UndefinedMetricError)

_USAGE_ERRORS = (ConfigurationError, RangeError)
_RUNTIME_ERRORS = (ContractError, CompletenessError, ShapeError,
                   DivergenceError, UndefinedMetricError, OSError)


def _set_thread_env():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="phase",
        description="Surrogate workflow: simulate, build data, train, "
                    "evaluate, ablate, transfer, restart-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="simulate a world and save it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    p.add_argument("--years", type=int, default=20)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("build-dataset", help="turn a world into a train/test dataset")
    p.add_argument("--world", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--window-years", type=int, default=None)

    p = sub.add_parser("train", help="fit a surrogate on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--variant", default=None)
    p.add_argument("--log", default=None, help="loss log CSV path")

    p = sub.add_parser("eval", help="score a model on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("ablate", help="train and compare all variants")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", required=True, help="comparison table CSV")
    p.add_argument("--config", default=None)

    p = sub.add_parser("fine-tune", help="adapt a model to a new grid")
    p.add_argument("--model", required=True)
    p.add_argument("--data-fine", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--log", default=None)

    p = sub.add_parser("restart-check",
                       help="predict pools, restart the simulator, "
                            "report drift and speedup")
    p.add_argument("--model", required=True)
    p.add_argument("--world", required=True)
    p.add_argument("--out", required=True, help="drift CSV path")
    p.add_argument("--years", type=int, default=100)
    p.add_argument("--restart-out", default=None)
    p.add_argument("--ood-strict", action="store_true")

    p = sub.add_parser("inspect-attention",
                       help="dump fusion attention for one sample")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--out", required=True)

    sub.add_parser("config", help="print the default configuration")
    return parser


def _world_path(arg):
    if os.path.isdir(arg):
        return os.path.join(arg, "world.phw")
    return arg


def _load_configs(path):
    from .model import ModelConfig, config_from_file
    from .training import TrainConfig
    mc_dict, tc_dict = config_from_file(path) if path else ({}, {})
    return ModelConfig.from_dict(mc_dict), TrainConfig.from_dict(tc_dict)


def _cmd_gen_data(args):
    from . import simulator
    grid = simulator.grid_spec(args.grid)
    world = simulator.generate_world(args.seed, grid, args.years)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "world.phw")
    simulator.save_world(world, path)
    print(f"wrote {path}: {world.n_cells} land cells, "
          f"{args.years} yr window")
    return 0


def _cmd_build_dataset(args):
    from . import pipeline, simulator
    world = simulator.load_world(_world_path(args.world))
    samples = simulator.export_samples(world, args.window_years)
    meta = {"seed": world.seed, "years": world.years,
            "grid": [world.grid.n_lat, world.grid.n_lon,
                     world.grid.resolution_deg]}
    dataset = pipeline.build_dataset(samples, args.seed, args.out,
                                     world_meta=meta)
    print(f"wrote {args.out}: {dataset.train.n} train / "
          f"{dataset.test.n} test samples")
    return 0


def _default_log(out):
    return os.path.splitext(out)[0] + "_log.csv"


def _cmd_train(args):
    from . import pipeline
    from .ablation import build_variant
    from .training import train
    model_cfg, train_cfg = _load_configs(args.config)
    if args.variant is not None:
        model_cfg, train_cfg = build_variant(args.variant, model_cfg,
                                             train_cfg)
    dataset = pipeline.load_dataset(args.data)
    log = args.log or _default_log(args.out)
    model = train(train_cfg, dataset, model_config=model_cfg,
                  history_path=log)
    model.save(args.out)
    # the saved weights are the best epoch's: the first with the lowest
    # validation loss
    epoch, _, val, _ = min(model.history, key=lambda row: row[2])
    print(f"wrote {args.out}: {len(model.history)} epochs, "
          f"restored epoch {epoch} with val loss {val:.6f}")
    return 0


def _cmd_eval(args):
    from . import ood, pipeline
    from .metrics import evaluate, export_report
    from .model import Surrogate
    model = Surrogate.load(args.model)
    dataset = pipeline.load_dataset(args.data)
    report = evaluate(model, dataset, args.split)
    os.makedirs(args.out, exist_ok=True)
    export_report(report, args.out)
    if model.ood_stats is not None:
        part = dataset.split(args.split)
        flags, scores, reasons = ood.check(report.latent, part.groups,
                                           model.ood_stats, model.feature_stats)
        ood.write_report_csv(os.path.join(args.out, "ood.csv"),
                             part.cell_id, flags, scores, reasons)
    print(f"wrote {args.out}: mean slow-task R^2 = {report.mean_r2():.4f}")
    return 0


def _cmd_ablate(args):
    from . import pipeline
    from .ablation import run_ablation_suite
    model_cfg, train_cfg = _load_configs(args.config)
    dataset = pipeline.load_dataset(args.data)
    result = run_ablation_suite(dataset, range(args.seeds),
                                model_config=model_cfg,
                                train_config=train_cfg, out_csv=args.out)
    full = result["mean_r2"]["full"]
    print(f"wrote {args.out}: full-model mean R^2 = {full:.4f}")
    return 0


def _cmd_fine_tune(args):
    from . import pipeline
    from .model import Surrogate
    from .training import fine_tune
    _, train_cfg = _load_configs(args.config)
    model = Surrogate.load(args.model)
    dataset = pipeline.load_dataset(args.data_fine)
    log = args.log or _default_log(args.out)
    tuned = fine_tune(model, dataset, args.fraction, train_cfg,
                      history_path=log)
    tuned.save(args.out)
    print(f"wrote {args.out}: tuned on {args.fraction:.0%} of "
          f"{dataset.train.n} samples")
    return 0


def _write_drift_csv(path, report):
    import numpy as np
    from . import blobio
    buf = io.StringIO()
    buf.write("name,pool,value\n")
    for section in ("before", "after", "drift"):
        table = getattr(report, section)
        for pool, stats in table.items():
            buf.write(f"{section}_median,{pool},{stats['median']!r}\n")
            buf.write(f"{section}_max,{pool},{stats['max']!r}\n")
    buf.write(f"window_years,,{report.window_years}\n")
    buf.write(f"restart_years,,{report.years}\n")
    buf.write(f"cold_start_years_min,,{float(report.cold_start_years.min())!r}\n")
    buf.write(f"warm_start_years_median,,{float(np.median(report.warm_start_years))!r}\n")
    buf.write(f"speedup_min,,{report.speedup_min!r}\n")
    buf.write(f"speedup_median,,{report.speedup_median!r}\n")
    blobio.atomic_write_bytes(path, buf.getvalue().encode("ascii"))


def _cmd_restart_check(args):
    from . import blobio, ood, pipeline, simulator
    from .heads import denormalize
    from .model import Surrogate
    world = simulator.load_world(_world_path(args.world))
    model = Surrogate.load(args.model)
    samples = simulator.export_samples(world, model.config.window_months // 12)
    preds, z = model.predict(samples.groups)

    if model.ood_stats is not None:
        flags, scores, reasons = ood.check(z, samples.groups, model.ood_stats,
                                           model.feature_stats)
        ood_path = os.path.splitext(args.out)[0] + "_ood.csv"
        ood.write_report_csv(ood_path, samples.cell_id, flags, scores,
                             reasons)
        if args.ood_strict and flags.any():
            raise ContractError(
                f"{int(flags.sum())} of {len(flags)} cells flagged "
                f"out-of-distribution; refusing to export a restart file")

    slow = denormalize({t: preds[t] for t in pipeline.SLOW_TASKS},
                       model.target_stats)
    restart_path = args.restart_out or os.path.splitext(args.out)[0] + ".phr"
    blobio.write_restart(restart_path, samples.cell_id, slow, world.n_pft,
                         world.n_layers)
    initial, _ = simulator.load_restart_state(world, restart_path)
    _, report = simulator.restart_run(initial, world, years=args.years)
    _write_drift_csv(args.out, report)
    drift_max = max(s["max"] for s in report.drift.values())
    print(f"wrote {args.out}: spin-up speedup median "
          f"{report.speedup_median:.3g}x (min {report.speedup_min:.3g}x), "
          f"slow-pool drift max {drift_max:.2%}")
    return 0


def _cmd_inspect_attention(args):
    from . import blobio, pipeline
    from .model import Surrogate, active_branches
    model = Surrogate.load(args.model)
    dataset = pipeline.load_dataset(args.data)
    part = dataset.split("test")
    if not 0 <= args.sample < part.n:
        raise RangeError(f"sample {args.sample} outside test split of "
                         f"{part.n}")
    row = part.take(slice(args.sample, args.sample + 1))
    weights = model.attention_weights(row.groups)[0]
    names = active_branches(model.config.variant)
    buf = io.StringIO()
    buf.write("head,query_group,key_group,weight\n")
    for h in range(weights.shape[0]):
        for qi, q in enumerate(names):
            for ki, k in enumerate(names):
                buf.write(f"{h},{q},{k},{float(weights[h, qi, ki])!r}\n")
    blobio.atomic_write_bytes(args.out, buf.getvalue().encode("ascii"))
    print(f"wrote {args.out}: {weights.shape[0]} heads x "
          f"{len(names)} groups")
    return 0


def _cmd_config(args):
    from .model import ModelConfig
    from .training import TrainConfig
    defaults = {"model": ModelConfig().to_dict(),
                "train": TrainConfig().to_dict()}
    print(json.dumps(defaults, indent=2, sort_keys=True))
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "build-dataset": _cmd_build_dataset,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "fine-tune": _cmd_fine_tune,
    "restart-check": _cmd_restart_check,
    "inspect-attention": _cmd_inspect_attention,
    "config": _cmd_config,
}


def main(argv=None):
    _set_thread_env()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return _HANDLERS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
