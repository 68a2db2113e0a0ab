"""Command-line entry points: gen, pretrain, eval, bench, synth.

Every command writes a run manifest (resolved config, seed, command line,
git description, timestamps) next to its primary output, and every command
taking --seed is bit-for-bit reproducible. Exit codes: 0 success, 1 user
or environment error (a bad input, or a path that cannot be read or
written), 2 internal failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import format_csv, format_table, run_benchmark
from .container import write_atomic
from .curves import CurveKind
from .dataset import generate_triplets, load_dataset, save_dataset
from .encoder import EncoderConfig, count_params, desk_config, full_scale_config, toy_config
from .errors import ConfigError, OccPointError
from .meshio import load_obj, save_obj
from .synthetic import toy_object_set
from .training import (
    TrainConfig,
    build_cache,
    check_resume,
    embed_clouds,
    linear_probe,
    load_checkpoint,
    run_pretraining,
    save_checkpoint,
    top_k_accuracy,
    use_ema_weights,
    zero_shot_classify,
)

PRESETS = {"desk": desk_config, "toy": toy_config, "full": full_scale_config}


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Python, numpy and BLAS versions, the BLAS thread settings and the CPU
    count: what a run's speed, and a GEMM's last bits, can depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def write_manifest(path: Path, config: dict, seed: int, started: str,
                   finished: str | None = None,
                   command_line: list[str] | None = None) -> None:
    doc = {
        "config": config,
        "seed": seed,
        "git": _git_describe(),
        "environment": _environment(),
        "command_line": command_line if command_line is not None else sys.argv,
        "started": started,
        "finished": finished,
    }
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _encoder_config(args) -> EncoderConfig:
    cfg = PRESETS[args.preset]()
    overrides = {}
    for name in ("l_blocks", "c_dim", "s_tokens", "k_neighbors", "embed_dim"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    for name in ("curve_a", "curve_b"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = CurveKind.from_string(value)
    if getattr(args, "conv_mode", None) is not None:
        overrides["conv_mode"] = args.conv_mode
    return replace(cfg, **overrides) if overrides else cfg


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for object_id, _, mesh in toy_object_set(args.seed):
        save_obj(out_dir / f"{object_id}.obj", mesh)
    print(f"wrote 16 meshes to {out_dir}")
    return 0


def cmd_gen(args) -> int:
    started = _now()
    mesh_dir = Path(args.meshes)
    if not mesh_dir.is_dir():
        print(f"error: mesh directory {mesh_dir} does not exist", file=sys.stderr)
        return 1
    meshes = []
    for path in sorted(mesh_dir.glob("*.obj")):
        # Class label is the filename up to the last underscore-separated tag.
        class_name = path.stem.rsplit("_", 1)[0]
        try:
            meshes.append((path.stem, class_name, load_obj(path)))
        except OccPointError as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
    if not meshes:
        print("error: no readable meshes", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset, summary = generate_triplets(
        meshes, feature_dim=args.embed_dim, resolution=args.resolution,
        n_points=args.points, seed=args.seed, with_summary=True,
    )
    save_dataset(out, dataset)
    write_manifest(out.with_suffix(".manifest.json"),
                   {"resolution": args.resolution, "points": args.points,
                    "embed_dim": args.embed_dim, "meshes": len(meshes)},
                   args.seed, started, _now(), command_line=args._argv)
    print(f"objects: {summary.objects}  views: {summary.views}  "
          f"points/cloud: {summary.points_per_cloud}  "
          f"mean visible fraction: {summary.mean_visible_fraction:.3f}")
    print(f"wrote {out}")
    return 0


def cmd_pretrain(args) -> int:
    started = _now()
    dataset = load_dataset(args.data)
    encoder_config = _encoder_config(args)
    if encoder_config.embed_dim != dataset.feature_dim:
        encoder_config = replace(encoder_config, embed_dim=dataset.feature_dim)
    model = load_checkpoint(args.resume) if args.resume else None
    warmup = args.warmup_epochs
    if warmup is None:
        # A fresh run warms up for 10 epochs or all of them; a resume keeps
        # the checkpoint's warmup, so extending a run needs no extra flag.
        warmup = model.train_config.warmup_epochs if model else min(10, args.epochs)
    train_config = TrainConfig(
        batch_size=args.batch_size, epochs=args.epochs, warmup_epochs=warmup,
        base_lr=args.lr, seed=args.seed, holdout_views=args.holdout_views,
    )
    if model is not None:
        check_resume(model, encoder_config, train_config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest_path = out.with_suffix(".manifest.json")
    resolved = {
        "encoder_config": encoder_config.to_dict(),
        "train_config": train_config.to_dict(),
        "full_scale_params": count_params(full_scale_config()),
        "preset_params": count_params(encoder_config),
    }
    write_manifest(manifest_path, resolved, args.seed, started,
                   command_line=args._argv)

    metrics_path = out.with_suffix(".metrics.jsonl")
    t0 = time.time()
    with open(metrics_path, "w") as fh:
        model, metrics = run_pretraining(
            dataset, encoder_config, train_config, model=model,
            log=lambda row: fh.write(json.dumps(row) + "\n"),
        )
    save_checkpoint(out, model)
    write_manifest(manifest_path, resolved, args.seed, started, _now(),
                   command_line=args._argv)
    final = metrics[-1]["loss"] if metrics else float("nan")
    print(f"trained {len(metrics)} steps in {time.time() - t0:.1f}s; "
          f"final loss {final:.4f}")
    print(f"wrote {out} and {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    started = _now()
    dataset = load_dataset(args.data)
    model = load_checkpoint(args.checkpoint)
    if model.encoder_config.embed_dim != dataset.feature_dim:
        raise ConfigError(
            f"checkpoint embed_dim {model.encoder_config.embed_dim} != "
            f"dataset feature dim {dataset.feature_dim}"
        )
    train_set, heldout = dataset.split_views(model.train_config.holdout_views)
    if not heldout.records:
        raise ConfigError(
            f"dataset has no held-out views (the last "
            f"{model.train_config.holdout_views} view ids) to evaluate on"
        )
    caches = build_cache(heldout, model.encoder_config)
    labels = np.array([c.label for c in caches])
    params = model.params()
    report = {}
    with use_ema_weights(params, model.ema):
        z = embed_clouds(caches, model)
        if args.mode in ("zero-shot", "both"):
            ranked = zero_shot_classify(z, dataset.class_features, model.heads)
            for k in (1, 3, 5):
                report[f"top{k}"] = top_k_accuracy(ranked, labels, k)
        if args.mode in ("probe", "both"):
            train_caches = build_cache(train_set, model.encoder_config)
            train_z = embed_clouds(train_caches, model)
            train_labels = np.array([c.label for c in train_caches])
            for shot in (1, 2, 4, 8, 16):
                report[f"probe_{shot}shot"] = linear_probe(
                    train_z, train_labels, z, labels, shot, seed=args.seed,
                )
    for key, value in report.items():
        print(f"{key}: {value:.4f}")
    if args.out:
        write_atomic(args.out, json.dumps(report, indent=2) + "\n")
        write_manifest(Path(args.out).with_suffix(".manifest.json"),
                       {"checkpoint": str(args.checkpoint), "mode": args.mode},
                       args.seed, started, _now(), command_line=args._argv)
    return 0


def cmd_bench(args) -> int:
    started = _now()
    config = _encoder_config(args)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    rows = run_benchmark(config, sizes=sizes, runs=args.runs, seed=args.seed)
    print(format_table(rows))
    if args.out:
        write_atomic(args.out, format_csv(rows))
        write_manifest(Path(args.out).with_suffix(".manifest.json"),
                       {"config": config.to_dict(), "sizes": sizes, "runs": args.runs},
                       args.seed, started, _now(), command_line=args._argv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occpoint",
        description="Occlusion-aware point cloud pretraining pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write the 16-object toy mesh set as OBJ files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gen", help="render meshes into a triplet dataset container")
    p.add_argument("--meshes", required=True, help="directory of OBJ files")
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=128,
                   help="render resolution (512 reproduces the full-scale setting)")
    p.add_argument("--points", type=int, default=2048)
    p.add_argument("--embed-dim", type=int, default=64, dest="embed_dim")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("pretrain", help="train the encoder on a dataset container")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--preset", choices=sorted(PRESETS), default="toy")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--warmup-epochs", type=int, default=None, dest="warmup_epochs",
                   help="default: min(10, epochs), or the checkpoint's on --resume")
    p.add_argument("--batch-size", type=int, default=8, dest="batch_size")
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--holdout-views", type=int, default=2, dest="holdout_views")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("eval", help="zero-shot / linear-probe evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("zero-shot", "probe", "both"), default="zero-shot")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "bench", help="FLOPs table and measured forward latency",
        description="Analytic FLOPs and measured forward latency per token count.",
        epilog="CSV columns: s_tokens (token count), encoder_gflops (analytic "
               "forward GFLOPs), attention_gflops (analytic attention-equivalent "
               "GFLOPs at the same L, C), latency_ms (median forward wall time).",
    )
    p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    p.add_argument("--sizes", default="128,256,512,1024,2048")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    for sp in sub.choices.values():
        for name in ("l_blocks", "c_dim", "s_tokens", "k_neighbors"):
            if not any(a.dest == name for a in sp._actions):
                sp.add_argument(f"--{name.replace('_', '-')}", type=int,
                                default=None, dest=name, help=argparse.SUPPRESS)
        for name, choices in (("curve_a", None), ("curve_b", None),
                              ("conv_mode", ("standard", "causal", "none"))):
            if not any(a.dest == name for a in sp._actions):
                sp.add_argument(f"--{name.replace('_', '-')}", default=None,
                                dest=name, choices=choices, help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["occpoint"] + (list(argv) if argv is not None else sys.argv[1:])
    try:
        return args.fn(args)
    except OccPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # A path that cannot be read or written, or a full disk: the user's
        # or the environment's to fix, not an internal failure.
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
