"""Command-line entry points: gen, pretrain, eval, bench, synth, inspect.

gen, pretrain, and eval and bench given --out, write a run manifest (resolved
config, seed, command line, git description, timestamps) beside their output,
as `<out name>.manifest.json`. Every command taking --seed is bit-for-bit
reproducible. Exit codes: 0 success, 1 user or environment error (a bad input
or command line, or a path that cannot be read or written), 2 internal failure.
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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .bench import format_csv, format_table, run_benchmark
from .container import VERSION, dtype_name, read_container_file, write_atomic
from .dataset import N_VIEWS, generate_triplets, load_dataset, save_dataset
from .encoder import (CONV_MODES, EncoderConfig, count_params, desk_config,
                      full_scale_config, toy_config)
from .errors import ConfigError, OccPointError
from .meshio import load_obj, save_obj
from .synthetic import toy_object_set
from .training import (
    TrainConfig,
    build_cache,  # noqa: F401  perfbench's tracer wraps cli.build_cache by name
    check_resume,
    embed_clouds,
    epoch_steps,
    linear_probe,
    load_checkpoint,
    load_or_build_cache,
    run_pretraining,
    save_checkpoint,
    split_tokens,
    top_k_accuracy,
    use_ema_weights,
    zero_shot_classify,
)

PRESETS = {"desk": desk_config, "toy": toy_config, "full": full_scale_config}

# Hidden encoder overrides of `pretrain` and `bench`, by EncoderConfig field.
ENCODER_FLAGS = ("l_blocks", "c_dim", "s_tokens", "k_neighbors", "curve_a", "curve_b",
                 "conv_mode")


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
                   finished: str | None = None, *, command_line: list[str],
                   inputs: dict | None = None) -> None:
    doc = {
        "config": config,
        "seed": seed,
        "git": _git_describe(),
        "environment": _environment(),
        "command_line": command_line,
        "started": started,
        "finished": finished,
    }
    if inputs is not None:
        doc["inputs"] = inputs
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _encoder_config(args) -> EncoderConfig:
    """The preset with the hidden encoder flags of `pretrain` and `bench` applied."""
    doc = PRESETS[args.preset]().to_dict()
    doc.update((name, getattr(args, name)) for name in ENCODER_FLAGS
               if getattr(args, name) is not None)
    return EncoderConfig.from_dict(doc)


def _file_ids(files) -> dict:
    """The existing ones of `files` by (device, inode), which all names of a file share."""
    return {(st.st_dev, st.st_ino): f for f in files if os.path.exists(f)
            for st in [os.stat(f)]}


def _outputs(args, input_files, *suffixes: str) -> list:
    """A command's files, declared before any work starts: the output `args.out`,
    a function writing its run manifest `<out name>.manifest.json`, and
    `<out name><suffix>` per suffix. An output that is an input file or the
    manifest beside one is refused; then the output's directory is made."""
    started, out = _now(), Path(args.out)
    paths = [out] + [Path(f"{out}{s}") for s in (".manifest.json", *suffixes)]
    written = _file_ids(paths)  # only an output that exists already can be an input
    kept = _file_ids(k for i in input_files if i and written for k in (i, f"{i}.manifest.json"))
    for key, path in written.items():
        if key in kept:
            raise ConfigError(f"output {path} would overwrite {kept[key]}")
    out.parent.mkdir(parents=True, exist_ok=True)

    def manifest(config: dict, finished: str | None = None, inputs: dict | None = None):
        write_manifest(paths[1], config, args.seed, started, finished,
                       command_line=args._argv, inputs=inputs)
    return [out, manifest, *paths[2:]]


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for object_id, _, mesh in toy_object_set(args.seed):
        save_obj(out_dir / f"{object_id}.obj", mesh)
    print(f"wrote 16 meshes to {out_dir}")
    return 0


def cmd_gen(args) -> int:
    mesh_dir = Path(args.meshes)
    if not mesh_dir.is_dir():
        raise ConfigError(f"mesh directory {mesh_dir} does not exist")
    paths = sorted(mesh_dir.glob("*.obj"))
    out, manifest = _outputs(args, paths)
    meshes = []
    for path in paths:
        # Class label is the filename up to the last underscore-separated tag.
        class_name = path.stem.rsplit("_", 1)[0]
        try:
            meshes.append((path.stem, class_name, load_obj(path)))
        except OccPointError as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
    if not meshes:
        raise ConfigError("no readable meshes")

    dataset, visible = generate_triplets(
        meshes, feature_dim=args.embed_dim, resolution=args.resolution,
        n_points=args.points, seed=args.seed, with_summary=True,
    )
    save_dataset(out, dataset)
    manifest({"resolution": args.resolution, "points": args.points,
              "embed_dim": args.embed_dim, "meshes": len(meshes)}, _now())
    print(f"objects: {len(meshes)}  views: {N_VIEWS}  points/cloud: {args.points}  "
          f"mean visible fraction: {visible:.3f}")
    print(f"wrote {out}")
    return 0


def cmd_pretrain(args) -> int:
    out, manifest, metrics_path = _outputs(args, [args.data, args.resume], ".metrics.jsonl")
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
    tokens, inputs = load_or_build_cache(args.data, dataset, encoder_config)
    tokens, _ = split_tokens(dataset, tokens, train_config.holdout_views)
    # Refuses an unusable split, or a resume past the run's end, before any file is written.
    epoch_steps(tokens, train_config, model.step if model else 0)
    resolved = {
        "encoder_config": encoder_config.to_dict(),
        "train_config": train_config.to_dict(),
        "full_scale_params": count_params(full_scale_config()),
        "preset_params": count_params(encoder_config),
    }
    manifest(resolved, inputs=inputs)

    t0 = time.time()
    with open(metrics_path, "w") as fh:
        model, metrics = run_pretraining(
            dataset, encoder_config, train_config, model=model,
            log=lambda row: fh.write(json.dumps(row) + "\n"), tokens=tokens,
        )
    save_checkpoint(out, model)
    manifest(resolved, _now(), inputs)
    if metrics:
        print(f"trained {len(metrics)} steps in {time.time() - t0:.1f}s; "
              f"final loss {metrics[-1]['loss']:.4f}")
    else:
        print(f"no step ran; the checkpoint holds the "
              f"{'resumed' if args.resume else 'initial'} weights")
    print(f"wrote {out} and {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    if args.out:
        out, manifest = _outputs(args, [args.data, args.checkpoint])
    dataset = load_dataset(args.data)
    model = load_checkpoint(args.checkpoint)
    if model.encoder_config.embed_dim != dataset.feature_dim:
        raise ConfigError(
            f"checkpoint embed_dim {model.encoder_config.embed_dim} != "
            f"dataset feature dim {dataset.feature_dim}"
        )
    holdout = model.train_config.holdout_views
    train, heldout = dataset.split_views(holdout)
    if not heldout.records:
        raise ConfigError(
            f"dataset has no held-out views (the last {holdout} view ids) to evaluate on"
        )
    if args.mode != "zero-shot" and not train.records:
        raise ConfigError("dataset has no training views to fit the linear probe on")
    tokens, inputs = load_or_build_cache(args.data, dataset, model.encoder_config)
    train_tokens, tokens = split_tokens(dataset, tokens, holdout)
    params = model.params()
    report = {}
    with use_ema_weights(params, model.ema):
        z = embed_clouds(tokens, model)
        if args.mode in ("zero-shot", "both"):
            ranked = zero_shot_classify(z, dataset.class_features, model.heads)
            for k in (1, 3, 5):
                report[f"top{k}"] = top_k_accuracy(ranked, tokens.labels, k)
        if args.mode in ("probe", "both"):
            train_z = embed_clouds(train_tokens, model)
            for shot in (1, 2, 4, 8, 16):
                report[f"probe_{shot}shot"] = linear_probe(
                    train_z, train_tokens.labels, z, tokens.labels, shot, seed=args.seed,
                )
    for key, value in report.items():
        print(f"{key}: {value:.4f}")
    if args.out:
        write_atomic(out, json.dumps(report, indent=2) + "\n")
        inputs["heldout_view_ids"] = sorted({r.view_id for r in heldout.records})
        manifest({"checkpoint": str(args.checkpoint), "mode": args.mode}, _now(), inputs)
    return 0


def cmd_inspect(args) -> int:
    entries, meta = read_container_file(args.file)
    print(f"format: OCCT version {VERSION}")
    print("meta: " + json.dumps(meta, indent=2, sort_keys=True))
    print(f"tensors: {len(entries)}")
    for name, arr in entries.items():
        print(f"  {name}  {dtype_name(arr)}  {list(arr.shape)}  {arr.nbytes} bytes")
    return 0


def cmd_bench(args) -> int:
    config = _encoder_config(args)
    if args.out:
        out, manifest = _outputs(args, [])
    rows = run_benchmark(config, sizes=args.sizes, runs=args.runs, seed=args.seed)
    print(format_table(rows))
    if args.out:
        write_atomic(out, format_csv(rows))
        manifest({"config": config.to_dict(), "sizes": args.sizes, "runs": args.runs}, _now())
    return 0


def _count(text: str) -> int:
    """An int of at least 1, for argparse: anything else is a usage error."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


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
    p.add_argument("--sizes", type=lambda text: tuple(map(_count, text.split(","))),
                   default=(128, 256, 512, 1024, 2048),
                   help="comma-separated token counts")
    p.add_argument("--runs", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="print an OCCT file's version, metadata and tensors")
    p.add_argument("file")
    p.set_defaults(fn=cmd_inspect)

    # Each flag's type follows its field's annotation; a curve is parsed by
    # EncoderConfig.from_dict.
    types = {f.name: int if f.type == "int" else str for f in fields(EncoderConfig)}
    for sp in (sub.choices["pretrain"], sub.choices["bench"]):
        for name in ENCODER_FLAGS:
            sp.add_argument(f"--{name.replace('_', '-')}", type=types[name],
                            choices=CONV_MODES if name == "conv_mode" else None,
                            default=None, dest=name, help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse printed a usage error (code 2) or the help (0); users fix the former.
        return 1 if exc.code else 0
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
