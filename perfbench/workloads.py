"""The three workloads. Each makes its inputs from the seed, runs whole rounds
of the same operations, checks the outputs, and returns its measurements.

- gen-toy: `occpoint synth` of the 16-object toy corpus, then `occpoint gen`
  at 128x128 and 2048 points. One operation is one rendered view; one round
  is one `gen` (16 meshes x 12 views); set-up is the time from the start
  of `gen` to the first view's cloud: mesh loading plus one view. The only
  workload that renders. The corpus is the same on every seed, because the
  rendering work depends on the meshes' shapes; the seed drives gen's point
  sampling, fixtures and visibility samples, and the checks' ray sample.
- pretrain-toy: the desk-scale learning configuration (toy preset with
  embed_dim 64, B=8, lr 5e-3, object noise 0.25, 2 held-out views: 160
  training clouds, 20 steps per epoch). One round loads the dataset, trains
  a fixed number of epochs, writes and reads the checkpoint and runs
  `occpoint eval --mode both`. One operation is one step or one eval;
  round_s is the checkpoint and eval part of a round.
- embed-desk: single-cloud requests in a closed loop with one client on the
  desk preset (L=6, C=256, S=128, k=32), from a raw held-out cloud to a
  ranked class list through build_cache -> embed_clouds ->
  zero_shot_classify. Inference only. One round is one pass over the 32
  held-out clouds of the corpus, then one tie probe: a fixed lattice cloud
  whose tokens change when its points are shuffled, because knn_group breaks
  distance ties by point index. The probe fails on every round and is
  counted in `failed`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from occpoint import cli, dataset, training
from occpoint.encoder import desk_config, toy_config
from occpoint.errors import OccPointError
from occpoint.fixtures import OBJECT_NOISE as DEFAULT_OBJECT_NOISE

import oracles
from tracing import Tracer, traced

RESOLUTION = 128
POINTS = 2048
HOLDOUT_VIEWS = 2
N_VIEWS = 12

# gen-toy
CORPUS_SEED = 0               # the corpus the acceptance suite renders
RAY_SAMPLES_PER_VIEW = 8
SURFACE_TOL = 1e-6            # unit-sphere units; a pixel footprint is ~2e-2

# pretrain-toy
OBJECT_NOISE = 0.25
BATCH = 8
EPOCHS = 8
WARMUP_EPOCHS = 1
BASE_LR = 5e-3
N_CLASSES = 8
MIN_TOP1 = 3.0 / N_CLASSES    # three times chance

# embed-desk
SETUP_REPEATS = 3
BATCH_CHECK = 8
SHUFFLED_CLOUDS = 4
EMBED_TOL = 1e-9
LATTICE = (16, 16, 8)         # 2048 points, 1/8 apart: exact squared distances


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path


@dataclass
class Run:
    tracer: Tracer | None
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    rounds: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    tracing: bool = False     # whether the round running now is traced
    op_s: dict = field(default_factory=lambda: {False: [], True: []})
    traced_rounds: int = 0

    def check(self, name: str, ok: bool, detail) -> None:
        self.checks[name] = detail
        if not ok:
            self.problems.append(f"{name}: {detail}")

    def add_ops(self, times) -> None:
        """Record the time of each operation of one successful round."""
        self.op_s[self.tracing].append(np.asarray(times, dtype=float))

    def best_ops(self, traced: bool = False) -> np.ndarray:
        """Each operation's best time over the rounds (traced or untraced).

        Every round runs the same operations, so each operation is timed once
        per round. Neighbours on a shared machine only ever slow an operation
        down, and the best of repeats strips most of that.
        """
        return np.min(np.array(self.op_s[traced]), axis=0)

    def report(self, setup_s: float, round_s: float, units_per_op: int = 1) -> None:
        """End-to-end metrics from the untraced rounds, and the peak memory
        so far (taken before the checks, which use memory of their own)."""
        best = self.best_ops()
        for name, unit, value in (
            ("setup_s", "s", setup_s),
            ("throughput_per_s", "1/s", units_per_op * len(best) / float(best.sum())),
            ("latency_ms_p50", "ms", float(np.percentile(best, 50)) * 1e3),
            ("round_s", "s", round_s),
            ("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        ):
            self.metrics[name] = {"value": value, "unit": unit}

    def trace_overhead_pct(self) -> float:
        """Median over operations of traced best time / untraced best time,
        minus one, in percent. Per-operation ratios leave out the cold start
        of the first round, which only its first operations feel."""
        if not (self.op_s[False] and self.op_s[True]):
            return float("nan")
        return 100.0 * (float(np.median(self.best_ops(True) / self.best_ops(False))) - 1.0)

    def best_round_s(self, walls: list) -> float:
        """A whole round at each operation's best time, plus the least time a
        round spent outside its operations."""
        other = min(wall - float(ops.sum()) for wall, ops in zip(walls, self.op_s[False]))
        return float(self.best_ops().sum()) + other


def run_rounds(ctx: Context, run: Run, do_round, min_rounds: int = 2) -> bool:
    """Whole rounds until one more would likely end after ctx.seconds.
    Returns whether an untraced round succeeded, so there is something to report.

    In a traced run every second round is traced; comparing the operation
    times of traced and untraced rounds gives the tracing overhead.
    """
    start = perf_counter()
    done = 0
    while True:
        run.tracing = ctx.trace and done % 2 == 1
        if run.tracing:
            run.traced_rounds += 1
            with traced(run.tracer):
                do_round()
        else:
            do_round()
        done += 1
        elapsed = perf_counter() - start
        if done >= min_rounds and elapsed * (done + 1) / done > ctx.seconds:
            break
    run.tracing = False
    if not run.op_s[False]:
        run.problems.append("no successful round to measure")
        return False
    return True


def quiet(argv: list[str]) -> tuple[int, str]:
    """Run one occpoint CLI command in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def prepare_dataset(path: Path, seed: int, object_noise: float) -> None:
    """Render the toy corpus for `seed` into `path`, in a child process."""
    script = Path(__file__).with_name("prepare.py")
    subprocess.run([sys.executable, str(script), str(path), str(seed), str(object_noise),
                    str(RESOLUTION), str(POINTS)], check=True, timeout=170)


# ---------------------------------------------------------------------------
# gen-toy


def gen_toy(ctx: Context) -> Run:
    run = Run(tracer=Tracer() if ctx.trace else None)
    meshes = ctx.work / "meshes"
    code, _ = quiet(["synth", "--out", str(meshes), "--seed", str(CORPUS_SEED)])
    if code != 0:
        raise RuntimeError(f"occpoint synth exited with {code}")
    views = N_VIEWS * len(list(meshes.glob("*.obj")))
    out = ctx.work / "toy.occt"
    argv = ["gen", "--meshes", str(meshes), "--out", str(out),
            "--resolution", str(RESOLUTION), "--points", str(POINTS),
            "--seed", str(ctx.seed)]

    # Two shims for the whole run: one keeps the dataset `gen` hands to
    # save_dataset, to compare with what it wrote; one takes the time each
    # view's cloud is complete, as generate_triplets resamples it.
    generated, stamps = [], []
    save_dataset, sample_points = cli.save_dataset, dataset.sample_points

    def keep(path, data):
        generated[:] = [data]
        save_dataset(path, data)

    def stamped(*args, **kwargs):
        cloud = sample_points(*args, **kwargs)
        stamps.append(perf_counter())
        return cloud

    setup_s, gen_s, digests = [], [], []

    def do_round():
        run.attempted += views
        stamps.clear()
        t0 = perf_counter()
        code, _ = quiet(argv)
        elapsed = perf_counter() - t0
        run.rounds.append({"gen_s": elapsed, "exit_code": code})
        if code != 0 or len(stamps) != views:
            run.failed += views
            return
        run.add_ops(np.diff([t0] + stamps))
        if not run.tracing:
            setup_s.append(stamps[0] - t0)
            gen_s.append(elapsed)
        digests.append(digest(out))

    cli.save_dataset, dataset.sample_points = keep, stamped
    try:
        # Rendering is memory-bound and follows neighbour load more than the
        # other workloads; a third round gives each view's best time one more
        # chance at a quiet spell.
        measured = run_rounds(ctx, run, do_round, min_rounds=3)
    finally:
        cli.save_dataset, dataset.sample_points = save_dataset, sample_points
    if not measured:
        return run

    run.report(statistics.median(setup_s), run.best_round_s(gen_s))
    data = generated[0]
    run.checks["dataset_bytes"] = out.stat().st_size
    run.check("gen.same_bytes_every_round", len(set(digests)) == 1,
              f"{len(set(digests))} distinct containers from {len(digests)} rounds")
    run.check("gen.record_count", len(data.records) == views,
              f"{len(data.records)} records for {views} views")
    run.check("gen.readback_equals_float32", readback_matches(data, dataset.load_dataset(out)),
              "container read back vs generated dataset cast to float32")

    rng = np.random.Generator(np.random.PCG64([ctx.seed, 0x7A7]))
    tris, worst, bad_labels = {}, 0.0, 0
    for rec in data.records:
        if rec.object_id not in tris:
            verts, faces = oracles.read_obj(meshes / f"{rec.object_id}.obj")
            tris[rec.object_id] = oracles.unit_sphere(verts)[faces]
        pick = rng.choice(len(rec.points), RAY_SAMPLES_PER_VIEW, replace=False)
        worst = max(worst, oracles.visible_surface_error(
            rec.points[pick], rec.view_id, tris[rec.object_id]))
        bad_labels += data.class_names[rec.label] != rec.object_id.rsplit("_", 1)[0]
    run.check("gen.points_on_first_surface_hit", worst <= SURFACE_TOL,
              f"largest gap {worst:.3g} over {RAY_SAMPLES_PER_VIEW} rays per view")
    run.check("gen.labels", bad_labels == 0, f"{bad_labels} records with a wrong label")
    return run


def readback_matches(generated, loaded) -> bool:
    if (len(generated.records) != len(loaded.records)
            or generated.class_names != loaded.class_names
            or not np.array_equal(generated.class_features.astype(np.float32),
                                  loaded.class_features)):
        return False
    arrays = ("points", "colors", "image_feature", "text_features")
    for a, b in zip(generated.records, loaded.records):
        if (a.object_id, a.label, a.view_id) != (b.object_id, b.label, b.view_id):
            return False
        if not all(np.array_equal(getattr(a, f).astype(np.float32), getattr(b, f))
                   for f in arrays):
            return False
    return True


# ---------------------------------------------------------------------------
# pretrain-toy


def pretrain_toy(ctx: Context) -> Run:
    run = Run(tracer=Tracer() if ctx.trace else None)
    data_path = ctx.work / "toy.occt"
    prepare_dataset(data_path, ctx.seed, OBJECT_NOISE)
    data = dataset.load_dataset(data_path)
    train_clouds = len(data.split_views(HOLDOUT_VIEWS)[0].records)
    steps_per_epoch = -(-train_clouds // BATCH)
    steps = EPOCHS * steps_per_epoch
    encoder_config = toy_config(embed_dim=data.feature_dim)
    train_config = training.TrainConfig(
        batch_size=BATCH, epochs=EPOCHS, warmup_epochs=WARMUP_EPOCHS,
        base_lr=BASE_LR, holdout_views=HOLDOUT_VIEWS, seed=ctx.seed,
    )
    ckpt = ctx.work / "model.occt"
    eval_argv = ["eval", "--data", str(data_path), "--checkpoint", str(ckpt),
                 "--mode", "both", "--seed", str(ctx.seed)]
    setup_s, tail_s, digests = [], [], []

    def do_round():
        run.attempted += steps + 1
        stamps = []
        t0 = perf_counter()
        try:
            loaded = dataset.load_dataset(data_path)
            model, rows = training.run_pretraining(
                loaded, encoder_config, train_config,
                log=lambda row: stamps.append(perf_counter()),
            )
            t_tail = perf_counter()
            training.save_checkpoint(ckpt, model)
            reloaded = training.load_checkpoint(ckpt)
        except OccPointError as exc:
            run.failed += steps + 1
            run.rounds.append({"error": str(exc)})
            return
        t_eval = perf_counter()
        code, printed = quiet(eval_argv)
        t_end = perf_counter()
        run.failed += code != 0
        report = dict(line.split(": ") for line in printed.splitlines() if ": " in line)

        # Step 0 ends the set-up; the other steps are the timed operations.
        if not run.tracing:
            setup_s.append(stamps[0] - t0)
            tail_s.append(t_end - t_tail)
        if len(stamps) == steps:
            run.add_ops(np.diff(stamps))
        digests.append(digest(ckpt))
        losses = [row["loss"] for row in rows]
        first = float(np.mean(losses[:steps_per_epoch]))
        last = float(np.mean(losses[-steps_per_epoch:]))
        top1 = float(report.get("top1", "nan"))
        run.rounds.append({"setup_s": stamps[0] - t0, "train_s": stamps[-1] - stamps[0],
                           "checkpoint_s": t_eval - t_tail, "eval_s": t_end - t_eval,
                           "round_s": t_end - t0, "steps": len(rows),
                           "first_epoch_loss": first, "last_epoch_loss": last,
                           "top1": top1})
        run.check("pretrain.steps", len(rows) == steps, f"{len(rows)} steps, expected {steps}")
        run.check("pretrain.loss_halves", last < 0.5 * first,
                  f"last epoch {last:.4f} vs first {first:.4f}")
        run.check("pretrain.zero_shot_top1", top1 >= MIN_TOP1,
                  f"held-out top-1 {top1:.4f}, chance {1 / N_CLASSES:.4f}")
        run.check("pretrain.eval_report", code == 0 and "probe_16shot" in report,
                  f"eval exit code {code}, keys {sorted(report)}")
        run.check("pretrain.checkpoint_round_trip", same_model(model, reloaded),
                  "parameters, EMA, optimizer moments and step counters")

    if not run_rounds(ctx, run, do_round):
        return run
    # round_s here is checkpoint write and read plus eval: the steps and the
    # set-up have metrics of their own.
    run.report(statistics.median(setup_s), min(tail_s), units_per_op=BATCH)
    if digests:
        run.checks["checkpoint_bytes"] = ckpt.stat().st_size
        run.check("pretrain.same_checkpoint_every_round", len(set(digests)) == 1,
                  f"{len(set(digests))} distinct checkpoints from {len(digests)} rounds")
    return run


def same_model(a, b) -> bool:
    pa, pb = a.params(), b.params()
    if pa.keys() != pb.keys() or (a.step, a.opt.step, a.ema.updates) != (b.step, b.opt.step, b.ema.updates):
        return False
    return all(
        np.array_equal(pa[k].data, pb[k].data)
        and np.array_equal(a.ema.shadow[k], b.ema.shadow[k])
        and np.array_equal(a.opt.m[k], b.opt.m[k])
        and np.array_equal(a.opt.v[k], b.opt.v[k])
        for k in pa
    )


# ---------------------------------------------------------------------------
# embed-desk


def embed_desk(ctx: Context) -> Run:
    run = Run(tracer=Tracer() if ctx.trace else None)
    data_path = ctx.work / "toy.occt"
    prepare_dataset(data_path, ctx.seed, DEFAULT_OBJECT_NOISE)
    data = dataset.load_dataset(data_path)
    heldout = data.split_views(HOLDOUT_VIEWS)[1]
    del data
    config = desk_config(embed_dim=heldout.feature_dim)

    def tokens(records):
        return training.build_cache(dataset.TripletDataset(
            records, heldout.class_names, heldout.class_features, heldout.meta), config)

    def respond(model, records):
        z = training.embed_clouds(tokens(records), model)
        return z, training.zero_shot_classify(z, heldout.class_features, model.heads)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        model = training.init_model(config, training.TrainConfig(seed=ctx.seed))
        # Seeded, non-zero output projections, so no block is an identity map.
        rng = np.random.Generator(np.random.PCG64([ctx.seed, 0x0E]))
        for block in model.encoder.blocks:
            block.out_w.data = rng.normal(size=block.out_w.shape) * block.out_w.shape[0] ** -0.5
        respond(model, heldout.records[:1])
        setup_s.append(perf_counter() - t0)

    lattice = lattice_record(heldout.records[0])
    shuffled_lattice = shuffled(lattice, np.random.Generator(np.random.PCG64(0)))
    pass_s, passes = [], []

    def do_round():
        embeddings, rankings, times = [], [], []
        t_pass = perf_counter()
        for record in heldout.records:
            run.attempted += 1
            t0 = perf_counter()
            try:
                z, ranked = respond(model, [record])
            except OccPointError:
                run.failed += 1
                continue
            times.append(perf_counter() - t0)
            embeddings.append(z[0])
            rankings.append(ranked[0])
        elapsed = perf_counter() - t_pass
        # The tie probe: the same fixed cloud, shuffled, must give the same tokens.
        run.attempted += 1
        probe = tokens_match(*tokens([lattice, shuffled_lattice]))
        run.failed += not probe
        run.rounds.append({"pass_s": elapsed, "requests": len(embeddings),
                           "tie_probe_tokens_match": probe})
        if len(embeddings) == len(heldout.records):
            run.add_ops(times)
            if not run.tracing:
                pass_s.append(elapsed)
            passes.append((np.array(embeddings), np.array(rankings)))

    if not run_rounds(ctx, run, do_round):
        return run
    run.report(statistics.median(setup_s), run.best_round_s(pass_s))

    z, ranked = passes[0]
    norms = np.linalg.norm(z, axis=1)
    run.check("embed.finite_unit_norm",
              bool(np.all(np.isfinite(z))) and float(np.max(np.abs(norms - 1.0))) <= 1e-12,
              f"largest |norm - 1| {float(np.max(np.abs(norms - 1.0))):.3g}")
    run.check("embed.ranked_classes",
              all(sorted(row) == list(range(len(heldout.class_names))) for row in ranked),
              "every ranking is a permutation of the classes")
    run.check("embed.same_every_pass",
              all(np.array_equal(z, other) for other, _ in passes[1:]),
              f"{len(passes)} passes")

    batched, _ = respond(model, heldout.records[:BATCH_CHECK])
    gap = float(np.max(np.abs(batched - z[:BATCH_CHECK])))
    run.check("embed.batched_matches_single", gap <= EMBED_TOL,
              f"largest gap {gap:.3g} between B={BATCH_CHECK} and B=1")

    # A shuffled cloud must embed as the cloud does. Where a patch's k-th and
    # (k+1)-th nearest points are equally far, knn_group picks by point index,
    # so that cloud's embedding moves when shuffled: the fault the tie probe
    # counts in every round. Such clouds are named, and the others checked.
    rng = np.random.Generator(np.random.PCG64([ctx.seed, 0x5F]))
    gap, tied = 0.0, []
    for i, cache in enumerate(tokens(heldout.records[:SHUFFLED_CLOUDS])):
        z_shuffled, _ = respond(model, [shuffled(heldout.records[i], rng)])
        if oracles.knn_boundary_ties(heldout.records[i].points, cache.centers,
                                     config.k_neighbors):
            tied.append(i)
        else:
            gap = max(gap, float(np.max(np.abs(z_shuffled[0] - z[i]))))
    run.check("embed.shuffled_cloud_matches", gap <= EMBED_TOL,
              f"largest gap {gap:.3g} over {SHUFFLED_CLOUDS - len(tied)} shuffled clouds"
              f" (clouds {tied} left out: a k-th neighbour distance tie)")
    return run


def shuffled(record, rng):
    order = rng.permutation(len(record.points))
    return dataclasses.replace(record, points=record.points[order], colors=record.colors[order])


def lattice_record(template):
    """`template` with its cloud replaced by a fixed 16x16x8 lattice of points
    1/8 apart. Its squared distances are exact, so every interior point's 32nd
    and 33rd nearest points lie equally far from it."""
    grid = np.stack(np.meshgrid(*(np.arange(n) for n in LATTICE), indexing="ij"), -1)
    points = grid.reshape(-1, 3) / 8.0 - np.array([1.0, 1.0, 0.5])
    colors = grid.reshape(-1, 3) / (np.array(LATTICE) - 1.0)
    return dataclasses.replace(template, points=points, colors=colors)


def tokens_match(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("centers", "rel_points", "patch_colors"))


WORKLOADS = {
    "gen-toy": gen_toy,
    "pretrain-toy": pretrain_toy,
    "embed-desk": embed_desk,
}
