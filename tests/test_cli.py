import json

import numpy as np
import pytest

from occpoint.cli import main, write_manifest
from occpoint.dataset import generate_triplets, load_dataset, save_dataset
from occpoint.synthetic import make_class_mesh, toy_object_set


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("meshes")
    assert main(["synth", "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.fixture(scope="module")
def small_mesh_dir(tmp_path_factory):
    from occpoint.meshio import save_obj

    out = tmp_path_factory.mktemp("small")
    for cls in ("cube", "sphere", "cone", "torus"):
        save_obj(out / f"{cls}_00.obj", make_class_mesh(cls, 0, 1))
    return out


@pytest.fixture(scope="module")
def small_dataset(small_mesh_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "small.occt"
    rc = main(["gen", "--meshes", str(small_mesh_dir), "--out", str(out),
               "--resolution", "48", "--points", "256", "--embed-dim", "16",
               "--seed", "7"])
    assert rc == 0
    return out


def test_synth_writes_sixteen_meshes(mesh_dir):
    assert len(list(mesh_dir.glob("*.obj"))) == 16


def test_gen_four_meshes_gives_48_records(small_dataset):
    dataset = load_dataset(small_dataset)
    assert len(dataset.records) == 4 * 12
    assert dataset.class_names == ["cone", "cube", "sphere", "torus"]
    labels = {r.object_id: r.label for r in dataset.records}
    assert len(labels) == 4


def test_gen_deterministic_bytes(small_mesh_dir, tmp_path):
    a, b = tmp_path / "a.occt", tmp_path / "b.occt"
    args = ["gen", "--meshes", str(small_mesh_dir), "--resolution", "48",
            "--points", "256", "--embed-dim", "16", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_manifest(small_dataset):
    manifest = small_dataset.with_suffix(".manifest.json")
    doc = json.loads(manifest.read_text())
    assert doc["seed"] == 7
    assert doc["finished"] is not None
    assert "gen" in " ".join(doc["command_line"])


def test_gen_missing_dir_is_user_error(tmp_path):
    assert main(["gen", "--meshes", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "d.occt")]) == 1


def test_gen_skips_unreadable_mesh(small_mesh_dir, tmp_path, capsys):
    bad = small_mesh_dir / "zzz_bad_00.obj"
    bad.write_text("v 0 0 0\n")  # no faces
    try:
        out = tmp_path / "d.occt"
        rc = main(["gen", "--meshes", str(small_mesh_dir), "--out", str(out),
                   "--resolution", "32", "--points", "128", "--embed-dim", "16",
                   "--seed", "1"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "skipping" in err
    finally:
        bad.unlink()


def test_gen_sphere_visible_fraction_near_half(tmp_path):
    from occpoint.meshio import save_obj
    from occpoint.synthetic import make_icosphere

    d = tmp_path / "sphere"
    d.mkdir()
    save_obj(d / "sphere_00.obj", make_icosphere(2))
    out = tmp_path / "s.occt"
    rc = main(["gen", "--meshes", str(d), "--out", str(out), "--resolution", "64",
               "--points", "512", "--embed-dim", "8", "--seed", "3"])
    assert rc == 0
    # summary line went to stdout; recompute from the library for the assert
    from occpoint.dataset import generate_triplets
    from occpoint.meshio import load_obj

    _, summary = generate_triplets([("sphere_00", "sphere", load_obj(d / "sphere_00.obj"))],
                                   feature_dim=8, resolution=64, n_points=512,
                                   seed=3, with_summary=True)
    assert abs(summary.mean_visible_fraction - 0.5) <= 0.1


def test_pretrain_eval_round_trip(small_dataset, tmp_path):
    ckpt = tmp_path / "model.occt"
    rc = main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "2", "--warmup-epochs", "1",
               "--batch-size", "4", "--seed", "0"])
    assert rc == 0
    assert ckpt.exists()
    metrics = [json.loads(line) for line in
               ckpt.with_suffix(".metrics.jsonl").read_text().splitlines()]
    assert {"step", "lr", "loss", "tau", "point_image"} <= set(metrics[0])
    manifest = json.loads(ckpt.with_suffix(".manifest.json").read_text())
    assert manifest["finished"] is not None
    assert manifest["config"]["train_config"]["epochs"] == 2

    rc = main(["eval", "--data", str(small_dataset), "--checkpoint", str(ckpt),
               "--mode", "both", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {"top1", "top3", "top5"} <= set(report)
    assert {"probe_1shot", "probe_16shot"} <= set(report)


def test_pretrain_epochs_zero_checkpoint_equals_init(small_dataset, tmp_path):
    from occpoint.encoder import toy_config
    from occpoint.training import TrainConfig, init_model, load_checkpoint

    ckpt = tmp_path / "init.occt"
    rc = main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0",
               "--seed", "5"])
    assert rc == 0
    loaded = load_checkpoint(ckpt)
    dataset = load_dataset(small_dataset)
    fresh = init_model(
        toy_config(s_tokens=8, k_neighbors=6, c_dim=16, embed_dim=dataset.feature_dim),
        TrainConfig(batch_size=8, epochs=0, warmup_epochs=0, base_lr=5e-3, seed=5),
    )
    for k, t in fresh.params().items():
        assert np.array_equal(loaded.params()[k].data, t.data)


def test_pretrain_resume_continues_steps(small_dataset, tmp_path):
    ckpt = tmp_path / "m.occt"
    base = ["--data", str(small_dataset), "--preset", "toy", "--s-tokens", "8",
            "--k-neighbors", "6", "--c-dim", "16", "--warmup-epochs", "0",
            "--batch-size", "4", "--seed", "2"]
    assert main(["pretrain", *base, "--epochs", "1", "--out", str(ckpt)]) == 0
    first = [json.loads(l) for l in ckpt.with_suffix(".metrics.jsonl").read_text().splitlines()]
    ckpt2 = tmp_path / "m2.occt"
    assert main(["pretrain", *base, "--epochs", "2", "--out", str(ckpt2),
                 "--resume", str(ckpt)]) == 0
    second = [json.loads(l) for l in ckpt2.with_suffix(".metrics.jsonl").read_text().splitlines()]
    assert second[0]["step"] == first[-1]["step"] + 1


def test_eval_dimension_mismatch_is_config_error(small_dataset, tmp_path, capsys):
    meshes = [("cube_00", "cube", make_class_mesh("cube", 0, 0))]
    other = generate_triplets(meshes, feature_dim=24, resolution=32, n_points=128, seed=1)
    other_path = tmp_path / "other.occt"
    save_dataset(other_path, other)
    ckpt = tmp_path / "m.occt"
    assert main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
                 "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
                 "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0",
                 "--seed", "0"]) == 0
    rc = main(["eval", "--data", str(other_path), "--checkpoint", str(ckpt)])
    assert rc == 1
    assert "embed_dim" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--batch-size", "1"), ("--holdout-views", "0"),
                                        ("--holdout-views", "12")])
def test_pretrain_rejects_degenerate_config(small_dataset, tmp_path, capsys, flag, value):
    rc = main(["pretrain", "--data", str(small_dataset), "--out", str(tmp_path / "m.occt"),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "1", "--warmup-epochs", "0", flag, value])
    assert rc == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_eval_without_heldout_views_is_config_error(small_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.occt"
    assert main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
                 "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
                 "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0",
                 "--seed", "0"]) == 0
    data = load_dataset(small_dataset)
    train_only = tmp_path / "train_only.occt"
    data.records = data.split_views(2)[0].records
    save_dataset(train_only, data)
    rc = main(["eval", "--data", str(train_only), "--checkpoint", str(ckpt)])
    assert rc == 1
    assert "held-out" in capsys.readouterr().err


def test_bench_outputs_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    rc = main(["bench", "--preset", "toy", "--sizes", "16,32", "--runs", "3",
               "--out", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s_tokens,encoder_gflops,attention_gflops,latency_ms"
    assert len(lines) == 3


def test_failed_report_write_leaves_old_files_and_no_temp_file(tmp_path, monkeypatch):
    csv_path = tmp_path / "bench.csv"
    argv = ["bench", "--preset", "toy", "--sizes", "16", "--runs", "1", "--out", str(csv_path)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["bench.csv", "bench.manifest.json"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("occpoint.container.os.replace", fail)
    assert main(argv) == 2
    manifest = tmp_path / "bench.manifest.json"
    with pytest.raises(OSError, match="disk full"):
        write_manifest(manifest, {"runs": 2}, 0, "start", "end", command_line=["bench"])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_dataset_save_load_round_trip(tmp_path):
    meshes = toy_object_set(0)[:2]
    dataset = generate_triplets(meshes, feature_dim=8, resolution=32, n_points=64, seed=2)
    path = tmp_path / "d.occt"
    save_dataset(path, dataset)
    loaded = load_dataset(path)
    assert len(loaded.records) == len(dataset.records)
    r0, l0 = dataset.records[0], loaded.records[0]
    assert r0.object_id == l0.object_id and r0.label == l0.label
    assert np.allclose(r0.points, l0.points, atol=1e-6)
    assert np.allclose(r0.text_features, l0.text_features, atol=1e-7)


def rewrite(src, dst, edit):
    """Copy container `src` to `dst` with edit(entries, meta) applied."""
    from occpoint.container import read_container_file, write_container_file

    entries, meta = read_container_file(src)
    edit(entries, meta)
    write_container_file(dst, entries, meta)
    return dst


@pytest.mark.parametrize("edit", [
    pytest.param(lambda e, m: m.pop("records"), id="no-records"),
    pytest.param(lambda e, m: m.pop("class_names"), id="no-class-names"),
    pytest.param(lambda e, m: m["records"][3].pop("label"), id="record-without-label"),
    pytest.param(lambda e, m: m["records"][3].__setitem__("view_id", "x"), id="bad-view-id"),
    pytest.param(lambda e, m: m.__setitem__("records", 4), id="int-records"),
    pytest.param(lambda e, m: e.pop("rec00005/points"), id="no-points"),
    pytest.param(lambda e, m: e.pop("class_features"), id="no-class-features"),
])
def test_load_dataset_incomplete_is_config_error(small_dataset, tmp_path, capsys, edit):
    from occpoint.errors import ConfigError

    broken = rewrite(small_dataset, tmp_path / "broken.occt", edit)
    with pytest.raises(ConfigError):
        load_dataset(broken)
    rc = main(["pretrain", "--data", str(broken), "--out", str(tmp_path / "m.occt"),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_checkpoint(small_dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "m.occt"
    assert main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
                 "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
                 "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0",
                 "--seed", "0"]) == 0
    return ckpt


def first_param(entries):
    return next(k for k in entries if k.startswith("param/"))[len("param/"):]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda e, m: m.pop("step"), id="no-step"),
    pytest.param(lambda e, m: m.pop("opt_step"), id="no-opt-step"),
    pytest.param(lambda e, m: m.pop("encoder_config"), id="no-encoder-config"),
    pytest.param(lambda e, m: m["encoder_config"].pop("curve_a"), id="no-curve"),
    pytest.param(lambda e, m: m["train_config"].__setitem__("surprise", 1), id="unknown-key"),
    pytest.param(lambda e, m: m.__setitem__("train_config", [1, 2]), id="list-config"),
    pytest.param(lambda e, m: e.pop(f"ema/{first_param(e)}"), id="no-ema-tensor"),
    pytest.param(lambda e, m: e.pop(f"param/{first_param(e)}"), id="no-param-tensor"),
    pytest.param(lambda e, m: e.__setitem__(f"opt/v/{first_param(e)}", np.zeros(3)),
                 id="wrong-shape-moment"),
])
def test_load_checkpoint_incomplete_is_config_error(small_checkpoint, small_dataset, tmp_path,
                                                     capsys, edit):
    from occpoint.errors import ConfigError
    from occpoint.training import load_checkpoint

    broken = rewrite(small_checkpoint, tmp_path / "broken.occt", edit)
    with pytest.raises(ConfigError):
        load_checkpoint(broken)
    rc = main(["eval", "--data", str(small_dataset), "--checkpoint", str(broken)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
