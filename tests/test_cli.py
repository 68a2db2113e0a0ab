import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from occpoint.cli import main, write_manifest
from occpoint.dataset import generate_triplets, load_dataset, save_dataset
from occpoint.synthetic import make_class_mesh, toy_object_set


def beside(path, suffix=".manifest.json"):
    """A file the CLI names from an output's full name: `<out name><suffix>`."""
    return path.with_name(path.name + suffix)


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
    manifest = beside(small_dataset)
    doc = json.loads(manifest.read_text())
    assert doc["seed"] == 7
    assert doc["finished"] is not None
    assert "gen" in " ".join(doc["command_line"])


def test_gen_manifest_records_the_environment(small_dataset):
    env = json.loads(beside(small_dataset).read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["cpu_count"] == os.cpu_count()


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

    _, visible = generate_triplets([("sphere_00", "sphere", load_obj(d / "sphere_00.obj"))],
                                   feature_dim=8, resolution=64, n_points=512,
                                   seed=3, with_summary=True)
    assert abs(visible - 0.5) <= 0.1


def test_pretrain_eval_round_trip(small_dataset, tmp_path):
    ckpt = tmp_path / "model.occt"
    rc = main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "2", "--warmup-epochs", "1",
               "--batch-size", "4", "--seed", "0"])
    assert rc == 0
    assert ckpt.exists()
    metrics = [json.loads(line) for line in
               beside(ckpt, ".metrics.jsonl").read_text().splitlines()]
    assert {"step", "lr", "loss", "tau", "point_image"} <= set(metrics[0])
    manifest = json.loads(beside(ckpt).read_text())
    assert manifest["finished"] is not None
    assert manifest["config"]["train_config"]["epochs"] == 2

    rc = main(["eval", "--data", str(small_dataset), "--checkpoint", str(ckpt),
               "--mode", "both", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {"top1", "top3", "top5"} <= set(report)
    assert {"probe_1shot", "probe_16shot"} <= set(report)


def test_pretrain_epochs_zero_checkpoint_equals_init(small_dataset, tmp_path, capsys):
    from occpoint.encoder import toy_config
    from occpoint.training import TrainConfig, init_model, load_checkpoint

    ckpt = tmp_path / "init.occt"
    rc = main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0",
               "--seed", "5"])
    assert rc == 0
    assert "no step ran; the checkpoint holds the initial weights" in capsys.readouterr().out
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
    first = [json.loads(l) for l in beside(ckpt, ".metrics.jsonl").read_text().splitlines()]
    ckpt2 = tmp_path / "m2.occt"
    assert main(["pretrain", *base, "--epochs", "2", "--out", str(ckpt2),
                 "--resume", str(ckpt)]) == 0
    second = [json.loads(l) for l in beside(ckpt2, ".metrics.jsonl").read_text().splitlines()]
    assert second[0]["step"] == first[-1]["step"] + 1


def test_pretrain_resume_keeps_the_checkpoints_default_warmup(small_dataset, tmp_path):
    from occpoint.training import load_checkpoint

    base = ["--data", str(small_dataset), "--preset", "toy", "--s-tokens", "8",
            "--k-neighbors", "6", "--c-dim", "16", "--batch-size", "4", "--seed", "2"]
    ckpt, ckpt2 = tmp_path / "m.occt", tmp_path / "m2.occt"
    assert main(["pretrain", *base, "--epochs", "2", "--out", str(ckpt)]) == 0
    assert load_checkpoint(ckpt).train_config.warmup_epochs == 2  # min(10, epochs)
    assert main(["pretrain", *base, "--epochs", "3", "--out", str(ckpt2),
                 "--resume", str(ckpt)]) == 0
    resumed = load_checkpoint(ckpt2).train_config
    assert (resumed.epochs, resumed.warmup_epochs) == (3, 2)


def test_pretrain_explicit_warmup_above_epochs_is_config_error(small_dataset, tmp_path,
                                                              capsys):
    rc = main(["pretrain", "--data", str(small_dataset), "--out", str(tmp_path / "m.occt"),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "2", "--warmup-epochs", "3"])
    assert rc == 1
    assert "warmup_epochs" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value,field", [("--curve-a", "morton", "curve_a"),
                                              ("--seed", "9", "seed")])
def test_pretrain_resume_refuses_other_config(small_dataset, tmp_path, capsys, flag, value,
                                             field):
    ckpt = tmp_path / "m.occt"
    base = ["--data", str(small_dataset), "--preset", "toy", "--s-tokens", "8",
            "--k-neighbors", "6", "--c-dim", "16", "--warmup-epochs", "0",
            "--batch-size", "4", "--seed", "2"]
    assert main(["pretrain", *base, "--epochs", "1", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    ckpt2 = tmp_path / "m2.occt"
    assert main(["pretrain", *base, "--epochs", "2", "--out", str(ckpt2),
                 "--resume", str(ckpt), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}=" in err
    # Refused before anything is written: no checkpoint, no manifest.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "m.occt", "m.occt.manifest.json", "m.occt.metrics.jsonl"]


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
                                        ("--holdout-views", "12"),
                                        ("--k-neighbors", "1000000"), ("--epochs", "-1"),
                                        ("--lr", "-0.01")])
def test_pretrain_rejects_degenerate_config(small_dataset, tmp_path, capsys, flag, value):
    out = tmp_path / "m.occt"
    rc = main(["pretrain", "--data", str(small_dataset), "--out", str(out),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "1", "--warmup-epochs", "0", flag, value])
    assert rc == 1
    field = {"--lr": "base_lr"}.get(flag, flag[2:].replace("-", "_"))
    assert field in capsys.readouterr().err
    assert not out.exists()


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


def test_probe_without_training_views_is_config_error(small_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.occt"
    assert main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
                 "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
                 "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0"]) == 0
    data = load_dataset(small_dataset)
    data.records = data.split_views(2)[1].records
    heldout_only = tmp_path / "heldout_only.occt"
    save_dataset(heldout_only, data)
    capsys.readouterr()
    for mode in ("probe", "both"):
        assert main(["eval", "--data", str(heldout_only), "--checkpoint", str(ckpt),
                     "--mode", mode]) == 1
        assert "no training views" in capsys.readouterr().err
    assert main(["eval", "--data", str(heldout_only), "--checkpoint", str(ckpt)]) == 0


@pytest.mark.parametrize("keep", [lambda r: False, lambda r: r.view_id >= 10],
                         ids=["no-records", "heldout-only"])
def test_pretrain_without_training_records_is_user_error(small_dataset, tmp_path, capsys,
                                                         keep):
    data = load_dataset(small_dataset)
    data.records = [r for r in data.records if keep(r)]
    path = tmp_path / "few.occt"
    save_dataset(path, data)
    rc = main(["pretrain", "--data", str(path), "--out", str(tmp_path / "m.occt"),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "1", "--warmup-epochs", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: no training records after the view split\n"
    assert_nothing_written(tmp_path / "m.occt")


def test_pretrain_refuses_objects_with_unequal_view_counts(small_dataset, tmp_path, capsys):
    """Each epoch uses every training view once, so every object needs the
    same number of them: one record moved to a held-out view id leaves its
    object one short."""
    def move_to_heldout(entries, meta):
        record = next(r for r in meta["records"] if r["view_id"] == 0)
        record["view_id"] = 10

    data = rewrite(small_dataset, tmp_path / "uneven.occt", move_to_heldout)
    rc = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "m.occt"),
               "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
               "--c-dim", "16", "--epochs", "1", "--warmup-epochs", "0"])
    assert rc == 1
    assert "has 9 views" in capsys.readouterr().err
    assert_nothing_written(tmp_path / "m.occt")


def assert_nothing_written(ckpt):
    """A refused training split leaves no checkpoint, manifest or metrics file."""
    for path in (ckpt, beside(ckpt), beside(ckpt, ".metrics.jsonl")):
        assert not path.exists(), path


def test_pretrain_refuses_a_single_object(small_mesh_dir, tmp_path, capsys):
    """One object makes every batch a batch of one, whose contrastive loss is
    identically zero: the run must stop before its first step."""
    meshes = tmp_path / "one"
    meshes.mkdir()
    (meshes / "cube_00.obj").write_bytes((small_mesh_dir / "cube_00.obj").read_bytes())
    data = tmp_path / "one.occt"
    assert main(["gen", "--meshes", str(meshes), "--out", str(data), "--resolution", "48",
                 "--points", "256", "--embed-dim", "16", "--seed", "7"]) == 0
    ckpt = tmp_path / "m.occt"
    rc = main(["pretrain", "--data", str(data), "--out", str(ckpt), "--preset", "toy",
               "--s-tokens", "8", "--k-neighbors", "6", "--c-dim", "16",
               "--batch-size", "2", "--epochs", "1", "--warmup-epochs", "0"])
    assert rc == 1
    assert "at least two" in capsys.readouterr().err
    assert_nothing_written(ckpt)


@pytest.mark.parametrize("cut", [lambda f: f[:, :8], lambda f: f[:3], lambda f: f[0]],
                         ids=["half-the-columns", "a-class-short", "one-dim"])
def test_class_features_of_another_shape_are_config_error(small_dataset, small_checkpoint,
                                                          tmp_path, capsys, cut):
    """Class features must be (classes, D) for the records' feature dim D:
    pretrain refuses others before it writes anything, and so does eval."""
    from occpoint.errors import ConfigError

    data = rewrite(small_dataset, tmp_path / "cut.occt",
                   lambda e, m: e.__setitem__("class_features", cut(e["class_features"])))
    with pytest.raises(ConfigError, match="class features have shape"):
        load_dataset(data)
    for argv in (["pretrain", "--data", str(data), "--out", str(tmp_path / "m.occt"),
                  *TOY_SMALL, "--epochs", "1", "--warmup-epochs", "0"],
                 ["eval", "--data", str(data), "--checkpoint", str(small_checkpoint)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert "class features have shape" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]


def test_records_with_other_text_variant_counts_are_config_error(small_dataset, tmp_path,
                                                                 capsys):
    from occpoint.errors import ConfigError

    data = load_dataset(small_dataset)
    data.records[5].text_features = data.records[5].text_features[:1]
    path = tmp_path / "ragged.occt"
    save_dataset(path, data)
    with pytest.raises(ConfigError, match="text features"):
        load_dataset(path)
    for argv in (["pretrain", "--data", str(path), "--out", str(tmp_path / "m.occt"),
                  "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
                  "--c-dim", "16", "--epochs", "1", "--warmup-epochs", "0"],
                 ["eval", "--data", str(path), "--checkpoint", str(tmp_path / "m.occt")]):
        assert main(argv) == 1
        assert "text features of shapes" in capsys.readouterr().err


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


def test_encoder_flags_belong_to_pretrain_and_bench_only(small_checkpoint, small_dataset,
                                                         tmp_path, capsys):
    for argv in (["eval", "--data", str(small_dataset), "--checkpoint", str(small_checkpoint),
                  "--curve-a", "morton"],
                 ["inspect", str(small_checkpoint), "--c-dim", "5"],
                 ["gen", "--meshes", str(tmp_path), "--out", str(tmp_path / "d.occt"),
                  "--conv-mode", "none"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --" in captured.err
    assert main(["bench", "--preset", "toy", "--sizes", "8", "--runs", "1",
                 "--c-dim", "8", "--l-blocks", "1", "--curve-a", "morton"]) == 0
    assert "latency" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [[], ["train"], ["eval", "--data", "x.occt"],
                                  ["pretrain", "--data", "x.occt", "--out", "y", "--epochs", "two"],
                                  ["bench", "--conv-mode", "sideways"],
                                  ["bench", "--sizes", "16,abc"], ["bench", "--sizes", "16,-4"],
                                  ["bench", "--runs", "0"], ["bench", "--runs", "-2"]])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: occpoint") and "error:" in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: occpoint")


def test_failed_report_write_leaves_old_files_and_no_temp_file(tmp_path, monkeypatch, capsys):
    csv_path = tmp_path / "bench.csv"
    argv = ["bench", "--preset", "toy", "--sizes", "16", "--runs", "1", "--out", str(csv_path)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["bench.csv", "bench.csv.manifest.json"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("occpoint.container.os.replace", fail)
    assert main(argv) == 1
    assert f"error: {csv_path}: disk full" in capsys.readouterr().err
    manifest = tmp_path / "bench.csv.manifest.json"
    with pytest.raises(OSError, match="disk full"):
        write_manifest(manifest, {"runs": 2}, 0, "start", "end", command_line=["bench"])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_missing_data_file_is_user_error_naming_the_path(small_checkpoint, tmp_path, capsys):
    missing = tmp_path / "missing.occt"
    for argv in (["eval", "--data", str(missing), "--checkpoint", str(small_checkpoint)],
                 ["pretrain", "--data", str(missing), "--out", str(tmp_path / "m.ckpt")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: ") and "internal error" not in err


def test_unwritable_output_is_user_error_naming_the_path(small_mesh_dir, tmp_path, capsys,
                                                        monkeypatch):
    def no_render(*args, **kwargs):
        raise AssertionError("gen rendered a view before checking its output path")

    monkeypatch.setattr("occpoint.dataset.rasterize", no_render)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "d.occt"
    assert main(["gen", "--meshes", str(small_mesh_dir), "--out", str(out),
                 "--resolution", "32", "--points", "64"]) == 1
    assert f"error: {blocker}: " in capsys.readouterr().err


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


@pytest.mark.parametrize("field, value", [("label", 99), ("label", -1),
                                          ("view_id", -5), ("view_id", 12)])
def test_out_of_range_record_field_is_config_error(small_dataset, small_checkpoint, tmp_path,
                                                    capsys, field, value):
    from occpoint.errors import ConfigError

    broken = rewrite(small_dataset, tmp_path / "broken.occt",
                     lambda e, m: m["records"][3].__setitem__(field, value))
    with pytest.raises(ConfigError, match=f"record 3 .* has {field} {value}, outside"):
        load_dataset(broken)
    for argv in (["pretrain", "--data", str(broken), "--out", str(tmp_path / "m.occt"),
                  *TOY_SMALL, "--epochs", "0", "--warmup-epochs", "0"],
                 ["eval", "--data", str(broken), "--checkpoint", str(small_checkpoint)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert f"{field} {value}, outside" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_checkpoint(small_dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("ckpt") / "m.occt"
    assert main(["pretrain", "--data", str(small_dataset), "--out", str(ckpt),
                 "--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6",
                 "--c-dim", "16", "--epochs", "0", "--warmup-epochs", "0",
                 "--seed", "0"]) == 0
    return ckpt


def store_views(entries, meta):
    """A checkpoint's four stores, each as named views of its entry's vector."""
    from occpoint.encoder import EncoderConfig
    from occpoint.training import FlatViews, TrainConfig, init_model

    shapes = init_model(EncoderConfig.from_dict(meta["encoder_config"]),
                        TrainConfig(**meta["train_config"])).opt.weights
    return {store: FlatViews(entries[store], ((k, v.shape) for k, v in shapes.items()))
            for store in ("param", "ema", "opt/m", "opt/v")}


def per_name_layout(entries, meta):
    """Rewrite a checkpoint into the layout it had before it held the four
    stores whole: one `<store>/<parameter name>` entry per parameter and
    store, in store order, and a header without `layout_sha256`."""
    stores = store_views(entries, meta)
    entries.clear()
    entries.update((f"{store}/{name}", views[name])
                   for name in stores["param"] for store, views in stores.items())
    meta.pop("layout_sha256")


@pytest.mark.parametrize("edit", [
    pytest.param(lambda e, m: m.pop("step"), id="no-step"),
    pytest.param(lambda e, m: m.pop("encoder_config"), id="no-encoder-config"),
    pytest.param(lambda e, m: m["encoder_config"].pop("curve_a"), id="no-curve"),
    pytest.param(lambda e, m: m["train_config"].__setitem__("surprise", 1), id="unknown-key"),
    pytest.param(lambda e, m: m.__setitem__("train_config", [1, 2]), id="list-config"),
    pytest.param(lambda e, m: e.pop("ema"), id="no-ema-tensor"),
    pytest.param(lambda e, m: e.pop("param"), id="no-param-tensor"),
    pytest.param(lambda e, m: e.__setitem__("opt/v", e["opt/v"][:-1]), id="wrong-shape-moment"),
    pytest.param(lambda e, m: e.__setitem__("extra", np.zeros(3)), id="fifth-tensor"),
    pytest.param(lambda e, m: m.__setitem__("layout_sha256", "0" * 64), id="edited-layout"),
    pytest.param(lambda e, m: e.__setitem__("ema", e["ema"].astype(np.float32)), id="f32-ema"),
    pytest.param(per_name_layout, id="per-name-layout"),
    # The checksum covers the tensors, not the header: edits to it must be refused.
    pytest.param(lambda e, m: m["encoder_config"].__setitem__("c_dim", 16.5), id="float-c-dim"),
    pytest.param(lambda e, m: m["encoder_config"].__setitem__("expand", 1.5), id="float-expand"),
    pytest.param(lambda e, m: m["encoder_config"].__setitem__("l_blocks", True), id="bool-l-blocks"),
    pytest.param(lambda e, m: m["train_config"].__setitem__("seed", True), id="bool-seed"),
    pytest.param(lambda e, m: m["encoder_config"].__setitem__("l_blocks", 1),
                 id="unexpected-tensors"),
    pytest.param(lambda e, m: m.__setitem__("step", -1), id="negative-step"),
    pytest.param(lambda e, m: m.__setitem__("step", True), id="bool-step"),
    pytest.param(lambda e, m: m.__setitem__("step", 2.7), id="float-step"),
    pytest.param(lambda e, m: m["train_config"].__setitem__("base_lr", float("nan")),
                 id="nan-base-lr"),
    # Fields this version does not have: the recipe's constants are not settable.
    pytest.param(lambda e, m: m["train_config"].__setitem__("ema_decay", "x"), id="str-ema-decay"),
    pytest.param(lambda e, m: m["train_config"].__setitem__("ema_decay", 1.0), id="one-ema-decay"),
    pytest.param(lambda e, m: m["train_config"].__setitem__("weight_decay", None),
                 id="null-weight-decay"),
    pytest.param(lambda e, m: m["encoder_config"].__setitem__("pointnet_hidden", 0),
                 id="zero-pointnet-hidden"),
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


@pytest.mark.parametrize("field, value", [("c_dim", 100000), ("l_blocks", 400)])
def test_a_header_that_asks_for_another_model_is_refused_before_it_is_built(
        small_checkpoint, small_dataset, tmp_path, capsys, field, value):
    """The checksum does not cover the header, so an edited config may ask
    for any size of model: a 74.5 GiB one, or a 342 MB one. The entries'
    length is checked against the config's parameter count first, and the
    refusal names both counts without drawing any of that model."""
    import tracemalloc

    from occpoint.container import read_container_file
    from occpoint.encoder import EncoderConfig
    from occpoint.errors import ConfigError
    from occpoint.training import load_checkpoint, store_size

    broken = rewrite(small_checkpoint, tmp_path / "edited.occt",
                     lambda e, m: m["encoder_config"].__setitem__(field, value))
    entries, meta = read_container_file(broken)
    stored, wanted = entries["param"].size, store_size(EncoderConfig.from_dict(meta["encoder_config"]))
    del entries
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=rf"has {wanted} parameters.*f64 \[{wanted}\].*f64 \[{stored}\]"):
            load_checkpoint(broken)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20 < 8 * wanted
    capsys.readouterr()
    assert main(["eval", "--data", str(small_dataset), "--checkpoint", str(broken)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"has {wanted} parameters" in captured.err


def test_checkpoint_with_a_recipe_field_in_its_header_is_refused(small_checkpoint,
                                                                 small_dataset, tmp_path,
                                                                 capsys):
    """The weight decay is a constant, not a config field: a header that still
    sets it, as checkpoints of the earlier layout did, is refused by name."""
    broken = rewrite(small_checkpoint, tmp_path / "earlier.occt",
                     lambda e, m: m["train_config"].__setitem__("weight_decay", 0.05))
    capsys.readouterr()
    assert main(["eval", "--data", str(small_dataset), "--checkpoint", str(broken)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "weight_decay" in captured.err


def test_eval_of_a_zeroed_head_is_refused(small_dataset, small_checkpoint, tmp_path, capsys):
    """A zeroed encoder head embeds every cloud as the zero vector, which has
    no direction: eval exits 1 rather than ranking classes by NaN."""
    def zero_head(entries, meta):
        stores = store_views(entries, meta)
        for name in ("head_w", "head_b"):
            for store in ("param", "ema"):
                stores[store][f"encoder.{name}"][...] = 0.0

    broken = rewrite(small_checkpoint, tmp_path / "zero-head.occt", zero_head)
    capsys.readouterr()
    assert main(["eval", "--data", str(small_dataset), "--checkpoint", str(broken),
                 "--mode", "both"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: zero-norm row; cannot normalize\n"


# --- token cache file, manifests and inspect ----------------------------------

TOY_SMALL = ["--preset", "toy", "--s-tokens", "8", "--k-neighbors", "6", "--c-dim", "16"]


@pytest.fixture
def data_copy(small_dataset, tmp_path):
    """The small dataset alone in a directory of its own."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    path = data_dir / small_dataset.name
    path.write_bytes(small_dataset.read_bytes())
    return path


def sidecars(data_path):
    return sorted(data_path.parent.glob(f"{data_path.name}.tokens-*.occt"))


def eval_stdout(data, checkpoint, capsys):
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                 "--mode", "both"]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_eval_output_is_the_same_cold_warm_and_rebuilt(data_copy, small_checkpoint, capsys):
    cold = eval_stdout(data_copy, small_checkpoint, capsys)
    (sidecar,) = sidecars(data_copy)
    warm = eval_stdout(data_copy, small_checkpoint, capsys)
    sidecar.unlink()
    rebuilt = eval_stdout(data_copy, small_checkpoint, capsys)
    assert cold == warm == rebuilt and cold[1] == "" and "top1: " in cold[0]
    assert sidecars(data_copy) == [sidecar]


def test_pretrain_checkpoint_is_the_same_with_a_warm_cache(data_copy, tmp_path):
    argv = ["pretrain", "--data", str(data_copy), *TOY_SMALL, "--epochs", "1",
            "--warmup-epochs", "0", "--batch-size", "4", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "cold.occt")]) == 0
    assert len(sidecars(data_copy)) == 1
    assert main(argv + ["--out", str(tmp_path / "warm.occt")]) == 0
    assert (tmp_path / "cold.occt").read_bytes() == (tmp_path / "warm.occt").read_bytes()
    hits = [json.loads((tmp_path / f"{name}.occt.manifest.json").read_text())["inputs"]
            for name in ("cold", "warm")]
    assert [doc["token_cache"]["hit"] for doc in hits] == [False, True]
    assert hits[0]["token_cache"]["path"] == str(sidecars(data_copy)[0])
    assert hits[0]["dataset_sha256"] == hashlib.sha256(data_copy.read_bytes()).hexdigest()


@pytest.mark.parametrize("damage", ["truncate", "flip"])
def test_eval_rebuilds_a_damaged_cache_with_one_warning(data_copy, small_checkpoint, capsys,
                                                        damage):
    want, _ = eval_stdout(data_copy, small_checkpoint, capsys)
    (sidecar,) = sidecars(data_copy)
    data = bytearray(sidecar.read_bytes())
    if damage == "truncate":
        del data[len(data) // 2:]
    else:
        data[-100] ^= 0x01
    sidecar.write_bytes(bytes(data))
    out, err = eval_stdout(data_copy, small_checkpoint, capsys)
    assert out == want and len(err.splitlines()) == 1 and err.startswith("warning: ")
    assert eval_stdout(data_copy, small_checkpoint, capsys) == (want, "")


def test_eval_in_a_read_only_data_directory(data_copy, small_checkpoint, capsys,
                                            monkeypatch):
    want, _ = eval_stdout(data_copy, small_checkpoint, capsys)
    for sidecar in sidecars(data_copy):
        sidecar.unlink()
    before = sorted(data_copy.parent.iterdir())

    def read_only(src, dst):
        # What a read-only directory does even to a process that may write anywhere.
        raise PermissionError(13, "Permission denied", str(dst))

    data_copy.parent.chmod(0o555)
    monkeypatch.setattr("occpoint.container.os.replace", read_only)
    try:
        out, err = eval_stdout(data_copy, small_checkpoint, capsys)
    finally:
        data_copy.parent.chmod(0o755)
    assert out == want
    assert len(err.splitlines()) == 1 and err.startswith("warning: token cache not written")
    assert sorted(data_copy.parent.iterdir()) == before


def test_eval_manifest_records_the_dataset_cache_and_heldout_views(data_copy,
                                                                   small_checkpoint,
                                                                   tmp_path):
    report = tmp_path / "report.json"
    for _ in range(2):
        assert main(["eval", "--data", str(data_copy), "--checkpoint",
                     str(small_checkpoint), "--out", str(report)]) == 0
    inputs = json.loads(beside(report).read_text())["inputs"]
    assert inputs == {
        "dataset_sha256": hashlib.sha256(data_copy.read_bytes()).hexdigest(),
        "token_cache": {"path": str(sidecars(data_copy)[0]), "hit": True},
        "heldout_view_ids": [10, 11],
    }


@pytest.mark.parametrize("refused", [
    pytest.param(["--epochs", "2", "--warmup-epochs", "3"], id="warmup-above-epochs"),
    pytest.param(["--epochs", "2", "--resume", "FIRST", "--curve-a", "morton"],
                 id="resume-other-curve"),
    pytest.param(["--epochs", "2", "--resume", "FIRST", "--k-neighbors", "5"],
                 id="resume-other-k"),
    # FIRST ran 1 epoch: a run of 0 would be written back as 0 epochs at its step.
    pytest.param(["--epochs", "0", "--resume", "FIRST"], id="resume-fewer-epochs"),
])
def test_refused_pretrain_writes_nothing_not_even_a_cache(data_copy, tmp_path, capsys,
                                                          refused):
    base = ["pretrain", "--data", str(data_copy), *TOY_SMALL, "--batch-size", "4"]
    first = tmp_path / "first.occt"
    assert main(base + ["--epochs", "1", "--warmup-epochs", "0", "--out", str(first)]) == 0
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    argv = [str(first) if a == "FIRST" else a for a in refused]
    assert main(base + argv + ["--out", str(tmp_path / "second.occt")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture
def beside_inputs(data_copy, small_dataset, small_checkpoint, small_mesh_dir, tmp_path):
    """A run directory: the dataset DATA in DIR, the checkpoint CKPT in RUN,
    each with the files written beside it, a second name RUN/link.occt of
    the dataset, and the four meshes in MESHES. Returns a function that
    fills those names into a command line and adds the command's small
    settings."""
    ckpt = tmp_path / "m.occt"
    for src, dst in ((small_dataset, data_copy), (small_checkpoint, ckpt)):
        dst.write_bytes(src.read_bytes())
        beside(dst).write_bytes(beside(src).read_bytes())
    # The checkpoint ran no step; a row tells its metrics from a fresh empty file.
    beside(ckpt, ".metrics.jsonl").write_text('{"step": 1}\n')
    os.link(data_copy, tmp_path / "link.occt")
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    for mesh in small_mesh_dir.glob("*.obj"):
        (meshes / mesh.name).write_bytes(mesh.read_bytes())
    places = {"DATA": data_copy, "CKPT": ckpt, "DIR": data_copy.parent, "RUN": tmp_path,
              "MESHES": meshes}
    settings = {"pretrain": [*TOY_SMALL, "--epochs", "0", "--warmup-epochs", "0"],
                "gen": ["--resolution", "32", "--points", "64", "--embed-dim", "16"],
                "eval": []}

    def fill(argv):
        argv = [str(places[head]) + sep + tail if head in places else a
                for a in argv for head, sep, tail in [a.partition("/")]]
        return argv + settings[argv[0]]
    return fill


def snapshot(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv", [
    pytest.param(["pretrain", "--data", "DATA", "--out", "DATA"], id="pretrain-out-is-the-data"),
    pytest.param(["pretrain", "--data", "DATA", "--resume", "CKPT", "--out", "CKPT"],
                 id="pretrain-out-is-the-resumed-checkpoint"),
    pytest.param(["eval", "--data", "DATA", "--checkpoint", "CKPT", "--out", "CKPT"],
                 id="eval-out-is-the-checkpoint"),
    pytest.param(["pretrain", "--data", "DATA", "--out", "RUN/link.occt"],
                 id="pretrain-out-is-another-name-of-the-data"),
    pytest.param(["eval", "--data", "DATA", "--checkpoint", "CKPT",
                  "--out", "DIR/small.occt.manifest.json"], id="eval-out-is-the-datas-manifest"),
    pytest.param(["pretrain", "--data", "DATA", "--resume", "CKPT",
                  "--out", "RUN/m.occt.manifest.json"],
                 id="pretrain-out-is-the-checkpoints-manifest"),
    pytest.param(["gen", "--meshes", "MESHES", "--out", "MESHES/cube_00.obj"],
                 id="gen-out-is-an-input-mesh"),
])
def test_an_output_may_not_replace_an_input(beside_inputs, tmp_path, capsys, monkeypatch,
                                           argv):
    """Every output is refused, before anything is read or written, when it
    or a file named from it is an input or the manifest beside one."""
    def no_load(path):
        raise AssertionError(f"gen loaded {path} before checking its output")

    monkeypatch.setattr("occpoint.cli.load_obj", no_load)
    before = snapshot(tmp_path)
    assert main(beside_inputs(argv)) == 1
    assert "would overwrite" in capsys.readouterr().err
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("argv", [
    pytest.param(["pretrain", "--data", "DATA", "--out", "DIR/small.ckpt"],
                 id="pretrain-beside-the-data"),
    pytest.param(["eval", "--data", "DATA", "--checkpoint", "CKPT", "--out", "DIR/small.json"],
                 id="eval-beside-the-data"),
    pytest.param(["eval", "--data", "DATA", "--checkpoint", "CKPT", "--out", "RUN/m.json"],
                 id="eval-beside-the-checkpoint"),
    pytest.param(["pretrain", "--data", "DATA", "--resume", "CKPT", "--out", "RUN/m.ckpt"],
                 id="pretrain-beside-the-resumed-checkpoint"),
    pytest.param(["pretrain", "--data", "DATA", "--out", "RUN/m.ckpt"],
                 id="pretrain-beside-another-checkpoint"),
])
def test_an_output_beside_an_input_is_written(beside_inputs, tmp_path, argv):
    """An output that shares its stem with an input, or with another run's
    output, names its files from its full name: the run succeeds, and every
    file that was there keeps its bytes."""
    before = snapshot(tmp_path)
    argv = beside_inputs(argv)
    assert main(argv) == 0
    after = snapshot(tmp_path)
    assert {p: after[p] for p in before} == before
    out = Path(argv[argv.index("--out") + 1])
    written = [out, beside(out)] + ([beside(out, ".metrics.jsonl")] if argv[0] == "pretrain"
                                    else [])
    assert set(written) <= set(after) - set(before)
    assert json.loads(beside(out).read_text())["command_line"][1] == argv[0]


@pytest.mark.parametrize("command, first_step", [("eval", "load_dataset"),
                                                 ("bench", "run_benchmark")])
def test_an_output_in_a_new_directory_is_written(data_copy, small_checkpoint, tmp_path,
                                                monkeypatch, command, first_step):
    """The output's directory is made before the command's first step, so a
    path that cannot be written fails before the work, not after it."""
    from occpoint import cli

    out = tmp_path / "new" / "deeper" / "out.txt"
    step = getattr(cli, first_step)

    def after_the_directory(*args, **kwargs):
        assert out.parent.is_dir(), f"{first_step} ran before {out.parent} was made"
        return step(*args, **kwargs)

    monkeypatch.setattr(cli, first_step, after_the_directory)
    argv = {"eval": ["eval", "--data", str(data_copy), "--checkpoint", str(small_checkpoint)],
            "bench": ["bench", "--preset", "toy", "--sizes", "16", "--runs", "1"]}[command]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text()
    assert json.loads(beside(out).read_text())["command_line"][1] == command


def test_inspect_prints_version_metadata_and_tensors(data_copy, small_checkpoint, capsys):
    from occpoint.container import VERSION
    from occpoint.training import load_checkpoint

    eval_stdout(data_copy, small_checkpoint, capsys)
    (sidecar,) = sidecars(data_copy)
    p = load_checkpoint(small_checkpoint).opt.weights.flat.size
    for path, meta_key, tensor in ((data_copy, '"class_names"', "rec00000/points  f32"),
                                   (small_checkpoint, '"train_config"',
                                    f"\n  param  f64  [{p}]  {8 * p} bytes\n"),
                                   (sidecar, '"dataset_sha256"', "orders  u64")):
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"format: OCCT version {VERSION}\nmeta: {{")
        assert meta_key in out and tensor in out
        assert '"tensors"' not in out and '"offset"' not in out
    lines = out.splitlines()
    r = len(load_dataset(data_copy).records)
    assert f"  centers  f64  [{r}, 8, 3]  {r * 8 * 3 * 8} bytes" in lines
    assert f"  orders  u64  [{r}, 2, 8]  {r * 16 * 8} bytes" in lines


def test_inspect_truncated_file_is_format_error(small_checkpoint, tmp_path, capsys):
    truncated = tmp_path / "cut.occt"
    data = small_checkpoint.read_bytes()
    truncated.write_bytes(data[: len(data) // 3])
    assert main(["inspect", str(truncated)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
