import json
import os
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from modaldecomp import (
    GenSpec,
    SplitConfig,
    component_labels,
    decompose,
    equality_residuals,
    gen_sample_set,
    gen_synthetic_model,
    load_model,
    save_model,
    save_samples,
)
from modaldecomp import cli
from modaldecomp.decompose import _output_and_residuals
from modaldecomp.heatmap import as_2d, write_component_maps

from conftest import count_calls

SMALL = ["--grid", "8", "--channels", "4", "--depth", "2"]


def run_cli(args, cwd, threads=None, check=True):
    env = dict(os.environ)
    env.pop("LMD_THREADS", None)
    if threads is not None:
        env["LMD_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "modaldecomp", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stderr}")
    return proc


def assert_validation_error(proc, detail):
    """Exit 2 with a one-line 'error:' message that names detail, no traceback."""
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and detail in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Model + samples shared by the command tests."""
    path = tmp_path_factory.mktemp("cli")
    run_cli(["gen-model", "--seed", "7", *SMALL, "--out", "model.json"], path)
    run_cli(["gen-samples", "--seed", "3", "--model", "model.json", "--count", "6", "--out", "samples.json"], path)
    return path


class TestGenModel:
    def test_file_parses(self, workdir):
        doc = json.loads((workdir / "model.json").read_text())
        assert doc["version"] == 1 and doc["modalities"] == 2

    def test_same_flags_identical_bytes(self, workdir):
        run_cli(["gen-model", "--seed", "7", *SMALL, "--out", "again.json"], workdir)
        assert (workdir / "again.json").read_bytes() == (workdir / "model.json").read_bytes()

    def test_three_modalities(self, workdir):
        run_cli(["gen-model", "--seed", "1", "--modalities", "3", *SMALL, "--out", "m3.json"], workdir)
        doc = json.loads((workdir / "m3.json").read_text())
        assert sum(1 for l in doc["layers"] if l["kind"] == "Input") == 3

    def test_attention_flag(self, workdir):
        run_cli(["gen-model", "--seed", "1", "--attention", *SMALL, "--out", "attn.json"], workdir)
        kinds = {l["kind"] for l in json.loads((workdir / "attn.json").read_text())["layers"]}
        assert "MatMul" in kinds and "Softmax" in kinds

    def test_invalid_spec_exits_2(self, workdir):
        proc = run_cli(["gen-model", "--modalities", "0", "--out", "x.json"], workdir, check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", ["--grid", "--channels"])
    def test_empty_extent_exits_2(self, workdir, flag):
        proc = run_cli(["gen-model", flag, "0", "--out", "empty.json"], workdir, check=False)
        assert_validation_error(proc, flag[2:])
        assert not (workdir / "empty.json").exists()

    def test_empty_input_shape_exits_2(self, workdir):
        doc = json.loads((workdir / "model.json").read_text())
        doc["layers"][0]["shape"] = []
        (workdir / "emptyshape.json").write_text(json.dumps(doc))
        proc = run_cli(
            ["gen-samples", "--model", "emptyshape.json", "--out", "s_empty.json"], workdir, check=False
        )
        assert_validation_error(proc, "'in0' (Input) 'shape' must be a non-empty list of positive integers")
        assert proc.stderr.splitlines()[-1].startswith("error:")
        assert not (workdir / "s_empty.json").exists()


class TestDecompose:
    def test_report_contract(self, workdir):
        run_cli(
            ["decompose", "--model", "model.json", "--samples", "samples.json", "--index", "1", "--out", "report.json"],
            workdir,
        )
        doc = json.loads((workdir / "report.json").read_text())
        assert doc["max_equality_residual"] <= 1e-9
        comps = doc["components"]
        assert set(comps) == {"m0", "m1", "bias"}
        shape = np.asarray(comps["m0"]).shape
        assert shape == (1, 8, 8)
        total = sum(np.asarray(comps[k]) for k in comps)
        assert np.max(np.abs(total)) > 0

    def test_bad_index_exits_2(self, workdir):
        proc = run_cli(
            ["decompose", "--model", "model.json", "--samples", "samples.json", "--index", "99", "--out", "x.json"],
            workdir,
            check=False,
        )
        assert proc.returncode == 2

    def test_numerical_contract_violation_exits_3(self, workdir):
        # a non-finite input value must fail the decomposition, naming the layer
        doc = json.loads((workdir / "samples.json").read_text())
        doc["samples"][0]["0"][0][0][0] = float("inf")
        (workdir / "poisoned.json").write_text(json.dumps(doc, separators=(",", ":")))
        proc = run_cli(
            ["decompose", "--model", "model.json", "--samples", "poisoned.json", "--out", "x.json"],
            workdir,
            check=False,
        )
        assert proc.returncode == 3
        assert "non-finite" in proc.stderr and "in0" in proc.stderr
        # the error line is all of stderr: no numpy warnings come before it
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")

    def test_samples_document_without_samples_exits_2(self, workdir):
        (workdir / "nosamples.json").write_text(json.dumps({"version": 1, "n": 1}))
        proc = run_cli(
            ["decompose", "--model", "model.json", "--samples", "nosamples.json", "--out", "x.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "'samples'")

    def test_input_layer_without_shape_exits_2(self, workdir):
        doc = json.loads((workdir / "model.json").read_text())
        del doc["layers"][0]["shape"]
        (workdir / "noshape.json").write_text(json.dumps(doc))
        proc = run_cli(
            ["decompose", "--model", "noshape.json", "--samples", "samples.json", "--out", "x.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "'in0' (Input) missing 'shape'")

    @pytest.mark.parametrize("which", ["model", "samples"])
    def test_top_level_array_exits_2(self, workdir, which):
        (workdir / "array.json").write_text("[]")
        files = {"model": "model.json", "samples": "samples.json", which: "array.json"}
        proc = run_cli(
            ["decompose", "--model", files["model"], "--samples", files["samples"],
             "--out", "x.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "document is not a JSON object")

    @pytest.mark.parametrize(
        "kind, key, value, detail",
        [
            ("Input", "shape", 8, "'in0' (Input) 'shape' must be a list of integers"),
            ("LayerNorm", "axes", 0, "(LayerNorm) 'axes' must be a list of integers"),
            ("Conv2d", "stride", None, "'branch0_conv' (Conv2d) missing 'stride'"),
            ("Conv2d", "padding", None, "'branch0_conv' (Conv2d) missing 'padding'"),
            ("BatchNorm", "eps", None, "'branch0_norm' (BatchNorm) missing 'eps'"),
        ],
    )
    def test_malformed_layer_exits_2(self, workdir, kind, key, value, detail):
        doc = json.loads((workdir / "model.json").read_text())
        layer = next(l for l in doc["layers"] if l["kind"] == kind)
        if value is None:
            del layer[key]
        else:
            layer[key] = value
        (workdir / "malformed.json").write_text(json.dumps(doc))
        proc = run_cli(
            ["decompose", "--model", "malformed.json", "--samples", "samples.json",
             "--out", "x.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, detail)

    def test_concat_axis_out_of_range_exits_2(self, workdir):
        doc = json.loads((workdir / "model.json").read_text())
        next(l for l in doc["layers"] if l["kind"] == "ConcatFusion")["axis"] = 3
        (workdir / "axis3.json").write_text(json.dumps(doc))
        proc = run_cli(
            ["decompose", "--model", "axis3.json", "--samples", "samples.json", "--out", "axis3_report.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "layer 'fuse_concat' concat axis 3")
        assert proc.stderr.splitlines()[-1].startswith("error:")
        assert not (workdir / "axis3_report.json").exists()

    def test_act_rule_on_three_modalities_exits_2(self, workdir):
        run_cli(["gen-samples", "--seed", "5", "--model", "m3.json", "--count", "2", "--out", "s3b.json"], workdir)
        proc = run_cli(
            [
                "decompose", "--model", "m3.json", "--samples", "s3b.json",
                "--act-rule", "sum", "--out", "x.json",
            ],
            workdir,
            check=False,
        )
        assert proc.returncode == 2
        assert "two modalities" in proc.stderr

    def test_heatmaps_written_per_component(self, workdir):
        run_cli(
            [
                "decompose", "--model", "model.json", "--samples", "samples.json", "--index", "0",
                "--out", "r.json", "--heatmaps", "maps", "--norm", "max-positive",
            ],
            workdir,
        )
        files = sorted(p.name for p in (workdir / "maps").iterdir())
        assert files == ["bias.pgm", "m0.pgm", "m1.pgm"]
        blob = (workdir / "maps" / "bias.pgm").read_bytes()
        assert blob.startswith(b"P5\n8 8\n255\n") and len(blob) == len(b"P5\n8 8\n255\n") + 64

    def test_grid_one_heatmaps_are_one_pixel(self, tmp_path, capsys):
        m, s, maps = (str(tmp_path / name) for name in ("m.json", "s.json", "maps"))
        assert cli.main(["gen-model", "--grid", "1", "--channels", "2", "--depth", "2", "--out", m]) == 0
        assert cli.main(["gen-samples", "--model", m, "--count", "1", "--out", s]) == 0
        argv = ["decompose", "--model", m, "--samples", s, "--out", str(tmp_path / "r.json"), "--heatmaps", maps]
        assert cli.main(argv) == 0, capsys.readouterr().err
        for label in ("m0", "m1", "bias"):
            blob = (tmp_path / "maps" / f"{label}.pgm").read_bytes()
            assert blob.startswith(b"P5\n1 1\n255\n") and len(blob) == len(b"P5\n1 1\n255\n") + 1

    def test_output_that_is_no_map_writes_nothing(self, tmp_path, capsys):
        doc = json.loads(save_model(gen_synthetic_model(0, GenSpec(grid=4, channels=3, depth=2))))
        head = next(l for l in doc["layers"] if l["id"] == doc["output"])
        head["weight"], head["bias"] = head["weight"] * 2, head["bias"] * 2  # each list twice: two output channels
        (tmp_path / "m.json").write_text(json.dumps(doc))
        (tmp_path / "s.json").write_bytes(save_samples(gen_sample_set(1, load_model(json.dumps(doc).encode()), 1)))
        report, maps = tmp_path / "r.json", tmp_path / "maps"
        argv = ["decompose", "--model", str(tmp_path / "m.json"), "--samples", str(tmp_path / "s.json"),
                "--out", str(report), "--heatmaps", str(maps)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: heatmap export needs a 2-d map, got shape (2, 4, 4)"]
        assert not report.exists() and not maps.exists()

    def test_csv_heatmaps_round_trip(self, workdir):
        run_cli(
            [
                "decompose", "--model", "model.json", "--samples", "samples.json", "--index", "0",
                "--out", "r2.json", "--heatmaps", "csvmaps", "--encoding", "signed-csv",
            ],
            workdir,
        )
        from modaldecomp.heatmap import parse_csv

        doc = json.loads((workdir / "r2.json").read_text())
        for label in ("m0", "m1", "bias"):
            got = parse_csv((workdir / "csvmaps" / f"{label}.csv").read_bytes())
            assert np.array_equal(got, np.asarray(doc["components"][label])[0])

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda entry: entry.pop("1"), "missing input tensor for modality 1"),
            (
                lambda entry: entry.update({"0": np.zeros((1, 4, 4)).tolist()}),
                "input 'in0' expects shape (1, 8, 8), got (1, 4, 4)",
            ),
        ],
        ids=["missing-modality", "wrong-shape"],
    )
    def test_bad_sample_fails_in_the_sweeps_input_step(self, workdir, mutate, message):
        doc = json.loads((workdir / "samples.json").read_text())
        mutate(doc["samples"][0])
        (workdir / "badsample.json").write_text(json.dumps(doc))
        proc = run_cli(
            ["decompose", "--model", "model.json", "--samples", "badsample.json", "--out", "bad.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, message)
        assert proc.stderr == f"error: {message}\n"
        assert not (workdir / "bad.json").exists()


def _streamed_case(tmp_path, seed, modalities=2, attention=False):
    """A grid-8 model and a one-sample file written under tmp_path; returns the model, the sample and the file args."""
    spec = GenSpec(modalities=modalities, grid=8, channels=4, depth=2, include_attention=attention)
    model = gen_synthetic_model(seed, spec)
    samples = gen_sample_set(seed + 1, model, 1)
    (tmp_path / "m.json").write_bytes(save_model(model))
    (tmp_path / "s.json").write_bytes(save_samples(samples))
    return model, samples[0], ["--model", str(tmp_path / "m.json"), "--samples", str(tmp_path / "s.json")]


STREAMED_CASES = [
    (2, False, ["--bn-rule", "identity", "--ln-rule", "ratio"]),
    (2, False, ["--bn-rule", "uniform", "--ln-rule", "identity"]),
    (2, False, ["--bn-rule", "identity", "--ln-rule", "identity"]),
    (2, True, ["--act-rule", "sum"]),
    (2, True, ["--act-rule", "ratio", "--bn-rule", "uniform"]),
    (3, True, []),
]


def _config(flags):
    args = cli.build_parser().parse_args(["decompose", "--model", "m", "--samples", "s", "--out", "o", *flags])
    return cli._split_config(args)


class TestStreamedReport:
    """decompose keeps only the output stack and takes each layer's residual inside the sweep."""

    @pytest.mark.parametrize("encoding", ["positive-pgm", "signed-csv"])
    @pytest.mark.parametrize("modalities, attention, flags", STREAMED_CASES)
    def test_bytes_equal_the_library_report(self, tmp_path, modalities, attention, flags, encoding):
        model, x, files = _streamed_case(tmp_path, 11, modalities, attention)
        out, maps = tmp_path / "r.json", tmp_path / "maps"
        argv = ["decompose", *files, *flags, "--out", str(out), "--heatmaps", str(maps), "--encoding", encoding]
        assert cli.main(argv) == 0
        cfg = _config(flags)
        res = decompose(model, x, cfg)
        residuals = equality_residuals(model, res.components, res.state)
        worst = max(residuals, key=residuals.get)
        doc = {
            "version": 1,
            "index": 0,
            "config": asdict(cfg),
            "max_equality_residual": residuals[worst],
            "worst_layer": worst,
            "residuals": residuals,
            "components": res.output.to_dict(),
        }
        assert out.read_bytes() == json.dumps(doc, separators=(",", ":")).encode("utf-8")
        labels = component_labels(modalities)
        want = write_component_maps(
            tmp_path / "want", {lab: as_2d(res.output.parts[i]) for i, lab in enumerate(labels)}, encoding
        )
        assert sorted(p.name for p in maps.iterdir()) == sorted(p.name for p in want)
        for path in want:
            assert (maps / path.name).read_bytes() == path.read_bytes(), path.name

    def test_one_sweep_that_keeps_the_output(self, tmp_path, monkeypatch):
        model, x, files = _streamed_case(tmp_path, 12, attention=True)
        counts = count_calls(
            monkeypatch,
            ("modaldecomp.decompose", "modaldecomp.cli", "modaldecomp.model"),
            ("decompose", "equality_residuals", "forward"),
        )
        keeps, seen = [], []
        module = sys.modules["modaldecomp.decompose"]
        sweep = module._decompose

        def spy(plan, inputs, keep=None, state=None, observe=None):
            def recorded(layer, total):
                seen.append((layer.id, total.copy()))
                observe(layer, total)

            keeps.append(keep)
            return sweep(plan, inputs, keep, state, recorded)

        monkeypatch.setattr(module, "_decompose", spy)
        assert cli.main(["decompose", *files, "--out", str(tmp_path / "r.json")]) == 0
        assert keeps == [{model.output}]
        assert counts == {"decompose": 0, "equality_residuals": 0, "forward": 0}
        monkeypatch.undo()
        res = decompose(model, x)
        assert [lid for lid, _ in seen] == [layer.id for layer in model.layers]
        for lid, total in seen:
            assert np.array_equal(total, res.components[lid].total()), lid

    @pytest.mark.parametrize("modalities, attention, flags", STREAMED_CASES)
    def test_residuals_equal_equality_residuals(self, tmp_path, modalities, attention, flags):
        model, x, _ = _streamed_case(tmp_path, 13, modalities, attention)
        cfg = _config(flags)
        output, residuals = _output_and_residuals(model, x, cfg)
        res = decompose(model, x, cfg)
        assert list(residuals.items()) == list(equality_residuals(model, res.components, res.state).items())
        assert np.array_equal(output.parts, res.output.parts)

    @pytest.mark.parametrize("grid, modalities", [(16, 2), (16, 3), (8, 3)])
    def test_peak_memory_below_half_of_two_passes(self, grid, modalities):
        model = gen_synthetic_model(14, GenSpec(modalities=modalities, grid=grid, channels=8, include_attention=True))
        x = gen_sample_set(15, model, 1)[0]
        cfg = SplitConfig()

        def two_passes():
            res = decompose(model, x, cfg)
            equality_residuals(model, res.components, res.state)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: _output_and_residuals(model, x, cfg)) < 0.5 * peak(two_passes)


class TestMetrics:
    def test_ideal_cells_and_blocks(self, workdir):
        proc = run_cli(
            [
                "metrics", "--model", "model.json", "--samples", "samples.json",
                "--stride", "1", "--offsets", "2",
                "--variants", "identity-ratio,uniform-identity", "--out", "table.json",
            ],
            workdir,
        )
        doc = json.loads((workdir / "table.json").read_text())
        assert len(doc["reports"]) == 2
        for rep in doc["reports"]:
            for cell in rep["cells"]:
                if cell["perturbed"] != cell["observed"] + "_p":
                    assert cell["pcc_mean"] == 1.0 and cell["pcc_std"] == 0.0
                    assert cell["mse_mean"] == 0.0 and cell["mse_std"] == 0.0
        assert "variant identity-ratio" in proc.stdout
        assert "variant uniform-identity" in proc.stdout

    def test_joint_perturbation_naming(self, workdir):
        run_cli(["gen-samples", "--seed", "5", "--model", "m3.json", "--count", "4", "--out", "s3.json"], workdir)
        run_cli(
            [
                "metrics", "--model", "m3.json", "--samples", "s3.json",
                "--stride", "1", "--offsets", "2", "--perturb", "m0+m1", "--out", "t3.json",
            ],
            workdir,
        )
        doc = json.loads((workdir / "t3.json").read_text())
        labels = {(c["perturbed"], c["observed"]) for c in doc["reports"][0]["cells"]}
        assert ("m0_pm1_p", "m2") in labels

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_sample_exits_3(self, workdir, threads):
        # worker threads see the command's numpy error state, so stderr is the error line alone
        doc = json.loads((workdir / "samples.json").read_text())
        doc["samples"][0]["0"][0][0][0] = float("inf")
        (workdir / "infmetrics.json").write_text(json.dumps(doc, separators=(",", ":")))
        proc = run_cli(
            ["metrics", "--model", "model.json", "--samples", "infmetrics.json",
             "--stride", "1", "--offsets", "2", "--out", "inf_table.json"],
            workdir,
            threads=threads,
            check=False,
        )
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
        assert "in0" in proc.stderr

    @pytest.mark.parametrize("offsets", ["0", "-1"])
    def test_offsets_below_one_exit_2(self, workdir, offsets):
        proc = run_cli(
            ["metrics", "--model", "model.json", "--samples", "samples.json",
             "--offsets", offsets, "--out", "no_offsets.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "offset_count")
        assert proc.stderr.splitlines()[-1].startswith("error:")
        assert not (workdir / "no_offsets.json").exists()

    def test_repeated_perturbation_set_exits_2(self, workdir):
        proc = run_cli(
            [
                "metrics", "--model", "model.json", "--samples", "samples.json",
                "--perturb", "m0", "--perturb", "0", "--out", "twice.json",
            ],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "perturbation set (0,)")
        assert not (workdir / "twice.json").exists()

    def test_repeated_variant_exits_2(self, workdir):
        proc = run_cli(
            [
                "metrics", "--model", "model.json", "--samples", "samples.json",
                "--variants", "identity-ratio,identity-ratio", "--out", "twice_variant.json",
            ],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "variant identity-ratio is listed twice")
        assert not (workdir / "twice_variant.json").exists()

    def test_unknown_modality_exits_2(self, workdir):
        proc = run_cli(
            [
                "metrics", "--model", "model.json", "--samples", "samples.json",
                "--perturb", "m9", "--out", "x.json",
            ],
            workdir,
            check=False,
        )
        assert proc.returncode == 2


class TestShapley:
    def test_plain_contract(self, workdir):
        proc = run_cli(
            ["shapley", "--model", "model.json", "--samples", "samples.json", "--index", "0", "--out", "attr.json"],
            workdir,
        )
        doc = json.loads((workdir / "attr.json").read_text())
        assert doc["n_forwards"] == 4
        assert doc["efficiency_residual"] <= 1e-9
        assert "4 coalition evaluations" in proc.stdout

    def test_hybrid_on_zero_bias_affine_matches_decompose(self, workdir):
        run_cli(
            ["gen-model", "--seed", "2", *SMALL, "--norm", "none", "--activation", "none", "--out", "affine.json"],
            workdir,
        )
        # zero the layer constants so the bias component vanishes
        doc = json.loads((workdir / "affine.json").read_text())
        for layer in doc["layers"]:
            if "bias" in layer:
                layer["bias"] = (np.asarray(layer["bias"]) * 0).tolist()
        (workdir / "affine0.json").write_text(json.dumps(doc, separators=(",", ":")))
        run_cli(["gen-samples", "--seed", "4", "--model", "affine0.json", "--count", "2", "--out", "sa.json"], workdir)
        run_cli(
            ["shapley", "--model", "affine0.json", "--samples", "sa.json", "--index", "0", "--hybrid", "--out", "h.json"],
            workdir,
        )
        run_cli(
            ["decompose", "--model", "affine0.json", "--samples", "sa.json", "--index", "0", "--out", "d.json"],
            workdir,
        )
        attr = json.loads((workdir / "h.json").read_text())
        dec = json.loads((workdir / "d.json").read_text())
        for m in ("m0", "m1"):
            assert np.allclose(
                np.asarray(attr["attributions"][m]),
                np.asarray(dec["components"][m]).reshape(np.asarray(attr["attributions"][m]).shape),
                atol=1e-12,
            )

    def test_non_finite_weight_exits_2(self, workdir):
        doc = json.loads((workdir / "model.json").read_text())
        doc["layers"][1]["weight"][0][0][0][0] = float("nan")
        (workdir / "nanweight.json").write_text(json.dumps(doc))
        proc = run_cli(
            ["shapley", "--model", "nanweight.json", "--samples", "samples.json",
             "--out", "nan_attr.json"],
            workdir,
            check=False,
        )
        assert_validation_error(proc, "'branch0_conv' (Conv2d) 'weight' holds a non-finite value")
        assert not (workdir / "nan_attr.json").exists()

    @pytest.mark.parametrize("hybrid", [[], ["--hybrid"]], ids=["plain", "hybrid"])
    def test_non_finite_sample_exits_3(self, workdir, hybrid):
        out = f"inf_attr{len(hybrid)}.json"
        doc = json.loads((workdir / "samples.json").read_text())
        doc["samples"][0]["0"][0][0][0] = float("inf")
        (workdir / "infsample.json").write_text(json.dumps(doc, separators=(",", ":")))
        proc = run_cli(
            ["shapley", "--model", "model.json", "--samples", "infsample.json", *hybrid,
             "--out", out],
            workdir,
            check=False,
        )
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
        assert "finite" in proc.stderr
        assert not (workdir / out).exists()


class TestContractErrors:
    """Failures that used to end without an error line: each ends in one, with exit 2 or 3."""

    @pytest.fixture
    def files(self, tmp_path):
        """A grid-4, 3-channel attention model document and a samples file for it."""
        model = gen_synthetic_model(0, GenSpec(grid=4, channels=3, depth=3, include_attention=True))
        (tmp_path / "samples.json").write_bytes(save_samples(gen_sample_set(1, model, 3)))
        return tmp_path, json.loads(save_model(model))

    def test_equality_residual_exit_3_ends_with_error_line(self, tmp_path, capsys):
        spec = GenSpec(modalities=1, grid=1, channels=1, depth=3, norms=("layernorm",), activations=(), include_attention=True)
        model = gen_synthetic_model(0, spec)
        (tmp_path / "m.json").write_bytes(save_model(model))
        (tmp_path / "s.json").write_bytes(save_samples(gen_sample_set(0, model, 1)))
        report = tmp_path / "r.json"
        argv = ["decompose", "--model", str(tmp_path / "m.json"), "--samples", str(tmp_path / "s.json"),
                "--bn-rule", "identity", "--ln-rule", "identity", "--out", str(report)]
        assert cli.main(argv) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error:") and "'attn_out'" in last
        assert report.exists()

    @pytest.mark.parametrize("command", [["decompose"], ["shapley"], ["metrics", "--stride", "1", "--offsets", "1"]])
    def test_allocation_too_large_exits_2(self, files, command):
        path, doc = files
        next(l for l in doc["layers"] if l["kind"] == "Conv2d")["padding"] = 100000  # asks for terabytes
        (path / "huge.json").write_text(json.dumps(doc))
        two_gib = 2 << 30

        def limit():  # the allocation fails under any overcommit policy, and the import still fits
            resource.setrlimit(resource.RLIMIT_AS, (two_gib, two_gib))

        proc = subprocess.run(
            [sys.executable, "-m", "modaldecomp", *command, "--model", "huge.json", "--samples", "samples.json", "--out", "x.json"],
            cwd=path,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            preexec_fn=limit,
        )
        assert_validation_error(proc, "Unable to allocate")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "command",
        [["decompose"], ["shapley"], ["shapley", "--hybrid"], ["metrics", "--stride", "1", "--offsets", "1"]],
        ids=["decompose", "shapley", "hybrid", "metrics"],
    )
    def test_concat_operands_that_disagree_exit_2(self, tmp_path, capsys, command):
        doc = json.loads(save_model(gen_synthetic_model(0, GenSpec(grid=16, channels=3, depth=2))))
        next(l for l in doc["layers"] if l["id"] == "in1")["shape"] = [1, 8, 8]  # in0 stays [1, 16, 16]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        model = load_model(json.dumps(doc).encode())  # the two extents first meet at the concat
        (tmp_path / "s.json").write_bytes(save_samples(gen_sample_set(1, model, 2)))
        out = tmp_path / "x.json"
        argv = [*command, "--model", str(tmp_path / "m.json"), "--samples", str(tmp_path / "s.json"), "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, key, other",
        [
            ("BatchNorm", "mean", "var"),
            ("BatchNorm", "var", "mean"),
            ("BatchNorm", "gamma", "mean"),
            ("BatchNorm", "beta", "mean"),
            ("InstanceNorm", "gamma", "beta"),
            ("InstanceNorm", "beta", "gamma"),
            ("LayerNorm", "gamma", "beta"),
            ("LayerNorm", "beta", "gamma"),
            ("Dense", "bias", "weight"),
            ("Conv2d", "bias", "weight"),
        ],
    )
    def test_vector_of_length_one_exits_2(self, files, capsys, kind, key, other):
        path, doc = files
        layer = next(l for l in doc["layers"] if l["kind"] == kind)
        layer[key] = 0.5  # loads as a length-1 array, which would broadcast over every channel
        (path / "short.json").write_text(json.dumps(doc))
        args = ["--model", str(path / "short.json"), "--samples", str(path / "samples.json"), "--out", str(path / "x.json")]
        metrics = ["metrics", "--stride", "1", "--offsets", "1"]
        for command in (["decompose"], metrics, ["shapley"], ["shapley", "--hybrid"]):
            assert cli.main([*command, *args]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"'{layer['id']}'" in err and f"'{key}'" in err and f"'{other}'" in err


# every value a mutated field takes; no large integers, since a padding of
# 100000 would ask numpy for terabytes
FUZZ_POOL = [None, True, 0, -1, 3, 2.5, "x", [], [1.0], [[1.0, 2.0]], {}]
_DELETE = object()


def _mutants(doc, paths):
    """(label, copy of doc) with the value at each path deleted, then replaced by each pool value."""
    for path in paths:
        for value in [_DELETE, *FUZZ_POOL]:
            mutant = json.loads(json.dumps(doc))
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            label = "/".join(map(str, path))
            yield f"{label}={'<deleted>' if value is _DELETE else repr(value)}", mutant


class TestDocumentFuzz:
    """Every field of a valid model and sample document, deleted or mistyped, ends in an exit code, never a traceback."""

    def test_mutated_documents_exit_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LMD_THREADS", raising=False)
        parser = cli.build_parser()  # built once: building it costs about as much as a run
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        model = gen_synthetic_model(5, GenSpec(modalities=2, grid=3, channels=2, depth=3, include_attention=True))
        model_doc = json.loads(save_model(model))
        samples_doc = json.loads(save_samples(gen_sample_set(6, model, 2)))
        first = {}
        for i, layer in enumerate(model_doc["layers"]):
            first.setdefault(layer["kind"], i)
        assert len(first) == 12  # one layer of each kind
        model_paths = [("layers", i, key) for i in first.values() for key in model_doc["layers"][i]]
        model_paths += [(key,) for key in model_doc]
        sample_paths = [(key,) for key in samples_doc] + [("samples", 0, m) for m in samples_doc["samples"][0]]

        m_file, s_file, out = (str(tmp_path / name) for name in ("model.json", "samples.json", "out.json"))
        files = ["--model", m_file, "--samples", s_file, "--out", out]
        commands = [
            ["decompose", *files],
            ["metrics", "--stride", "1", "--offsets", "1", *files],
            ["shapley", *files],
            ["shapley", "--hybrid", *files],
        ]
        gen_samples = ["gen-samples", "--model", m_file, "--count", "2", "--out", out]
        cases = [(label, mutant, samples_doc, commands + [gen_samples]) for label, mutant in _mutants(model_doc, model_paths)]
        cases += [(label, model_doc, mutant, commands) for label, mutant in _mutants(samples_doc, sample_paths)]

        failures = []
        for label, mdoc, sdoc, argvs in cases:
            (tmp_path / "model.json").write_text(json.dumps(mdoc))
            (tmp_path / "samples.json").write_text(json.dumps(sdoc))
            for argv in argvs:
                command = " ".join(argv[: argv.index("--model")])
                try:
                    code = cli.main(argv)
                except Exception as e:  # any escape is a failure, recorded with the document that caused it
                    failures.append((label, command, f"{type(e).__name__}: {e}"))
                    capsys.readouterr()
                    continue
                err = capsys.readouterr().err.splitlines()
                if code not in (0, 2, 3) or (code and not (err and err[-1].startswith("error:"))):
                    failures.append((label, command, code, err[-1:]))
        assert not failures, failures[:10]
