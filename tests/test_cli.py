from pathlib import Path

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from diffinv import EditConfig, FixedPointConfig, MaskNormConfig, NoisePredictor, cli
from diffinv.bench import ExperimentGrid
from diffinv.cli import build_parser, main
from diffinv.fileio import MAGIC, load_tensor, save_tensor


@pytest.fixture
def latent_file(tmp_path):
    path = tmp_path / "z0.txt"
    save_tensor(path, np.random.default_rng(5).standard_normal(32))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli() == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("invert", "--bogus") == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_input_is_usage_error(self, capsys):
        assert run_cli("invert") == 1
        assert "--in" in capsys.readouterr().err

    def test_unreadable_input_is_usage_error(self, tmp_path, capsys):
        assert run_cli("invert", "--in", tmp_path / "nope.txt") == 1

    def test_numeric_failure_is_exit_two(self, latent_file, capsys):
        code = run_cli(
            "edit", "--in", latent_file, "--eta", "30", "--steps", "10", "--candidates", "1"
        )
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_bad_number_is_usage_error(self, latent_file, capsys):
        assert run_cli("invert", "--in", latent_file, "--steps", "many") == 1

    @pytest.mark.parametrize("method", ["euler", "plain"])
    @pytest.mark.parametrize("budget", [("--iters", "-2"), ("--window", "-5")])
    def test_bad_budget_is_usage_error_for_every_method(self, latent_file, method, budget):
        assert run_cli("invert", "--in", latent_file, "--method", method, *budget) == 1

    @pytest.mark.parametrize("command", ["invert", "edit"])
    def test_non_finite_euler_state_is_exit_two(self, tmp_path, command, capsys):
        spec = tmp_path / "pred.cfg"
        spec.write_text("kind = affine\ndim = 8\nnorm_null = 1e200\n"
                        "norm_source = 1e200\nnorm_target = 1e200\n")
        z_in = tmp_path / "z.txt"
        save_tensor(z_in, np.random.default_rng(5).standard_normal(8))
        with np.errstate(all="ignore"):
            code = run_cli(command, "--in", z_in, "--method", "euler", "--steps", "10",
                           "--predictor", spec)
        assert code == 2
        assert "diverged at step t=" in capsys.readouterr().err


class TestInputFiles:
    @pytest.mark.parametrize("command", ["invert", "edit"])
    def test_empty_binary_input_is_usage_error(self, tmp_path, command, capsys):
        path = tmp_path / "empty.bin"
        path.write_bytes(MAGIC + struct.pack("<3I", 2, 2, 0))
        assert run_cli(command, "--in", path) == 1
        assert "shape entries must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invert", "reconstruct", "edit"])
    def test_non_finite_input_is_usage_error_naming_the_file(self, tmp_path, command, capsys):
        path = tmp_path / "nan.txt"
        save_tensor(path, np.array([0.5, np.nan, 1.0, -1.0]))
        assert run_cli(command, "--in", path, "--steps", "10") == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "nan.txt" in err and "non-finite" in err

    @pytest.mark.parametrize("eta", ["0", "0.3"])
    def test_edit_takes_a_scalar_latent(self, tmp_path, eta):
        path, out = tmp_path / "s.txt", tmp_path / "out.txt"
        save_tensor(path, np.array(0.7))
        argv = ("--in", path, "--steps", "10", "--out", out)
        assert run_cli("invert", *argv) == 0
        assert run_cli("edit", *argv, "--eta", eta, "--candidates", "2") == 0
        assert load_tensor(out).shape == ()


COMMAND_OPTIONS = {
    "invert": {"config", "in", "out", "steps", "omega", "method", "iters", "window", "predictor"},
    "edit": {"config", "in", "out", "steps", "omega", "method", "iters", "window", "predictor",
             "seed", "omega_e", "eta", "candidates", "polarity", "mask_m", "delta", "attention"},
    "grid": {"config", "out", "seed", "dim", "timing", "iters", "window", "predictor",
             "steps", "omega", "method"},
}
COMMAND_OPTIONS["reconstruct"] = COMMAND_OPTIONS["invert"]


class TestGuidanceScales:
    @pytest.mark.parametrize(
        "argv, scale",
        [(("invert", "--omega", "nan"), "omega"), (("invert", "--omega", "inf"), "omega"),
         (("reconstruct", "--omega", "nan"), "omega"), (("edit", "--omega-e", "inf"), "omega_e"),
         (("grid", "--omega", "1,nan"), "omega")],
    )
    def test_non_finite_scale_is_usage_error(self, tmp_path, latent_file, argv, scale, capsys):
        where = ("--out", tmp_path / "g.csv") if argv[0] == "grid" else ("--in", latent_file)
        assert run_cli(*argv, *where, "--steps", "10", "--method", "euler") == 1
        err = capsys.readouterr().err
        assert re.search(rf"usage error: {scale} (must be finite|contains non-finite)", err), err

    @pytest.mark.parametrize(
        "argv, key",
        [(("invert", "--omega", "1e300"), "round_trip_l2"),
         (("edit", "--omega-e", "1e300"), "best_score")],
    )
    def test_huge_finite_scale_reports_a_finite_error(self, tmp_path, argv, key, capsys):
        latent = tmp_path / "z0.txt"
        save_tensor(latent, np.random.default_rng(0).standard_normal((4, 4)))
        assert run_cli(*argv, "--in", latent, "--steps", "5") == 0
        fields = dict(f.split("=") for f in capsys.readouterr().out.split() if "=" in f)
        assert np.isfinite(float(fields[key]))

    def test_bin_output_beyond_float32_is_usage_error(self, tmp_path, capsys):
        latent, out = tmp_path / "z.txt", tmp_path / "zt.bin"
        save_tensor(latent, np.random.default_rng(0).standard_normal((4, 4)))
        argv = ("invert", "--in", latent, "--steps", "5", "--omega", "1e300", "--out", out)
        assert run_cli(*argv) == 1
        assert f"cannot write output: {out}: finite entries overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["invert", "edit", "grid"])
    def test_non_finite_scale_in_config_is_usage_error(
        self, tmp_path, latent_file, command, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = -inf\n")
        where = ("--out", tmp_path / "g.csv") if command == "grid" else ("--in", latent_file)
        assert run_cli(command, "--config", cfg, *where, "--steps", "10") == 1
        assert "usage error: omega " in capsys.readouterr().err


def field_defaults(settings) -> dict:
    """A settings class's declared field defaults, by field name."""
    return {f.name: f.default for f in dataclasses.fields(settings)}


class TestDefaultParity:
    """Each option default is read from the settings field it feeds, so the two cannot drift."""

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_option_defaults_equal_their_settings_defaults(self, command):
        grid, edit = field_defaults(ExperimentGrid), field_defaults(EditConfig)
        fixed_point, mask = field_defaults(FixedPointConfig), field_defaults(MaskNormConfig)
        owners = {"window": fixed_point["window"]}
        if command == "grid":
            owners.update(steps=grid["step_counts"], omega=grid["omegas"],
                          method=grid["methods"], dim=grid["dim"], seed=grid["seed"])
        else:
            owners.update(omega=edit["omega"], method=fixed_point["variant"])
        if command == "edit":
            owners.update(seed=edit["seed"], omega_e=edit["omega_e"], eta=edit["eta"],
                          candidates=edit["n_candidates"], polarity=mask["polarity"],
                          mask_m=mask["big_m"])
        parser = build_parser().subcommands[command]
        assert {option: parser.get_default(option) for option in owners} == owners


class TestNegativeNumbers:
    def test_exponent_form_is_a_value(self, tmp_path, latent_file):
        outputs = []
        for delta in (("--delta", "-1e-3"), ("--delta=-1e-3",)):
            out = tmp_path / f"edit{len(outputs)}.txt"
            assert run_cli("edit", "--in", latent_file, "--steps", "10", *delta, "--out", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_exponent_forms_parse_in_lists_and_scales(self):
        parser = build_parser()
        assert parser.parse_args(["grid", "--omega", "-1e0,7"]).omega == (-1.0, 7.0)
        assert parser.parse_args(["edit", "--omega-e", "-1e1"]).omega_e == -10.0
        assert parser.parse_args(["edit", "--eta", "-.5"]).eta == -0.5

    def test_option_without_value_is_still_usage_error(self, latent_file, capsys):
        assert run_cli("edit", "--in", latent_file, "--delta") == 1
        assert "expected one argument" in capsys.readouterr().err


class TestOptionsPerCommand:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_each_command_declares_exactly_its_options(self, command):
        declared = vars(build_parser().subcommands[command].parse_args([]))
        assert set(declared) == COMMAND_OPTIONS[command]

    @pytest.mark.parametrize(
        "argv",
        [("invert", "--eta", "0.3"), ("reconstruct", "--seed", "9"),
         ("invert", "--omega-e", "3"), ("grid", "--in", "x"), ("grid", "--eta", "0.3")],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, argv, capsys):
        assert run_cli(*argv, "--out", tmp_path / "o.txt") == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInvertReconstruct:
    def test_invert_writes_noise_vector_and_summary(self, tmp_path, latent_file, capsys):
        out = tmp_path / "zT.txt"
        code = run_cli(
            "invert", "--in", latent_file, "--out", out, "--steps", "10", "--method", "averaged"
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "invert:" in text and "round_trip_l2=" in text and "nfe=" in text
        assert load_tensor(out).shape == (32,)

    def test_reconstruct_reports_round_trip(self, tmp_path, latent_file, capsys):
        out = tmp_path / "rec.txt"
        code = run_cli("reconstruct", "--in", latent_file, "--out", out, "--steps", "10")
        assert code == 0
        summary = capsys.readouterr().out
        assert "reconstruct:" in summary
        err = float(summary.split("round_trip_l2=")[1].split()[0])
        assert err <= 1e-4
        rec = load_tensor(out)
        z0 = load_tensor(latent_file)
        assert np.linalg.norm(rec - z0) / np.linalg.norm(z0) == pytest.approx(err, rel=1e-6)

    def test_euler_with_large_guidance_reports_instead_of_crashing(self, latent_file, capsys):
        code = run_cli(
            "invert", "--in", latent_file, "--method", "euler", "--omega", "7", "--steps", "10"
        )
        assert code == 0
        err = float(capsys.readouterr().out.split("round_trip_l2=")[1].split()[0])
        assert err > 1e-3  # large error, reported not raised

    def test_predictor_spec_flag(self, tmp_path, latent_file, capsys):
        spec = tmp_path / "pred.cfg"
        spec.write_text("kind = constant\nvalue = 0\n")
        code = run_cli(
            "invert", "--in", latent_file, "--predictor", spec, "--steps", "10"
        )
        assert code == 0
        err = float(capsys.readouterr().out.split("round_trip_l2=")[1].split()[0])
        assert err <= 1e-12


class TestPredictorSize:
    """A `--predictor` spec whose dim differs from the latent size is a usage error."""

    @pytest.mark.parametrize("command", ["invert", "reconstruct", "edit", "grid"])
    def test_mismatched_spec_dim_is_usage_error(self, tmp_path, latent_file, command, capsys):
        spec = tmp_path / "pred.cfg"
        spec.write_text("kind = contractive\ndim = 8\n")
        latent = ["--out", tmp_path / "g.csv"] if command == "grid" else ["--in", latent_file]
        assert run_cli(command, *latent, "--predictor", spec, "--steps", "10") == 1
        err = capsys.readouterr().err
        assert "expects 8" in err
        assert ("64" if command == "grid" else "32") in err

    def test_grid_spec_matching_dim_runs(self, tmp_path, capsys):
        spec = tmp_path / "pred.cfg"
        spec.write_text("kind = contractive\ndim = 8\n")
        code = run_cli("grid", "--out", tmp_path / "g.csv", "--predictor", spec, "--dim", "8",
                       "--steps", "10", "--omega", "1", "--method", "plain")
        assert code == 0


class TestPredictorSpecValues:
    """A generated dim below 1 or a non-finite spec scalar is a usage error naming file and key."""

    @pytest.mark.parametrize(
        "lines, key",
        [
            (["kind = contractive", "dim = 0"], "dim"),
            (["kind = contractive", "dim = -3"], "dim"),
            (["kind = affine", "dim = 0"], "dim"),
            (["kind = affine", "dim = -3"], "dim"),
            (["kind = contractive", "dim = 32", "scale = nan"], "scale"),
            (["kind = constant", "value = nan"], "value"),
            (["kind = constant", "value = inf"], "value"),
            (["kind = affine", "dim = 32", "bias_scale = nan"], "bias_scale"),
            (["kind = contractive", "dim = 32", "seed = -1"], "seed"),
        ],
    )
    def test_bad_spec_value_is_usage_error(self, tmp_path, latent_file, lines, key, capsys):
        save_tensor(tmp_path / "a.txt", 0.01 * np.eye(32))
        spec = tmp_path / "pred.cfg"
        spec.write_text("\n".join(lines) + "\n")
        assert run_cli("invert", "--in", latent_file, "--predictor", spec, "--steps", "10") == 1
        assert f"usage error: {spec}: {key} must be" in capsys.readouterr().err

    def test_malformed_spec_number_names_file_and_key(self, tmp_path, latent_file, capsys):
        spec = tmp_path / "pred.cfg"
        spec.write_text("kind = contractive\ndim = 32\nseed = 1.5\n")
        assert run_cli("invert", "--in", latent_file, "--predictor", spec, "--steps", "10") == 1
        assert f"usage error: {spec}: seed: " in capsys.readouterr().err


class TestEditCommand:
    def test_edit_writes_best_and_scores(self, tmp_path, latent_file, capsys):
        out = tmp_path / "edited.txt"
        code = run_cli(
            "edit", "--in", latent_file, "--out", out, "--steps", "10",
            "--omega-e", "3", "--eta", "0.1", "--candidates", "3", "--seed", "2",
        )
        assert code == 0
        assert "edit:" in capsys.readouterr().out
        assert load_tensor(out).shape == (32,)
        scores = (tmp_path / "edited.txt.scores.csv").read_text().splitlines()
        assert scores[0] == "candidate,score,is_best"
        assert len(scores) == 4

    def test_unwritable_scores_csv_is_usage_error(self, tmp_path, latent_file, capsys):
        out = tmp_path / "o.txt"
        (tmp_path / "o.txt.scores.csv").mkdir()
        assert run_cli("edit", "--in", latent_file, "--out", out, "--steps", "10") == 1
        assert "cannot write" in capsys.readouterr().err

    def test_polarity_validation(self, latent_file, capsys):
        assert run_cli("edit", "--in", latent_file, "--polarity", "sideways") == 1
        assert "usage error: polarity must be one of positive, negative; got 'sideways'" in (
            capsys.readouterr().err
        )

    def test_each_polarity_runs_its_own_mask(self, latent_file, tmp_path):
        outputs = []
        for polarity in ("positive", "negative"):
            out = tmp_path / f"{polarity}.txt"
            assert run_cli("edit", "--in", latent_file, "--steps", "5", "--polarity", polarity,
                           "--out", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize(
        "flag, value",
        [("--eta", "nan"), ("--eta", "inf"), ("--mask-m", "nan"), ("--mask-m", "inf"),
         ("--delta", "nan"), ("--delta", "inf")],
    )
    def test_non_finite_mask_or_eta_is_usage_error(self, latent_file, flag, value, capsys):
        assert run_cli("edit", "--in", latent_file, "--steps", "10", flag, value) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["1e308", "-1e308"])
    def test_overflowing_threshold_is_usage_error(self, tmp_path, delta, capsys):
        latent = tmp_path / "z0.txt"
        save_tensor(latent, np.random.default_rng(0).standard_normal((4, 4)))
        assert run_cli("edit", "--in", latent, "--steps", "5", "--delta", delta) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--delta" in err

    def test_predictor_value_error_is_not_labelled_a_mask_setting(
        self, latent_file, monkeypatch, capsys
    ):
        class Refusing(NoisePredictor):
            def predict(self, z, prompt, t):
                raise ValueError("refused latent")

        monkeypatch.setattr(cli, "_predictor", lambda opts, size: Refusing())
        assert run_cli("edit", "--in", latent_file, "--steps", "5") == 1
        assert capsys.readouterr().err == "usage error: refused latent\n"

    def test_negative_seed_is_usage_error(self, latent_file, capsys):
        assert run_cli("edit", "--in", latent_file, "--steps", "10", "--seed", "-1") == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_attention_file(self, tmp_path, latent_file):
        attn = tmp_path / "attn.txt"
        save_tensor(attn, np.random.default_rng(0).uniform(0.0, 1.0, size=(4, 8)))
        code = run_cli(
            "edit", "--in", latent_file, "--steps", "10", "--attention", attn,
            "--out", tmp_path / "e.txt",
        )
        assert code == 0


class TestGridCommand:
    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "grid", "--seed", "7", "--steps", "10", "--omega", "0,1",
            "--method", "euler,averaged", "--dim", "8",
        )
        p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert run_cli(*args, "--out", p1) == 0
        assert run_cli(*args, "--out", p2) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_requires_out(self, capsys):
        assert run_cli("grid") == 1
        assert "--out" in capsys.readouterr().err

    def test_rejects_bad_method_list(self, tmp_path):
        assert run_cli("grid", "--out", tmp_path / "g.csv", "--method", "euler,zigzag") == 1

    @pytest.mark.parametrize(
        "flag,value",
        [("--dim", "0"), ("--dim", "-3"), ("--iters", "0"), ("--window", "0"), ("--steps", "0"),
         ("--seed", "-1"), ("--steps", "10,10"), ("--omega", "1,1.0"),
         ("--method", "plain,plain")],
    )
    def test_bad_grid_input_is_usage_error(self, tmp_path, flag, value, capsys):
        assert run_cli("grid", "--out", tmp_path / "g.csv", flag, value) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_huge_omega_reconstruction_error_reports_finite_psnr(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run_cli("grid", "--out", out, "--dim", "2", "--steps", "10",
                       "--omega", "1e200", "--method", "euler")
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert math.isfinite(float(row[4]))
        assert float(row[4]) < 0.0

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "g.csv"
        code = run_cli(
            "grid", "--out", out, "--steps", "10", "--omega", "0",
            "--method", "euler", "--dim", "8",
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_predictor_value_error_is_usage_error(self, tmp_path, monkeypatch, capsys):
        class Refusing(NoisePredictor):
            def predict(self, z, prompt, t):
                raise ValueError("refused latent")

        monkeypatch.setattr(cli, "_predictor", lambda opts, size: Refusing())
        out = tmp_path / "g.csv"
        code = run_cli(
            "grid", "--out", out, "--steps", "10", "--omega", "1", "--method", "euler",
            "--dim", "4",
        )
        assert code == 1
        assert capsys.readouterr().err == "usage error: refused latent\n"
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, latent_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 10\nmethod = euler\nomega = 0\n")
        code = run_cli("invert", "--config", cfg, "--in", latent_file, "--method", "averaged")
        assert code == 0
        out = capsys.readouterr().out
        assert "method=averaged" in out  # flag wins
        assert "steps=10" in out  # config fills the rest

    def test_unknown_config_key_rejected(self, tmp_path, latent_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steed = 7\n")
        assert run_cli("invert", "--config", cfg, "--in", latent_file) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_in_path_from_config(self, tmp_path, latent_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"in = {latent_file}\nsteps = 10\n")
        assert run_cli("invert", "--config", cfg) == 0

    def test_key_the_command_does_not_read_is_rejected(self, tmp_path, latent_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 10\ncandidates = 4\n")
        assert run_cli("invert", "--config", cfg, "--in", latent_file) == 1
        assert "candidates" in capsys.readouterr().err

    def test_dashed_key_matches_its_flag(self, tmp_path, latent_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 10\nomega-e = 3\nmask_m = 20\n")
        assert run_cli("edit", "--config", cfg, "--in", latent_file) == 0
        assert "omega_e=3" in capsys.readouterr().out

    def test_bad_number_in_config_is_usage_error(self, tmp_path, latent_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = many\n")
        assert run_cli("invert", "--config", cfg, "--in", latent_file) == 1
        assert "--steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text, key",
        [
            ("--config", "steps = 10\nomega = 1\nsteps = 20\n", "steps"),
            ("--predictor", "value = 0\nkind = constant\nvalue = 1\n", "value"),
        ],
    )
    def test_key_set_twice_is_usage_error(self, tmp_path, latent_file, flag, text, key, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert run_cli("invert", "--in", latent_file, flag, path) == 1
        assert f"{path}:3: duplicate key '{key}' (first on line 1)" in capsys.readouterr().err

    def test_bad_boolean_in_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timing = maybe\n")
        assert run_cli("grid", "--config", cfg, "--out", tmp_path / "g.csv", "--dim", "8") == 1
        assert "--timing" in capsys.readouterr().err

    def test_timing_from_config_records_wall_time(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timing = yes\nsteps = 10\nomega = 0\nmethod = averaged\ndim = 8\n")
        out = tmp_path / "g.csv"
        assert run_cli("grid", "--config", cfg, "--out", out) == 0
        header, row = out.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("wall_ms")]) > 0.0


class TestBenchmarkArgv:
    """Every argv the `cli-d256` benchmark workload sends still parses.

    A parser change that rejects one of them fails here instead of turning
    every benchmark op into a failure.
    """

    def test_parser_accepts_every_workload_argv(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        workload = workloads.CliD256()
        workload.setup(1, tmp_path)
        commands = set()
        for spec in workload.cycle:
            args = build_parser().parse_args(workload.argv[spec])
            commands.add(args.command)
        assert commands == {"invert", "reconstruct", "edit", "grid"}
