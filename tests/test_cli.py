"""CLI commands end to end: outputs, exit codes, config round-trips."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fdht.cli import main
from fdht.config import (ConfigError, RunConfig, emit_config, load_config,
                         parse_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCRIPTS = CONFIGS.parent / "scripts"

SMALL_MODEL = """\
[model]
n_x = 6
n_shape = 4,3
m_shape = 2,2
leaf_rank = 2
internal_rank = 2
seed = 3

[task]
classes = 3
frames = 3
frame_dim = 6
noise = 0.4
seed = 9
train_per_class = 6
test_per_class = 4

[train]
epochs = 3
batch_size = 4
seed = 2
"""

UCF11_PARAMS = """\
[model]
n_x = 57600
n_shape = 16,16,16,15
m_shape = 4,4,4,4
leaf_rank = 14
internal_rank = 12

[task]
frame_dim = 57600
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_MODEL)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            parse_config("[model]\nfoo = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config("[optimizer]\nlr = 1\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match=r"\[train\] epochs"):
            parse_config("[train]\nepochs = soon\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, raw):
        with pytest.raises(ConfigError, match=r"\[task\] noise = .*must be finite"):
            parse_config(f"[task]\nnoise = {raw}\n")

    def test_precondition_checked_up_front(self):
        with pytest.raises(ConfigError, match="too small"):
            parse_config("[model]\nn_x = 100\nn_shape = 4,3\nm_shape = 2,2\n"
                         "\n[task]\nframe_dim = 100\n")

    def test_emit_parse_round_trip(self):
        cfg = parse_config(SMALL_MODEL)
        assert parse_config(emit_config(cfg)) == cfg
        assert parse_config(emit_config(RunConfig())) == RunConfig()


class TestPrintConfig:
    def test_echo_round_trips(self, capsys, small_config):
        code, out, _ = run_cli(capsys, "params", "--config", small_config,
                               "--print-config")
        assert code == 0
        assert parse_config(out) == load_config(small_config)


class TestParams:
    def test_ucf11_direct_report(self, capsys, tmp_path):
        path = tmp_path / "ucf11.ini"
        path.write_text(UCF11_PARAMS)
        code, out, _ = run_cli(capsys, "params", "--config", str(path))
        assert code == 0
        assert "ht_params = 8,808" in out
        assert "dense_weight_params = 59,244,544" in out
        assert "dense_total_params = 59,245,568" in out
        assert "compression_ratio = 6,726" in out

    def test_hmdb51_ratio_rounds_to_nearest(self, capsys):
        # 33,554,432 / 8,416 = 3,986.98: the one shipped config where
        # round-to-nearest (3,987) and floor (3,986) differ
        code, out, _ = run_cli(capsys, "params", "--config",
                               str(CONFIGS / "hmdb51-cnn.ini"))
        assert code == 0
        assert "ht_params = 8,416" in out
        assert "compression_ratio = 3,987" in out

    def test_script_table_matches_params(self, capsys, tmp_path):
        # scripts/reproduce_param_tables.py and `fdht params` share one
        # accounting; every column of the script's four rows must agree
        spec = importlib.util.spec_from_file_location(
            "reproduce_param_tables", SCRIPTS / "reproduce_param_tables.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.main()
        rows = capsys.readouterr().out.splitlines()[2:]
        expected = [
            ("8,808", "59,245,568", "6,726x"),
            ("8,324", "59,245,568", "7,117x"),
            ("3,132", "33,562,624", "10,713x"),
            ("8,416", "33,562,624", "3,987x"),
        ]
        assert len(rows) == len(script.CONFIGS) == len(expected)
        for row, (name, m, n, leaf, internal, n_x), want in zip(
                rows, script.CONFIGS, expected):
            path = tmp_path / "ref.ini"
            path.write_text(
                f"[model]\nn_x = {n_x}\nn_shape = {','.join(map(str, n))}\n"
                f"m_shape = {','.join(map(str, m))}\nleaf_rank = {leaf}\n"
                f"internal_rank = {internal}\n\n[task]\nframe_dim = {n_x}\n")
            code, out, _ = run_cli(capsys, "params", "--config", str(path))
            assert code == 0
            report = dict(line.split(" = ") for line in out.splitlines()[1:])
            assert row[:22].strip() == name
            cols = row[22:].split()
            assert cols == [report["ht_params"], report["dense_weight_params"],
                            report["dense_total_params"],
                            report["compression_ratio"] + "x"]
            assert (cols[0], cols[2], cols[3]) == want

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "params", "--config", "/nonexistent.ini")
        assert code == 1
        assert err.startswith("error: validation:")
        assert "\n" not in err.strip()


class TestCompare:
    def test_csv_output(self, capsys, small_config):
        code, out, _ = run_cli(capsys, "compare", "--config", small_config)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rank,tt,tr,bt,ht"
        assert len(lines) == 17  # default rank range 1..16

    def test_deterministic(self, capsys, small_config):
        _, out1, _ = run_cli(capsys, "compare", "--config", small_config)
        _, out2, _ = run_cli(capsys, "compare", "--config", small_config)
        assert out1 == out2


class TestGradcheckVerify:
    def test_gradcheck_small_config(self, capsys, small_config):
        code, out, _ = run_cli(capsys, "gradcheck", "--config", small_config)
        assert code == 0
        assert "max_relative_error" in out

    def test_verify_small_config(self, capsys, small_config):
        code, out, _ = run_cli(capsys, "verify", "--config", small_config)
        assert code == 0
        assert "max_abs_error" in out

    def test_verify_over_oracle_cap(self, capsys, tmp_path):
        path = tmp_path / "big.ini"
        path.write_text("[model]\nn_x = 60000\nn_shape = 16,16,16,16\n"
                        "m_shape = 4,4,4,8\nleaf_rank = 2\ninternal_rank = 2\n"
                        "\n[task]\nframe_dim = 60000\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(path))
        assert code == 2
        assert "oracle too large" in err
        assert err.startswith("error: runtime:")


class TestTrainEval:
    def test_train_then_eval(self, capsys, tmp_path):
        cfg_text = SMALL_MODEL + (
            f"\n[paths]\ncheckpoint = {tmp_path}/m.fdht\n"
            f"metrics = {tmp_path}/metrics.csv\n")
        path = tmp_path / "run.ini"
        path.write_text(cfg_text)
        code, out, _ = run_cli(capsys, "train", "--config", str(path))
        assert code == 0
        assert "trained 3 epochs" in out
        metrics = (tmp_path / "metrics.csv").read_text()
        assert metrics.startswith("epoch,train_loss,train_acc,test_acc\n")
        assert len(metrics.strip().split("\n")) == 4

        code, out, _ = run_cli(capsys, "eval", "--config", str(path))
        assert code == 0
        assert out.startswith("test_acc = ")

    def test_train_metrics_deterministic(self, capsys, tmp_path):
        outs = []
        for run in ("a", "b"):
            cfg_text = SMALL_MODEL + (
                f"\n[paths]\ncheckpoint = {tmp_path}/{run}.fdht\n"
                f"metrics = {tmp_path}/{run}.csv\n")
            path = tmp_path / f"{run}.ini"
            path.write_text(cfg_text)
            assert run_cli(capsys, "train", "--config", str(path))[0] == 0
            outs.append((tmp_path / f"{run}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_eval_untrained_checkpoint_near_chance(self, capsys, tmp_path):
        # train 0 epochs: the checkpoint is the raw initialization
        cfg_text = SMALL_MODEL.replace("epochs = 3", "epochs = 0") + (
            f"\n[paths]\ncheckpoint = {tmp_path}/u.fdht\n"
            f"metrics = {tmp_path}/u.csv\n")
        cfg_text = cfg_text.replace("test_per_class = 4", "test_per_class = 40")
        path = tmp_path / "u.ini"
        path.write_text(cfg_text)
        assert run_cli(capsys, "train", "--config", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "eval", "--config", str(path))
        assert code == 0
        acc = float(out.split("=")[1])
        chance = 1.0 / 3.0
        n_test = 3 * 40
        assert abs(acc - chance) <= 5 * np.sqrt(chance * (1 - chance) / n_test)

    def test_non_finite_learning_rate_rejected(self, capsys, tmp_path):
        cfg_text = SMALL_MODEL.replace("[train]\n", "[train]\nlearning_rate = nan\n") + (
            f"\n[paths]\ncheckpoint = {tmp_path}/n.fdht\n"
            f"metrics = {tmp_path}/n.csv\n")
        path = tmp_path / "n.ini"
        path.write_text(cfg_text)
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 1
        assert err.startswith("error: validation: [train] learning_rate = 'nan'")
        assert "\n" not in err.strip()
        assert not (tmp_path / "n.fdht").exists()

    def test_eval_missing_checkpoint(self, capsys, small_config):
        code, _, err = run_cli(capsys, "eval", "--config", small_config)
        assert code == 1
        assert err.startswith("error: validation:")

    def test_seed_override_changes_results(self, capsys, tmp_path):
        csvs = []
        for seed in (100, 101):
            cfg_text = SMALL_MODEL + (
                f"\n[paths]\ncheckpoint = {tmp_path}/s{seed}.fdht\n"
                f"metrics = {tmp_path}/s{seed}.csv\n")
            path = tmp_path / f"s{seed}.ini"
            path.write_text(cfg_text)
            assert run_cli(capsys, "train", "--config", str(path),
                           "--seed", str(seed))[0] == 0
            csvs.append((tmp_path / f"s{seed}.csv").read_text())
        assert csvs[0] != csvs[1]
