"""CLI commands end to end: outputs, exit codes, config round-trips."""

import configparser
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdht import cli
from fdht.cli import _COMMANDS, main
from fdht.config import (ConfigError, RunConfig, emit_config, load_config,
                         parse_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

    @pytest.mark.parametrize("text, message", [
        ("[train]\ndropout_rate = 1.0\n", "train dropout_rate must be in [0, 1)"),
        ("[train]\ndropout_rate = -0.1\n", "train dropout_rate must be in [0, 1)"),
        ("[train]\nlearning_rate = 0\n", "train learning_rate must be positive"),
        ("[train]\nbatch_size = 0\n", "train batch_size must be >= 1 and epochs >= 0"),
        ("[train]\nepochs = -1\n", "train batch_size must be >= 1 and epochs >= 0"),
        ("[task]\nclasses = 1\n", "task needs classes >= 2"),
        ("[compare]\nrank_min = 0\n", "compare needs 1 <= rank_min <= rank_max"),
        ("[compare]\nrank_min = 5\nrank_max = 4\n",
         "compare needs 1 <= rank_min <= rank_max"),
        ("[model]\nmode = hidden-only\n",
         "model mode must be one of ('full', 'input-only'), got 'hidden-only'"),
        ("[model]\nn_shape = 16,17,1\n",
         "model n_shape and m_shape must have the same length >= 2"),
        ("[model]\nn_shape = 4352\nm_shape = 16\n",
         "model n_shape and m_shape must have the same length >= 2"),
        ("[model]\nleaf_rank = 0\n", "model ranks must be >= 1"),
        ("[model]\ninternal_rank = 0\n", "model ranks must be >= 1"),
        ("[task]\nframe_dim = 255\n", "task frame_dim=255 must equal model n_x=256"),
    ], ids=["dropout-one", "dropout-negative", "learning-rate", "batch-size",
            "epochs", "classes", "rank-min", "rank-order", "mode",
            "shape-lengths-differ", "shape-length-one", "leaf-rank",
            "internal-rank", "frame-dim"])
    def test_range_rules(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nbogus = 5\n",
        "[DEFAULT]\nseed = 5\n[model]\n[task]\n",
        "[DEFAULT]\nseed = 5\n[model]\n[task]\n[paths]\n",
    ], ids=["unknown-key", "spread-seed", "with-paths"])
    def test_default_section_rejected(self, capsys, tmp_path, text):
        # configparser would spread [DEFAULT] keys into every other section
        with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
            parse_config(text)
        path = tmp_path / "default.ini"
        path.write_text(text)
        code, out, err = run_cli(capsys, "params", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == "error: validation: unknown config section [DEFAULT]\n"

    def test_precondition_checked_up_front(self):
        with pytest.raises(ConfigError, match="too small"):
            parse_config("[model]\nn_x = 100\nn_shape = 4,3\nm_shape = 2,2\n"
                         "\n[task]\nframe_dim = 100\n")

    @pytest.mark.parametrize("key", ["m_shape", "n_shape"])
    def test_mode_length_product_beyond_int64(self, capsys, tmp_path, key):
        # 2**32 * 2**32 wraps to 0 in int64 arithmetic
        path = tmp_path / "wide.ini"
        path.write_text(f"[model]\n{key} = 4294967296,4294967296\n")
        code, out, err = run_cli(capsys, "params", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == (f"error: validation: prod({key})=18446744073709551616 exceeds "
                       f"the largest numpy index 9223372036854775807\n")

    def test_percent_sign_is_literal(self, capsys, tmp_path):
        path = tmp_path / "pct.ini"
        path.write_text("[paths]\ncheckpoint = runs/100%.fdht\n")
        assert load_config(path).paths.checkpoint == "runs/100%.fdht"
        code, out, _ = run_cli(capsys, "params", "--config", str(path), "--print-config")
        assert code == 0 and "checkpoint = runs/100%.fdht\n" in out
        assert parse_config(out) == load_config(path)
        assert run_cli(capsys, "params", "--config", str(path))[0] == 0

    def test_emit_parse_round_trip(self):
        cfg = parse_config(SMALL_MODEL)
        assert parse_config(emit_config(cfg)) == cfg
        assert parse_config(emit_config(RunConfig())) == RunConfig()


SECTIONS = [f.name for f in fields(RunConfig)]
KEYS = [f.name for s in SECTIONS for f in fields(getattr(RunConfig(), s))]
DEFAULTS = configparser.ConfigParser(interpolation=None)
DEFAULTS.read_string(emit_config(RunConfig()))
VALUES = ["8", "0", "-1", "1_0", "0.5", "1e-3", "nan", "inf", "", "4,4", "16,17",
          "4294967296,4294967296", "input-only", "runs/100%.fdht", "9" * 5000,
          "a\n  b", "1\n\n  2", "[model]"]


@st.composite
def ini_texts(draw):
    """INI-shaped text: known and unknown sections holding known keys,
    often at their defaults, and now and then an unknown key, a foreign
    value or a line without a delimiter, so that a share of texts parse."""
    names = st.sampled_from(SECTIONS + ["DEFAULT", "Model", "optimizer"]) | st.text(max_size=8)
    lines = []
    for section in draw(st.lists(names, max_size=4, unique=True)):
        own = dict(DEFAULTS[section]) if section in SECTIONS else {}
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(own) or KEYS), max_size=4,
                                 unique=True)):
            if key in own and draw(st.integers(0, 2)):
                value = own[key]
            else:
                value = draw(st.sampled_from(VALUES) | st.text(max_size=12))
            lines.append(f"{key}{draw(st.sampled_from([' = ', '=', ': ']))}{value}")
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(KEYS) | st.text(max_size=8))
                         + draw(st.sampled_from([" = ", " ", "\n"]))
                         + draw(st.sampled_from(VALUES) | st.text(max_size=12)))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=st.text() | ini_texts())
def test_random_ini_raises_only_config_errors(text):
    # any text either parses to a config that emit_config round-trips or
    # raises ConfigError; never a bare configparser, int() or float() error
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert parse_config(emit_config(cfg)) == cfg


class TestPrintConfig:
    def test_echo_round_trips(self, capsys, small_config):
        code, out, _ = run_cli(capsys, "params", "--config", small_config,
                               "--print-config")
        assert code == 0
        assert parse_config(out) == load_config(small_config)


# ht, dense weight, dense total and ratio lines of `fdht params`
REFERENCE_REPORTS = {
    "ucf11-direct": ("8,808", "59,244,544", "59,245,568", "6,726"),
    "youtube-direct": ("8,324", "59,244,544", "59,245,568", "7,117"),
    "ucf11-cnn": ("3,132", "33,554,432", "33,562,624", "10,713"),
    # 33,554,432 / 8,416 = 3,986.98: the one reference config where
    # round-to-nearest (3,987) and floor (3,986) differ
    "hmdb51-cnn": ("8,416", "33,554,432", "33,562,624", "3,987"),
}


class TestParams:
    @pytest.mark.parametrize("name", REFERENCE_REPORTS)
    def test_reference_config_report(self, capsys, name):
        ht, dense_weights, dense_total, ratio = REFERENCE_REPORTS[name]
        code, out, _ = run_cli(capsys, "params", "--config",
                               str(CONFIGS / f"{name}.ini"))
        assert code == 0
        assert out.splitlines()[1:] == [
            f"ht_params = {ht}",
            f"dense_weight_params = {dense_weights}",
            f"dense_total_params = {dense_total}",
            f"compression_ratio = {ratio}",
        ]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_shipped_config_smoke(capsys, path):
    cfg = load_config(path)
    code, out, _ = run_cli(capsys, "params", "--config", str(path), "--print-config")
    assert code == 0
    assert parse_config(out) == cfg
    assert run_cli(capsys, "params", "--config", str(path))[0] == 0


def write_config(tmp_path, text):
    path = tmp_path / "case.ini"
    path.write_text(text)
    return str(path)


def huge_config(tmp_path):
    """A valid config whose leaf factor (8, 4, 10**15) needs 227 PiB."""
    return write_config(tmp_path, f"[model]\nn_shape = 16,{10**15}\n"
                                  f"\n[paths]\ncheckpoint = {tmp_path}/h.fdht\n"
                                  f"metrics = {tmp_path}/h.csv\n")


def small_run(tmp_path, checkpoint, metrics, epochs=3):
    """SMALL_MODEL with its [paths] and epoch count set."""
    return write_config(tmp_path, SMALL_MODEL.replace("epochs = 3", f"epochs = {epochs}")
                        + f"\n[paths]\ncheckpoint = {checkpoint}\nmetrics = {metrics}\n")


def corrupt_checkpoint(tmp_path):
    (tmp_path / "bad.fdht").write_bytes(b"XYZW" + bytes(60))
    return small_run(tmp_path, tmp_path / "bad.fdht", tmp_path / "m.csv")


VALIDATION = "error: validation: "
# README "CLI": one row per documented outcome, with argv built in tmp_path
# and a full match for stderr (".*" stops at the first newline)
EXIT_CASES = {
    "success": (lambda t: ["params"], 0, ""),
    "bad-ini-value": (
        lambda t: ["params", "--config", write_config(t, "[train]\ndropout_rate = 1.0\n")],
        1, re.escape(VALIDATION + "train dropout_rate must be in [0, 1)\n")),
    "missing-config": (
        lambda t: ["params", "--config", "/nonexistent.ini"], 1,
        re.escape(VALIDATION + "[Errno 2] No such file or directory: '/nonexistent.ini'\n")),
    "missing-checkpoint": (
        lambda t: ["eval", "--config", small_run(t, t / "absent.fdht", t / "m.csv")],
        1, re.escape(VALIDATION + "[Errno 2] No such file or directory: ") + ".*\n"),
    "config-directory": (
        lambda t: ["params", "--config", str(t)],
        1, re.escape(VALIDATION + "[Errno 21] Is a directory: ") + ".*\n"),
    "checkpoint-directory": (
        lambda t: ["eval", "--config", small_run(t, t, t / "m.csv")],
        1, re.escape(VALIDATION + "[Errno 21] Is a directory: ") + ".*\n"),
    "metrics-directory": (
        lambda t: ["train", "--config", small_run(t, t / "c.fdht", t, epochs=0)],
        1, re.escape(VALIDATION + "[Errno 21] Is a directory: ") + ".*\n"),
    "corrupt-checkpoint": (
        lambda t: ["eval", "--config", corrupt_checkpoint(t)],
        1, re.escape(VALIDATION + "not an FDHT container (bad magic bytes)\n")),
    "runtime": (lambda t: ["verify", "--config", huge_config(t)], 2, "error: runtime: .*\n"),
    "unknown-option": (lambda t: ["params", "--bogus"], 2,
                       "(?s)usage: fdht .*unrecognized arguments: --bogus\n"),
    "no-subcommand": (lambda t: [], 2,
                      "(?s)usage: fdht .*the following arguments are required: command\n"),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_codes_match_readme(capsys, tmp_path, case):
    make_argv, want_code, want_err = EXIT_CASES[case]
    try:
        code = main(make_argv(tmp_path))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == want_code
    assert (captured.out != "") == (code == 0), captured.out
    assert re.fullmatch(want_err, captured.err), captured.err


def test_help_describes_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in _COMMANDS:
        assert re.search(rf"^    {name} +\S", out, re.MULTILINE), name


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

    @pytest.mark.parametrize("command", ["verify", "train", "gradcheck"])
    def test_unallocatable_model_is_one_runtime_line(self, capsys, tmp_path, command):
        # a valid config whose leaf factor (8, 4, 10**15) needs 227 PiB, more
        # than any address space, so numpy refuses it before touching memory
        code, out, err = run_cli(capsys, command, "--config", huge_config(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: runtime: ") and err.count("\n") == 1, err
        assert "(8, 4, 1000000000000000)" in err
        assert not (tmp_path / "h.fdht").exists()


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

    def test_non_finite_training_data_is_one_runtime_line(self, capsys, tmp_path,
                                                          monkeypatch):
        generate = cli.generate_task

        def with_nan(task):
            train_data, test_data = generate(task)
            train_data.xs[0, 1, 2] = np.nan
            return train_data, test_data

        monkeypatch.setattr(cli, "generate_task", with_nan)
        path = tmp_path / "nan.ini"
        path.write_text(SMALL_MODEL + (
            f"\n[paths]\ncheckpoint = {tmp_path}/nan.fdht\n"
            f"metrics = {tmp_path}/nan.csv\n"))
        code, out, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: runtime: epoch 0 minibatch \d+: non-finite "
                            r"gradient in parameter block 'ht\.0'\n", err), err
        assert not (tmp_path / "nan.fdht").exists()

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
