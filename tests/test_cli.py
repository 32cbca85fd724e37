"""CLI commands end to end: outputs, exit codes, config round-trips."""

import configparser
import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdht import cli
from fdht.cli import _COMMANDS, main
from fdht.config import (ConfigError, ModelConfig, PathsConfig, RunConfig, emit_config,
                         load_config, parse_config)
from fdht.ht import RootFrames, param_count_config
from fdht.io import save_checkpoint
from fdht.lstm import make_cell, make_head
from fdht.train import SyntheticTask, TrainConfig

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

    def test_unknown_section_rejected(self, capsys, tmp_path):
        # [compare] too: `fdht compare` sweeps the fixed ranks 1..16
        path = tmp_path / "unknown.ini"
        for section, key in (("optimizer", "lr"), ("compare", "rank_min")):
            text = f"[{section}]\n{key} = 1\n"
            with pytest.raises(ConfigError, match=rf"^unknown config section \[{section}\]$"):
                parse_config(text)
            path.write_text(text)
            code, out, err = run_cli(capsys, "compare", "--config", str(path))
            assert (code, out) == (1, "")
            assert err == f"error: validation: unknown config section [{section}]\n"

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
        ("[train]\nl2_coeff = -1e-3\n", "train l2_coeff must be >= 0"),
        ("[train]\nbatch_size = 0\n", "train batch_size must be >= 1 and epochs >= 0"),
        ("[train]\nepochs = -1\n", "train batch_size must be >= 1 and epochs >= 0"),
        ("[task]\nclasses = 1\n", "task needs classes >= 2, frames >= 1, frame_dim >= 1"),
        ("[task]\nnoise = -1\n", "task noise must be >= 0"),
        ("[model]\nmode = hidden-only\n",
         "model mode must be one of ('full', 'input-only'), got 'hidden-only'"),
        ("[model]\nn_shape = 16,17,1\n",
         "model m_shape and n_shape must have length d=2, got 2 and 3"),
        ("[model]\nn_shape = 4352\nm_shape = 16\n",
         "model m_shape and n_shape length: dimension tree needs d >= 2, got 1"),
        ("[model]\nleaf_rank = 0\n",
         "model ranks must be >= 1, got leaf_rank=0, internal_rank=8, root_rank=4"),
        ("[model]\ninternal_rank = 0\n",
         "model ranks must be >= 1, got leaf_rank=8, internal_rank=0, root_rank=4"),
        ("[task]\nframe_dim = 255\n", "task frame_dim=255 must equal model n_x=256"),
        ("[model]\nn_shape = 16,,17\n",
         "[model] n_shape = '16,,17': expected comma-separated integers"),
        ("[model]\nm_shape = 4,4,\n",
         "[model] m_shape = '4,4,': expected comma-separated integers"),
        ("[train]\nepochs = soon\n", "[train] epochs = 'soon': expected an integer"),
        ("[task]\nnoise = loud\n", "[task] noise = 'loud': expected a number"),
    ], ids=["dropout-one", "dropout-negative", "learning-rate", "l2-coeff", "batch-size",
            "epochs", "classes", "noise", "mode",
            "shape-lengths-differ", "shape-length-one", "leaf-rank",
            "internal-rank", "frame-dim", "shape-empty-item", "shape-trailing-comma",
            "int-not-a-number", "float-not-a-number"])
    def test_range_rules(self, capsys, tmp_path, text, message):
        # the same one line from parse_config and, with exit 1, from the CLI
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        code, out, err = run_cli(capsys, "params", "--config", write_config(tmp_path, text))
        assert (code, out, err) == (1, "", VALIDATION + message + "\n")

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

    @pytest.mark.parametrize("text,line", [
        ("n_x = 4\n", 1),
        ("[model]\nn_x = 4\nfoo\n", 3),
        ("[model]\nn_x = 4\n[model]\n", 3),
        ("[model]\nn_x = 4\nn_x = 5\n", 3),
    ], ids=["no-section-header", "no-delimiter", "duplicate-section", "duplicate-key"])
    def test_syntax_error_is_one_line(self, capsys, tmp_path, text, line):
        code, out, err = run_cli(capsys, "params", "--config", write_config(tmp_path, text))
        assert (code, out) == (1, "")
        assert err.startswith(VALIDATION + "config syntax error: ")
        assert err.count("\n") == 1 and f"line {line}" in err, err

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
        assert err == (f"error: validation: model prod({key})=18446744073709551616 exceeds "
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


def owner_error(owner, *args, **kwargs):
    """The message of the ValueError ``owner`` raises, or None."""
    try:
        owner(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


class TestOwnersMessages:
    # Each section's dataclass owns its rules (the model's geometry through
    # param_count_config); the config only puts the section in front.
    @settings(max_examples=200, deadline=None)
    @given(m=st.lists(st.integers(0, 3), max_size=4),
           n=st.lists(st.integers(0, 3), max_size=4),
           leaf=st.integers(0, 3), internal=st.integers(0, 3))
    def test_model_geometry(self, m, n, leaf, internal):
        message = owner_error(param_count_config, tuple(m), tuple(n), leaf, internal, 4)
        if message is None:
            return
        with pytest.raises(ConfigError) as info:
            parse_config(f"[model]\nm_shape = {','.join(map(str, m))}\n"
                         f"n_shape = {','.join(map(str, n))}\n"
                         f"leaf_rank = {leaf}\ninternal_rank = {internal}\n")
        assert str(info.value) == f"model {message}"

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries({
        "dropout_rate": st.floats(-0.5, 1.5), "batch_size": st.integers(-1, 3),
        "epochs": st.integers(-2, 3), "learning_rate": st.floats(-1.0, 1.0)}))
    def test_train_settings(self, values):
        message = owner_error(TrainConfig, **values)
        if message is None:
            return
        with pytest.raises(ConfigError) as info:
            parse_config("[train]\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items()))
        assert str(info.value) == f"train {message}"

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries({
        "classes": st.integers(0, 3), "frames": st.integers(-1, 2),
        "frame_dim": st.integers(-1, 2), "train_per_class": st.integers(-1, 2),
        "test_per_class": st.integers(-1, 2), "seed": st.integers(-2, 2)}))
    def test_task_settings(self, values):
        message = owner_error(SyntheticTask, **values)
        if message is None:
            return
        with pytest.raises(ConfigError) as info:
            parse_config("[task]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert str(info.value) == f"task {message}"

    @pytest.mark.parametrize("owner, section, values", [
        (ModelConfig, "model", {"mode": "hidden-only"}),
        (ModelConfig, "model", {"n_x": 257}),
        (ModelConfig, "model", {"n_x": -5}),
        (ModelConfig, "model", {"seed": -1}),
        (TrainConfig, "train", {"seed": -2}),
        (SyntheticTask, "task", {"seed": -3}),
        (SyntheticTask, "task", {"classes": 1}),
        (SyntheticTask, "task", {"test_per_class": 0}),
        (PathsConfig, "paths", {"checkpoint": ""}),
        (PathsConfig, "paths", {"metrics": ""}),
    ], ids=["model-mode", "model-packing", "model-n-x", "model-seed", "train-seed",
            "task-seed", "task-classes", "task-per-class", "paths-checkpoint",
            "paths-metrics"])
    def test_section_owner_rejects(self, owner, section, values):
        # the dataclass rejects the values when built directly, and the INI
        # text holding them reports that message after its section
        message = owner_error(owner, **values)
        assert message is not None and any(key in message for key in values)
        with pytest.raises(ConfigError) as info:
            parse_config(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert str(info.value) == f"{section} {message}"

    @pytest.mark.parametrize("values", [{"mode": "hidden-only"}, {"n_x": 257},
                                        {"n_x": 0}], ids=["mode", "packing", "n-x"])
    def test_model_shares_the_cells_rules(self, values):
        args = {"n_x": 256, "n_shape": (16, 17), "m_shape": (4, 4), "leaf_rank": 8,
                "internal_rank": 8, **values}
        assert owner_error(ModelConfig, **values) == owner_error(make_cell, **args)


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

    @pytest.mark.parametrize("name, recurrent, weights, ratio", [
        # 17,408 / 2,336 = 7.45
        ("synthetic-input-only", "1,024", "2,336", "7"),
        # 33,554,432 / 16,785,632 = 1.999: the dense recurrent matrix is
        # half the dense cell's weights
        ("hmdb51-cnn", "16,777,216", "16,785,632", "2"),
    ])
    def test_input_only_counts_the_recurrent_matrix(self, capsys, tmp_path, name,
                                                    recurrent, weights, ratio):
        # an input-only cell holds a dense 4H x H recurrent matrix beside its
        # HT factors, so the ratio is taken over both; the lines of the same
        # geometry in full mode keep their place and values
        text = (CONFIGS / f"{name}.ini").read_text()
        if "mode = input-only" not in text:
            text = text.replace("[model]\n", "[model]\nmode = input-only\n")
        full_text = text.replace("mode = input-only", "mode = full")
        _, full, _ = run_cli(capsys, "params", "--config", write_config(tmp_path, full_text))
        code, out, _ = run_cli(capsys, "params", "--config", write_config(tmp_path, text))
        assert code == 0
        model, ht, dense_weights, dense_total, _ = full.splitlines()
        assert out.splitlines() == [
            model, ht, "mode = input-only", f"recurrent_params = {recurrent}",
            f"weight_params = {weights}", dense_weights, dense_total,
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


def two_class_checkpoint(tmp_path):
    """A checkpoint of SMALL_MODEL's geometry whose head has 2 classes, in a
    config whose [task] has 3."""
    cell = make_cell(6, (4, 3), (2, 2), 2, 2)
    save_checkpoint(cell, make_head(2, cell.hidden_size, 0), tmp_path / "two.fdht")
    return small_run(tmp_path, tmp_path / "two.fdht", tmp_path / "m.csv")


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
    "empty-checkpoint-path": (
        lambda t: ["train", "--config", write_config(t, "[paths]\ncheckpoint =\n")],
        1, re.escape(VALIDATION + "paths checkpoint must not be empty\n")),
    "negative-seed": (
        lambda t: ["params", "--seed", "-1"],
        1, re.escape(VALIDATION + "model seed must be >= 0, got -1\n")),
    "checkpoint-classes": (
        lambda t: ["eval", "--config", two_class_checkpoint(t)],
        1, re.escape(VALIDATION + "checkpoint classes=2 does not match config classes=3\n")),
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


def test_python_dash_m_runs_the_cli():
    # from a checkout with only src/ on the import path, no install
    env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "fdht", "params", "--config",
                           "configs/synthetic.ini"], cwd=CONFIGS.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ht_params = 1,312" in done.stdout.splitlines()


class TestCompare:
    def test_csv_output(self, capsys, small_config):
        code, out, _ = run_cli(capsys, "compare", "--config", small_config)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rank,tt,tr,bt,ht"
        assert len(lines) == 17  # ranks 1..16

    def test_rank_sweep_config_bytes(self, capsys):
        # the scheme comparison of criterion 7, pinned byte for byte
        code, out, _ = run_cli(capsys, "compare", "--config", str(CONFIGS / "rank-sweep.ini"))
        lines = out.splitlines()
        assert (code, len(lines), lines[1]) == (0, 17, "1,144,144,145,148")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fda9490dcdd776974a385e17ad4940490c5a3a7217d234f4aad1003fe333e0cc")

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

    def test_verify_checks_the_frames(self, capsys, small_config, monkeypatch):
        product = RootFrames.product
        monkeypatch.setattr(RootFrames, "product", lambda self, x: product(self, x) + 1e-6)
        code, out, _ = run_cli(capsys, "verify", "--config", small_config)
        assert code == 1
        assert out == "verify max_abs_error = 1.000e-06 (tolerance 1e-10)\n"

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


NOISE_OVERFLOW = VALIDATION + "[task] noise = 1.7e+308 overflows the samples\n"
OVERFLOW_CASES = {
    "train-noise": (1, NOISE_OVERFLOW),
    "eval-noise": (1, NOISE_OVERFLOW),
    "eval-scaled-checkpoint": (
        2, "error: runtime: non-finite logits: the model overflows on this split\n"),
}


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

    @pytest.mark.parametrize("mode", ["full", "input-only"])
    def test_train_prints_one_line_per_epoch(self, capsys, tmp_path, mode):
        # stderr gets one space-separated key=value line per epoch; its
        # loss is the CSV's train_loss, and every parameter block has a
        # finite, positive mean gradient norm
        path = tmp_path / "run.ini"
        path.write_text(SMALL_MODEL.replace("seed = 3\n", f"seed = 3\nmode = {mode}\n", 1)
                        + f"\n[paths]\ncheckpoint = {tmp_path}/m.fdht\n"
                        f"metrics = {tmp_path}/metrics.csv\n")
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 0
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        lines = err.splitlines()
        assert len(lines) == len(rows) == 3
        blocks = {"ht.0", "ht.1", "ht.2", "biases", "head.w", "head.b"}
        if mode == "input-only":
            blocks.add("recurrent")
        for epoch, (line, row) in enumerate(zip(lines, rows)):
            values = dict(pair.split("=", 1) for pair in line.split(" "))
            assert values.pop("epoch") == str(epoch)
            assert float(values.pop("wall_s")) > 0.0
            assert values.pop("loss") == row.split(",")[1]
            assert {key.removeprefix("grad_norm.") for key in values} == blocks
            assert all(0.0 < float(v) < math.inf for v in values.values())

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

    def test_adam_beta_of_one_rejected_before_training(self, capsys, tmp_path):
        # adam_step divides by 1 - beta1**t, which is 0 for beta1 = 1; the
        # decay rates are fixed constants, so the key is unknown
        path = write_config(tmp_path, SMALL_MODEL.replace("[train]\n", "[train]\nbeta1 = 1\n")
                            + f"\n[paths]\ncheckpoint = {tmp_path}/b.fdht\n"
                            f"metrics = {tmp_path}/b.csv\n")
        code, _, err = run_cli(capsys, "train", "--config", path)
        assert code == 1
        assert err == VALIDATION + "unknown key 'beta1' in section [train]\n"
        assert not (tmp_path / "b.fdht").exists()

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

    @pytest.mark.filterwarnings("error")  # a numpy warning fails the test
    @pytest.mark.parametrize("case", OVERFLOW_CASES)
    def test_overflowing_finite_input_is_one_line(self, capsys, tmp_path, case):
        # finite values that the parser and the checkpoint reader accept:
        # a noise whose samples overflow, factors whose logits do
        code, err = OVERFLOW_CASES[case]
        checkpoint, metrics = tmp_path / "c.fdht", tmp_path / "m.csv"
        if case.startswith("eval"):
            cell = make_cell(6, (4, 3), (2, 2), 2, 2, seed=3)
            if case == "eval-scaled-checkpoint":
                for f in cell.weight.factors:
                    f *= 1e306
            save_checkpoint(cell, make_head(3, cell.hidden_size, 0), checkpoint)
        text = SMALL_MODEL if case.endswith("checkpoint") else SMALL_MODEL.replace(
            "noise = 0.4", "noise = 1.7e308")
        path = write_config(tmp_path, text + f"\n[paths]\ncheckpoint = {checkpoint}\n"
                                             f"metrics = {metrics}\n")
        before = sorted(tmp_path.iterdir())
        assert run_cli(capsys, case.split("-")[0], "--config", path) == (code, "", err)
        assert sorted(tmp_path.iterdir()) == before  # no checkpoint, sidecar or metrics

    @pytest.mark.parametrize("bad", ["metrics-directory", "checkpoint-directory",
                                     "metrics-parent-is-file", "sidecar-directory"])
    def test_bad_output_path_rejected_before_training(self, capsys, tmp_path,
                                                      monkeypatch, bad):
        def never(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", never)
        (tmp_path / "file").write_text("")
        checkpoint, metrics = tmp_path / "c.fdht", tmp_path / "m.csv"
        if bad == "metrics-directory":
            metrics = tmp_path
        elif bad == "checkpoint-directory":
            checkpoint = tmp_path
        elif bad == "sidecar-directory":
            (tmp_path / "c.fdht.json").mkdir()
        else:
            metrics = tmp_path / "file" / "m.csv"
        code, out, err = run_cli(capsys, "train", "--config",
                                 small_run(tmp_path, checkpoint, metrics, epochs=2))
        assert (code, out) == (1, "")
        assert err.startswith(VALIDATION) and err.count("\n") == 1, err
        assert not (tmp_path / "c.fdht").exists()

    def test_checkpoint_written_before_metrics(self, capsys, tmp_path, monkeypatch):
        # a metrics write that fails after training still leaves the model
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path / "m.csv"))

        monkeypatch.setattr(cli, "history_csv", refuse)
        code, _, err = run_cli(capsys, "train", "--config",
                               small_run(tmp_path, tmp_path / "c.fdht",
                                         tmp_path / "m.csv", epochs=1))
        lines = err.splitlines()  # the one epoch's line, then the error's
        assert code == 1 and err.count("\n") == len(lines) == 2, err
        assert lines[0].startswith("epoch=0 ") and lines[1].startswith("error: validation: ")
        assert (tmp_path / "c.fdht").exists()

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
