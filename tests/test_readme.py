"""README statements that must follow the code they describe."""

import configparser
import re
from pathlib import Path

import numpy as np

from fdht.cli import _COMMANDS
from fdht.config import RunConfig, emit_config, load_config
from fdht.ht import RootFrames, htl_forward, init_ht_weight
from fdht.lstm import GATES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_keys_sentence_names_every_emitted_key():
    # "Config sections and keys (...): `[model]` n_x, ...; `[train]` ...;
    # ... . Unknown sections or keys ..." against what --print-config writes
    text = " ".join(README.read_text().split())
    sentence = re.search(r"Config sections and keys \(.*?\): (.*?)\. Unknown", text).group(1)
    listed = {}
    for part in re.sub(r" \([^)]*\)", "", sentence).split("; "):
        section, keys = re.fullmatch(r"`\[(\w+)\]` (.*)", part).groups()
        listed[section] = keys.split(", ")
    emitted = configparser.ConfigParser(interpolation=None)
    emitted.read_string(emit_config(RunConfig()))
    assert listed == {s: list(emitted[s]) for s in emitted.sections()}


def test_cli_examples_name_real_commands_and_configs():
    # each `fdht <command> --config <path>` example in the CLI section runs
    # a command the parser knows on a shipped config that loads
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"^fdht ([\w-]+) +--config (\S+)", section, re.MULTILINE)
    assert examples
    for command, path in examples:
        assert command in _COMMANDS, command
        load_config(README.parent / path)
    assert {command for command, _ in examples} == set(_COMMANDS)


def test_plan_cache_figures_match_the_cache():
    # "The cost is resident memory ...: N bytes of array data at `config`
    # (...), N at `config`, ..." against the arrays that HTWeight keeps
    # after one htl_forward, each buffer counted once: the snapshot's
    # bytes, which the factor views share, and every kept array's owner
    text = " ".join(README.read_text().split())
    sentence = re.search(r"The cost is resident memory(.*?)each buffer counted once", text)
    listed = {name: int(figure.replace(",", "")) for figure, name in
              re.findall(r"([\d,]+) (?:bytes of array data )?at `([\w-]+)`", sentence.group(1))}
    assert len(listed) == 5
    for name, figure in listed.items():
        model = load_config(README.parent / "configs" / f"{name}.ini").model
        w = init_ht_weight(model.m_shape, model.n_shape, model.leaf_rank,
                           model.internal_rank, GATES, model.seed)
        htl_forward(w, np.zeros(w.in_size))
        _, snapshot, (kept, fl, v, *_) = w._weight_steps
        buffers = {id(snapshot): len(snapshot)}
        for a in (*kept.values(), fl, v):
            while isinstance(a.base, np.ndarray):
                a = a.base
            buffers.setdefault(id(a if a.base is None else a.base), a.nbytes)
        assert sum(buffers.values()) == figure, name


def test_minibatch_inventory_figures_match_the_frames():
    # "The frames hold N MiB: V N MiB, `dvt` N MiB, a group's dy rows N MiB
    # (...), the T scratch N MiB, U N MiB, dU N MiB." against the arrays of
    # training frames at `hmdb51-cnn` with a group of two six-step
    # sequences open
    text = " ".join(README.read_text().split())
    total, listed = re.search(r"The frames hold ([\d.]+) MiB: (.*?)\. One sequence", text).groups()
    figures = dict(re.fullmatch(r"(.+) ([\d.]+) MiB", part).groups()
                   for part in re.sub(r" \([^)]*\)", "", listed).split(", "))
    model = load_config(README.parent / "configs" / "hmdb51-cnn.ini").model
    w = init_ht_weight(model.m_shape, model.n_shape, model.leaf_rank,
                       model.internal_rank, GATES, model.seed)
    frames = RootFrames(w, [np.zeros_like(f) for f in w.factors])
    frames.begin(np.zeros((6, 2, w.in_size)))
    arrays = {"V": frames.v, "`dvt`": frames.dvt, "a group's dy rows": frames.dy_block,
              "the T scratch": frames.ts, "U": frames.u, "dU": frames.du}
    assert {name: float(f) for name, f in figures.items()} == {
        name: a.nbytes / 2**20 for name, a in arrays.items()}
    assert float(total) == sum(a.nbytes for a in arrays.values()) / 2**20
