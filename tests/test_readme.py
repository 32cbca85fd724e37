"""README statements that must follow the code they describe."""

import configparser
import re
from pathlib import Path

from fdht.cli import _COMMANDS
from fdht.config import RunConfig, emit_config, load_config

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
