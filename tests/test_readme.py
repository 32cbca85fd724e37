"""README statements that must follow the code they describe."""

import configparser
import re
from pathlib import Path

from fdht.config import RunConfig, emit_config

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
