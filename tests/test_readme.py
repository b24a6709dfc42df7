"""The examples in README.md run as written, and its config block shows the defaults."""

import dataclasses
import json
import re
from pathlib import Path

from relayfl.experiment import ExperimentConfig, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL))
    assert blocks
    for block in blocks:
        # Leading newlines make traceback line numbers point into README.md.
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_config_block_lists_every_field_at_its_default():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```jsonc\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    # JSON once the comments and the commas before a closing bracket are gone.
    block = re.sub(r"//[^\n]*", "", block)
    document = json.loads(re.sub(r",(\s*[}\]])", r"\1", block))
    defaults = dataclasses.asdict(ExperimentConfig())
    assert document == {**defaults, "sweep": document["sweep"]}
    config = parse_config(document)
    assert config.sweep is not None
    assert dataclasses.replace(config, sweep=None) == ExperimentConfig()
