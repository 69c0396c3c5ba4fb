"""Every ```python block of the README runs as written, its list of
modules names every module of the package, and every `module.name` it
gives of a package module exists there.

Where every ``print`` line of a block ends in a one-word comment, such as
``print(classify(model, query))   # V``, the block must print those words.
"""

import importlib
import re
from pathlib import Path

import pytest

from mbparse import bundles, config

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "mbparse"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def promised_output(block):
    """The words the print lines' comments promise, or None."""
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    words = [line.rpartition("#")[2].split() for line in prints if "#" in line]
    if prints and len(words) == len(prints) and all(len(w) == 1 for w in words):
        return [w[0] for w in words]
    return None


def test_readme_has_python_blocks():
    assert BLOCKS
    assert any(promised_output(block) for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = promised_output(BLOCKS[index])
    if expected is not None:
        assert printed == expected


def listed_modules():
    """The names that the bullets of the README's module list give before
    their first colon."""
    text = README.read_text(encoding="utf-8")
    bullets = text.split("Modules under `src/mbparse/`:", 1)[1].split("\n\n", 2)[1]
    return {name for line in bullets.splitlines() if line.startswith("- ")
            for name in re.findall(r"`(\w+)`", line.partition(":")[0])}


def test_readme_lists_every_module():
    assert listed_modules() == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def test_readme_names_the_bundle_format():
    assert f"JSON `manifest` (format {bundles._FORMAT})" in README.read_text(encoding="utf-8")


def test_readme_counts_the_config_keys():
    keys = sum(len(keys) for keys in config.SCHEMA.values())
    assert f"These are the {keys} accepted keys" in README.read_text(encoding="utf-8")


def test_readme_module_names_exist():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    named = re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    named = [(module, name) for module, name in named if module in modules]
    assert named
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"mbparse.{module}"), name)]
    assert missing == []
