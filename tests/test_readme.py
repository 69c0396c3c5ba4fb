"""Every ```python block of the README runs as written.

Where every ``print`` line of a block ends in a one-word comment, such as
``print(classify(model, query))   # V``, the block must print those words.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
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
