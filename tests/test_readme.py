"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    # the block imports goodrings, so it runs against the package under test
    exec(compile(blocks[0], str(README), "exec"), {})
