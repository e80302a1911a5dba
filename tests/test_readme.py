"""README's library tour runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path


def test_the_readme_python_blocks_run():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README.md has no python block"
    exec(compile("".join(blocks), "README.md", "exec"), {"__name__": "__main__"})
