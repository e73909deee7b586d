"""The README's library overview runs: every ```python block in README.md
is executed, so the documented calls cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_in_the_readme_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
