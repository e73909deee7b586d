"""The README's library overview runs: every ```python block in README.md
is executed, so the documented calls cannot drift from the API."""

import re
from pathlib import Path

from sympllt.diagnostics import FAMILIES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_in_the_readme_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})


def test_the_families_paragraph_names_every_family_and_sweep_limit():
    text = README.read_text(encoding="utf-8")
    (paragraph,) = re.findall(r"^Families for `gen`/`diagnose`:.*?(?=\n\n)", text,
                              re.MULTILINE | re.DOTALL)
    paragraph = " ".join(paragraph.split())
    for name, (_, _, max_n) in FAMILIES.items():
        assert f"`{name}`" in paragraph, name
        if max_n is not None:
            # the limit follows the family's name and its --n flag
            assert re.search(rf"`{re.escape(name)}` \(`--n`, 1\.\.{max_n}\b", paragraph), name
