"""The README's Python examples run as written.

Every ```python block of README.md runs in document order in one shared
namespace, the way a reader pastes them into one session.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run_in_order():
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python blocks"
    namespace: dict = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        code = compile(block, f"README.md python block {number}", "exec")
        exec(code, namespace)
