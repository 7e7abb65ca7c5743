"""The Python examples of README.md, run in order in one namespace, so the
documented call shapes are executed rather than trusted."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for k, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python example {k}", "exec"), namespace)
