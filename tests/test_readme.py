"""The README's library example runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert isinstance(namespace["distance"], float) and 0.0 <= namespace["distance"] <= 2.0
    assert isinstance(namespace["verdict"].similar, bool)
