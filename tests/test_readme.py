"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    steps, shape = capsys.readouterr().out.split(" ", 1)
    assert int(steps) == 1000
    assert shape.strip() == "(2, 512)"
