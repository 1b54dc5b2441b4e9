"""The README's Python quick start, its custom-model example and its CLI
lines run as written, and its public names are the package's, which each
module's ``__all__`` states once."""

import re
import shlex
from pathlib import Path

import rdspectral
from rdspectral import adi, grid, harness, models, postprocess, runio, steppers
from rdspectral.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    steps, shape = capsys.readouterr().out.split(" ", 1)
    assert int(steps) == 1000
    assert shape.strip() == "(2, 512)"


def test_readme_custom_model_runs(capsys):
    block = re.search(r"### Writing a model\n.*?```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    steps, shape = capsys.readouterr().out.split(" ", 1)
    assert int(steps) == 200
    assert shape.strip() == "(2, 256)"


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "rdspectral"
        assert main(argv[1:]) == 0, shlex.join(argv)


def test_readme_names_every_public_name():
    text = README.read_text()
    assert [name for name in rdspectral.__all__ if f"`{name}`" not in text] == []


def test_readme_names_only_public_names():
    section = re.search(r"## Public names\n(.*?)\n## ", README.read_text(), re.S).group(1)
    names = re.findall(r"`(\w+)`", section)
    assert len(names) >= len(rdspectral.__all__)
    assert [name for name in names if name not in rdspectral.__all__] == []


def test_the_package_exports_exactly_the_module_lists():
    modules = (grid, models, steppers, adi, postprocess, runio, harness)
    listed = [name for module in modules for name in module.__all__]
    assert [name for name in listed if not hasattr(rdspectral, name)] == []
    assert sorted(rdspectral.__all__) == sorted(listed + ["__version__"])
