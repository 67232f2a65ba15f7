"""The README's Python and CLI examples run against the package as it is."""

import re
import shlex
from pathlib import Path

import numpy as np

from diffinv.cli import main
from diffinv.fileio import save_tensor

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_cli_examples_exit_zero(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```$", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("diffinv ")]
    assert commands, "README has no CLI example"
    monkeypatch.chdir(tmp_path)
    save_tensor("z0.txt", np.random.default_rng(0).standard_normal((8, 8)))
    for argv in commands:
        assert main(argv) == 0, argv
