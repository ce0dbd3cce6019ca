"""README.md's examples run as written: the library example and every
``abpc`` line of its shell blocks."""

import re
import shlex
from pathlib import Path

from abpc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_library_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "bivariate_ch n=4 d=3 ring=mod:4 PASS\n"


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran, checked, out = 0, 0, None
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("abpc "):
                assert main(shlex.split(line)[1:]) == 0, line
                out = capsys.readouterr().out
                ran += 1
            elif line.startswith("# -> "):
                assert out == line[len("# -> "):] + "\n", line
                checked += 1
    assert ran >= 10 and checked == 1
