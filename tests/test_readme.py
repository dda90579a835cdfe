"""The README quick tour runs as written: each printed line matches the
comment next to its `print`, and each shell line exits 0."""

import contextlib
import io
import os
import re
import shlex

from slopelab.cli import main

_README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "README.md")


def _tour():
    text = open(_README).read()
    tour = text[text.index("## Quick tour"):]
    python = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    shell = re.search(r"The same run from the shell:\n\n```\n(.*?)```",
                      tour, re.S).group(1)
    return python, shell.splitlines()


def test_the_quick_tour_prints_what_its_comments_say():
    python, _ = _tour()
    expected = [line.split("#", 1)[1].strip()
                for line in python.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(python, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 4


def test_the_quick_tour_shell_lines_exit_0(capsys, monkeypatch, tmp_path):
    _, lines = _tour()
    monkeypatch.setenv("SLOPELAB_OUTDIR", str(tmp_path))
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "slopelab"
        assert main(argv[1:]) == 0, line
    assert sorted(os.listdir(tmp_path)) == ["cert.json", "figure.svg"]
    capsys.readouterr()
