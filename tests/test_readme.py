"""The README's examples run as written and print what it says they print."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaussmatch

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first fenced block of the given language after a ``## heading`` line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    return match.group(1)


def test_library_quick_start():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library quick start", "python"), namespace)
    first, second = out.getvalue().splitlines()
    family, match = first.split()
    assert family == "fixed-mean-isotropic"
    assert float(match) == pytest.approx(2.924, abs=5e-4)
    assert second.startswith("[")
    assert np.abs(namespace["white"].mean(axis=0)).max() < 1e-12


def test_command_line_score_example(tmp_path):
    lines = _block("Command line", "sh").splitlines()
    commands = [shlex.split(line) for line in lines
                if line.startswith(("gaussmatch synth", "gaussmatch fit", "gaussmatch score"))]
    assert [argv[1] for argv in commands] == ["synth", "fit", "fit", "score"]
    expected = "".join(line[2:] + "\n" for line in lines if line.startswith(("# M ", "# Hx ")))
    assert expected == "M 0.08297652361393326\nHx 2.5813781443461887\n"
    package_root = str(Path(gaussmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    for argv in commands:
        result = subprocess.run([sys.executable, "-m", "gaussmatch.cli", *argv[1:]],
                                cwd=tmp_path, env=env, capture_output=True, text=True)
        assert result.returncode == 0, (argv, result.stderr)
    assert result.stdout == expected
