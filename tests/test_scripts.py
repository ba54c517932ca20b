"""The example scripts under scripts/ run and print what they describe."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from gaussmatch import FAMILY_ORDER, Moments, family_report

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_population_demo_prints_one_line_per_family():
    demo = _load("population_demo")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert demo.main(["--count", "2000"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "population mean [3.0, 4.0], cov [[1.0, 0.3], [0.3, 0.6]]"
    assert lines[1] == "fixed means pinned at [0.0, 0.0], sample size 2000, seed 7"
    assert lines[3].split() == ["family", "M", "(population)", "M", "(sampled)", "abs", "diff"]
    table = [line.split() for line in lines[4:]]
    assert [fields[0] for fields in table] == [kind.value for kind in FAMILY_ORDER]
    exact = family_report(Moments([3.0, 4.0], [[1.0, 0.3], [0.3, 0.6]]), [np.zeros(2)])
    assert [fields[1] for fields in table] == [f"{row.match:.6f}" for row in exact]
    # the README's worked example: M of the fixed-mean isotropic family at the origin
    assert table[3][1] == "2.924436"


def test_code_lines_counts_code_outside_docstrings(tmp_path):
    counter = _load("code_lines")
    module = tmp_path / "sample.py"
    module.write_text(
        '"""Module docstring.\n\nTwo paragraphs."""\n'
        "# a comment\n"
        "\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "def f(\n"
        "    x,\n"
        "):\n"
        '    """Function docstring."""\n'
        '    text = """two\n'
        'lines"""\n'
        "    return text\n"
        "\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    pass\n",
        encoding="utf-8",
    )
    # import, def f( / x, / ):, the two lines of text, return, class, pass
    assert counter.code_lines(module.read_text(encoding="utf-8")) == 9
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert counter.main([str(tmp_path)]) == 0
    assert out.getvalue().splitlines() == [f"{tmp_path / 'empty.py'} 0",
                                           f"{module} 9", "total 9"]


def test_compare_outputs_prints_each_workload_peak(monkeypatch, capsys):
    # Loading the script puts bench/ on sys.path and turns bytecode writing off.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    compare = _load("compare_outputs")

    def build(name, seed, work):
        # two short commands and no input CSV, so no damaged copies
        synth = ["synth", "--mean", "0", "--cov", "1", "--count", "3", "--seed", str(seed)]
        operations = [compare.workloads.Operation(synth + ["--output", str(work / f"{i}.csv")],
                                                  [work / f"{i}.csv"], print)
                      for i in range(2)]
        return compare.workloads.Workload(name, operations, 1)

    monkeypatch.setattr(compare.workloads, "build", build)
    src = str(SCRIPTS.parent / "src")
    assert compare.main([src, src, "--workloads", "small-cli", "--seeds", "4",
                         "--peak-rss"]) == 0
    lines = capsys.readouterr().out.splitlines()
    peaks = [line.split() for line in lines if line.startswith("peak-rss")]
    # first each tree's import-only peak, below the peak of any command
    assert peaks[0][:2] == ["peak-rss", "import"] and peaks[0][3::2] == ["MB", "MB"]
    for column in (2, 4):
        assert 0 < float(peaks[0][column]) <= min(float(fields[column + 3]) for fields in peaks[1:])
    peaks = peaks[1:]
    assert [fields[1:4] for fields in peaks] == [["small-cli", "seed", "4"]] * 3
    assert [fields[4] for fields in peaks] == ["1:synth", "2:synth", "workload"]
    # the workload line holds, for each tree, the largest peak of its commands
    for column in (5, 7):
        assert float(peaks[2][column]) == max(float(fields[column]) for fields in peaks[:2])
    assert lines[-1] == "0 difference(s)"


def test_compare_outputs_reports_the_drift_of_numbers(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    compare = _load("compare_outputs")
    # 0.1 and the next double up, one ulp (2**-56) apart
    first, second = b"M 0.1\nHx 2.5\n", b"M 0.10000000000000002\nHx 2.5\n"
    assert compare.drift(first, second) == (
        "2 numbers, 1 bit-identical, largest abs difference 1.39e-17 at line 1 col 3, "
        "largest rel difference 1.39e-16 at line 1 col 3, largest magnitude 2.5")
    # text that differs outside the numbers, or is not UTF-8, has no drift
    assert compare.drift(first, b"M 0.1\nH 2.5\n") is None
    assert compare.drift(first, first + b"1\n") is None
    assert compare.drift(first, b"M 0.1\xff\nHx 2.5\n") is None

    stdouts = iter([first, second])  # of the first tree, then of the second

    def run_tree(tree, name, seed, work):
        return ([("1:score exit", b"0"), ("1:score stdout", next(stdouts))],
                [("1:score", 30.0)], 30.0)

    monkeypatch.setattr(compare, "run_tree", run_tree)
    src = str(SCRIPTS.parent / "src")
    assert compare.main([src, src, "--workloads", "small-cli"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["same", "DIFFERS", "drift", "1"]
    assert lines[2].endswith("2 numbers, 1 bit-identical, largest abs difference 1.39e-17 "
                             "at line 1 col 3, largest rel difference 1.39e-16 at line 1 col 3, "
                             "largest magnitude 2.5")
    assert lines[-1] == "1 difference(s)"
