"""Command-line behavior: pipelines, formats, and exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussmatch import (
    GaussMatchError,
    ParseError,
    Raster,
    cross_entropy,
    estimate_moments,
    family_report,
    match_score,
    read_points_csv,
    sample_gaussian,
    write_points_csv,
    write_ppm,
)
from gaussmatch.cli import (
    _dims,
    build_parser,
    fit_from_document,
    fit_to_document,
    run,
    scatter_svg,
)
from gaussmatch import _pool, cli, ingest
from gaussmatch.oracle import FamilyCheck
from gaussmatch.families import Family
from helpers import nothing_left, run_with_file_size_limit


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "pts.csv"
    code = run(
        [
            "synth",
            "--mean",
            "3,4",
            "--cov",
            "1,0.3;0.3,0.6",
            "--count",
            "2000",
            "--seed",
            "7",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(
                ["synth", "--mean", "0,0", "--cov", "1,0;0,1", "--count", "50",
                 "--seed", "3", "--output", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_matrix_is_usage_error(self, tmp_path, capsys):
        code = run(
            ["synth", "--mean", "0,0", "--cov", "1,0;0", "--count", "10",
             "--seed", "1", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_singular_cov_is_data_error(self, tmp_path, capsys):
        code = run(
            ["synth", "--mean", "0,0", "--cov", "1,0;0,0", "--count", "10",
             "--seed", "1", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: covariance is singular")
        assert "smallest eigenvalue 0.000e+00, floor 5.000e-11" in err

    def test_out_of_memory_is_data_error(self, tmp_path):
        # numpy refuses the 14 PiB request before it touches any memory
        out = tmp_path / "x.csv"
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "synth", "--mean", "0,0", "--cov", "1,0;0,1",
             "--count", "1000000000000000", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: out of memory")
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_count_numpy_cannot_size_is_data_error(self, tmp_path):
        # numpy once refused 2**64 with a bare ValueError: a traceback and exit 1
        out = tmp_path / "x.csv"
        result = subprocess.run(
            [sys.executable, "-O", "-W", "error", "-m", "gaussmatch.cli", "synth", "--mean=0",
             "--cov=1", "--count", str(2**64), "--seed", "0", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == f"error: count must be at most {sys.maxsize // 16}\n"
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_data_error(self, tmp_path, seed):
        # -1 once wrote the bytes of seed 2**64 - 1, and 2**64 those of seed 0
        out = tmp_path / "x.csv"
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "synth", "--mean", "0,0", "--cov", "1,0;0,1",
             "--count", "10", "--seed", seed, "--output", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == f"error: seed must be an integer in 0..2**64-1, got {seed}\n"
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["synth", "--mean", "0,0", "--cov", "1,0;0,1", "--count", "10",
                    "--seed", str(2**64 - 1), "--output", str(out)]) == 0
        assert read_points_csv(out).shape == (10, 2)

    def test_negative_vector_values(self, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        assert run(["synth", "--mean", "-1,2", "--cov", "1,-0.3;-0.3,0.6", "--count", "400",
                    "--seed", "3", "--output", str(out)]) == 0
        equals = tmp_path / "eq.csv"
        assert run(["synth", "--mean=-1,2", "--cov=1,-0.3;-0.3,0.6", "--count", "400",
                    "--seed", "3", "--output", str(equals)]) == 0
        assert out.read_bytes() == equals.read_bytes()
        model = tmp_path / "m.json"
        assert run(["fit", "--input", str(out), "--family", "fixed-mean", "--mean", "-.5,-1",
                    "--output", str(model)]) == 0
        assert json.loads(model.read_text())["fixed_mean"] == [-0.5, -1.0]
        capsys.readouterr()
        assert run(["report", "--input", str(out), "--means", "-0.5;mean", "--format", "csv"]) == 0
        labels = [row[1] for row in csv.reader(io.StringIO(capsys.readouterr().out))]
        assert labels.count("-0.5") == 3


class TestFitScore:
    def test_fixed_mean_pipeline(self, sample_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(
            ["fit", "--input", str(sample_csv), "--family", "fixed-mean",
             "--mean", "0,0", "--output", str(model)]
        ) == 0
        doc = json.loads(model.read_text())
        assert doc["schema_version"] == "1"
        assert doc["family"] == "fixed-mean"
        assert doc["fixed_mean"] == [0.0, 0.0]
        assert run(["score", "--input", str(sample_csv), "--model", str(model)]) == 0
        out = capsys.readouterr().out
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert abs(float(lines["M"]) - doc["match"]) <= 1e-12
        assert abs(float(lines["Hx"]) - doc["cross_entropy"]) <= 1e-12

    def test_full_family_scores_zero(self, sample_csv, tmp_path, capsys):
        model = tmp_path / "full.json"
        assert run(
            ["fit", "--input", str(sample_csv), "--family", "full", "--output", str(model)]
        ) == 0
        assert run(["score", "--input", str(sample_csv), "--model", str(model)]) == 0
        out = capsys.readouterr().out
        m_value = float(out.strip().splitlines()[0].split(" ", 1)[1])
        assert abs(m_value) <= 1e-12

    def test_model_json_round_trip_is_bit_exact(self, sample_csv, tmp_path):
        model = tmp_path / "m.json"
        assert run(
            ["fit", "--input", str(sample_csv), "--family", "isotropic", "--output", str(model)]
        ) == 0
        first = fit_from_document(json.loads(model.read_text()))
        again = fit_from_document(json.loads(json.dumps(fit_to_document(first))))
        assert np.array_equal(first.model.mean, again.model.mean)
        assert np.array_equal(first.model.cov, again.model.cov)
        assert first.match == again.match
        assert first.cross_entropy == again.cross_entropy

    def test_usage_errors(self, sample_csv, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert run(["fit", "--input", str(sample_csv), "--family", "fixed-mean",
                    "--output", out]) == 1
        assert run(["fit", "--input", str(sample_csv), "--family", "full",
                    "--mean", "0,0", "--output", out]) == 1
        assert run(["fit", "--input", str(sample_csv), "--family", "gaussian",
                    "--output", out]) == 1
        assert run(["fit", "--input", str(sample_csv), "--family", "full"]) == 1
        capsys.readouterr()

    def test_data_errors(self, sample_csv, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("1,2\n3,oops\n")
        out = str(tmp_path / "x.json")
        assert run(["fit", "--input", str(bad_csv), "--family", "full", "--output", out]) == 2
        assert run(["fit", "--input", str(tmp_path / "missing.csv"), "--family", "full",
                    "--output", out]) == 2
        # pinned mean of the wrong dimension
        assert run(["fit", "--input", str(sample_csv), "--family", "fixed-mean",
                    "--mean", "0,0,0", "--output", out]) == 2
        capsys.readouterr()

    def test_option_value_of_two_dashes_is_a_file_name(self, sample_csv, tmp_path, monkeypatch,
                                                        capsys):
        # '--option=--' names the file '--'; stock argparse would hand the
        # command an empty list, as if '--' ended the options
        monkeypatch.chdir(tmp_path)
        shutil.copyfile(sample_csv, "--")
        assert run(["report", "--input=--"]) == 0
        assert "fixed-mean" in capsys.readouterr().out
        (tmp_path / "--").unlink()
        assert run(["fit", "--input", str(sample_csv), "--family", "full", "--output=--"]) == 0
        assert json.loads((tmp_path / "--").read_text(encoding="utf-8"))["family"] == "full"

    def test_tampered_schema_version(self, sample_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(["fit", "--input", str(sample_csv), "--family", "full",
                    "--output", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["schema_version"] = "999"
        model.write_text(json.dumps(doc))
        assert run(["score", "--input", str(sample_csv), "--model", str(model)]) == 2
        capsys.readouterr()


class TestTransform:
    def test_whitens_dataset(self, sample_csv, tmp_path):
        model = tmp_path / "full.json"
        out = tmp_path / "white.csv"
        svg = tmp_path / "white.svg"
        assert run(["fit", "--input", str(sample_csv), "--family", "full",
                    "--output", str(model)]) == 0
        assert run(["transform", "--input", str(sample_csv), "--model", str(model),
                    "--output", str(out), "--plot", str(svg)]) == 0
        white = read_points_csv(out)
        mom = estimate_moments(white)
        assert np.abs(mom.mean).max() < 1e-9
        assert np.abs(mom.cov - np.eye(2)).max() < 1e-9
        text = svg.read_text()
        assert text.startswith("<svg ")
        assert text.count("<circle") == white.shape[0]
        assert text.count("<line") == 2

    def test_indefinite_model_is_named(self, sample_csv, tmp_path, capsys):
        # the same message as score gives for this model
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({
            "schema_version": "1", "family": "full", "fixed_mean": None, "mean": [0.0, 0.0],
            "covariance": [[1.0, 2.0], [2.0, 1.0]], "match": 0.0, "cross_entropy": 0.0,
        }))
        for command in (["transform", "--output", str(tmp_path / "w.csv")], ["score"]):
            code = run(command + ["--input", str(sample_csv), "--model", str(model)])
            assert code == 2
            assert capsys.readouterr().err.startswith(
                "error: model covariance is singular at working precision"
            ), command
        assert not (tmp_path / "w.csv").exists()

    def test_univariate_plot(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("-1\n0\n1\n2\n")
        model = tmp_path / "m.json"
        svg = tmp_path / "p.svg"
        assert run(["fit", "--input", str(pts), "--family", "full", "--output", str(model)]) == 0
        assert run(["transform", "--input", str(pts), "--model", str(model),
                    "--output", str(tmp_path / "w.csv"), "--plot", str(svg)]) == 0
        assert svg.read_text().count("<circle") == 4

    def test_overflow_is_a_data_error(self, tmp_path):
        # whitening 1e300-sized points with a 1e-250 covariance overflows;
        # under warnings as errors it is still exit 2, one line and no file
        pts = tmp_path / "huge.csv"
        pts.write_text("1e300,-1e300\n-1e300,1e300\n5e299,-5e299\n")
        model = tmp_path / "tiny.json"
        model.write_text(json.dumps({
            "schema_version": "1", "family": "full", "fixed_mean": None, "mean": [0.0, 0.0],
            "covariance": [[1e-250, 0.0], [0.0, 1e-250]], "match": 0.0, "cross_entropy": 0.0,
        }))
        out = tmp_path / "w.csv"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gaussmatch.cli", "transform",
             "--input", str(pts), "--model", str(model), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == "error: transformed points overflow the float range\n"
        assert not out.exists()

    def test_plot_whose_range_overflows_is_a_data_error(self, tmp_path):
        # the drawn range 1e308 - (-1e308) is beyond the float range; under
        # warnings as errors it is exit 2, one line, and neither file
        pts = tmp_path / "wide.csv"
        pts.write_text("1e308,0\n-1e308,1\n0,2\n")
        model = tmp_path / "unit.json"
        model.write_text(json.dumps(dict(_VALID_DOC, mean=[0.0, 0.0],
                                         covariance=[[1.0, 0.0], [0.0, 1.0]])))
        out, svg = tmp_path / "w.csv", tmp_path / "w.svg"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gaussmatch.cli", "transform", "--input",
             str(pts), "--model", str(model), "--output", str(out), "--plot", str(svg)],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (
            2, "error: points are too far apart to plot within the float range\n"
        )
        assert not out.exists() and not svg.exists()


    def test_plot_that_cannot_be_opened_keeps_an_existing_points_file(
        self, sample_csv, tmp_path, capsys
    ):
        model, keep = tmp_path / "m.json", tmp_path / "keep.csv"
        assert run(["fit", "--input", str(sample_csv), "--family", "full",
                    "--output", str(model)]) == 0
        keep.write_text("1,2\n")
        assert run(["transform", "--input", str(sample_csv), "--model", str(model), "--output",
                    str(keep), "--plot", str(tmp_path / "missing" / "p.svg")]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert keep.read_text() == "1,2\n"

    @pytest.mark.parametrize("case", ["malformed", "singular"])
    def test_a_bad_model_is_reported_before_bad_points(self, tmp_path, capsys, case):
        # the model is read, and its whitening map built, before the points:
        # a malformed or a missing points file is not the error reported
        model, pts, out = tmp_path / "m.json", tmp_path / "p.csv", tmp_path / "w.csv"
        if case == "malformed":
            model.write_text("{")
            pts.write_text("1,2\n3,x\n")
            message = "error: invalid JSON in model file"
        else:
            model.write_text(json.dumps(dict(_VALID_DOC, covariance=[[1.0, 0.0], [0.0, 0.0]])))
            message = "error: model covariance is singular at working precision"
        assert run(["transform", "--input", str(pts), "--model", str(model),
                    "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


_RUN_CLI = "import sys\nfrom gaussmatch import cli\nsys.exit(cli.run(sys.argv[1:]))\n"


class TestFailedWrite:
    """A write that a file size limit ends part way, as a full disk would, is
    exit 2 with one line, and leaves no file behind."""

    def _check(self, limit, argv, *outputs):
        result = run_with_file_size_limit(limit, _RUN_CLI, *argv)
        assert (result.returncode, result.stderr) == (2, "error: [Errno 27] File too large\n")
        assert [path for path in outputs if path.exists()] == []

    def test_fit_model(self, tmp_path):
        # a 30-dimensional full fit is a model JSON of about 26 KB
        points, model = tmp_path / "p.csv", tmp_path / "m.json"
        write_points_csv(np.random.default_rng(5).normal(size=(40, 30)), points)
        self._check(20_000, ["fit", "--input", points, "--family", "full", "--output", model],
                    model)

    def test_report_output(self, sample_csv, tmp_path):
        # the table of about 400 bytes fails at the flush when the file is closed
        table = tmp_path / "table.txt"
        self._check(200, ["report", "--input", sample_csv, "--output", table], table)

    def test_transform_plot(self, sample_csv, tmp_path):
        # the points (about 78 KB) are written, the plot (about 152 KB) is not
        model, out, svg = tmp_path / "m.json", tmp_path / "w.csv", tmp_path / "w.svg"
        assert run(["fit", "--input", str(sample_csv), "--family", "full",
                    "--output", str(model)]) == 0
        self._check(100_000, ["transform", "--input", sample_csv, "--model", model,
                              "--output", out, "--plot", svg], out, svg)


@pytest.fixture(scope="module")
def ranged_data(tmp_path_factory):
    """The bytes of a CSV of 30 000 points of dimension 8, about 4.8 MB, or
    five ranges, and of its full fit."""
    folder = tmp_path_factory.mktemp("ranged")
    points = np.random.default_rng(21).normal(size=(30_000, 8)) @ np.triu(np.ones((8, 8)))
    write_points_csv(points, folder / "p.csv")
    assert len(ingest._ranges(folder / "p.csv")) == 5
    assert run(["fit", "--input", str(folder / "p.csv"), "--family", "full",
                "--output", str(folder / "m.json")]) == 0
    return (folder / "p.csv").read_bytes(), (folder / "m.json").read_bytes()


def _ranged_files(folder, ranged_data):
    """The ranged CSV and its fit in ``folder``, and an output file that holds other text."""
    source, model, existing = folder / "p.csv", folder / "m.json", folder / "existing.csv"
    for path, data in zip((source, model), ranged_data):
        path.write_bytes(data)
    existing.write_text("kept\n", encoding="utf-8")
    return source, model, existing


def _ranged_commands(source, model, output):
    return {
        "report": ["report", "--input", str(source), "--output", str(output)],
        "fit": ["fit", "--input", str(source), "--family", "full", "--output", str(output)],
        "score": ["score", "--input", str(source), "--model", str(model)],
        "transform": ["transform", "--input", str(source), "--model", str(model),
                      "--output", str(output)],
    }


def _last_row_faults(data: bytes) -> dict[str, bytes]:
    """Copies of a CSV with a fault in its last row, by kind."""
    head, last = data[:-1].rsplit(b"\n", 1)
    fields = last.split(b",")
    return {
        "malformed": head + b"\n" + last + b"x\n",
        "not finite": head + b"\n" + b",".join([b"nan", *fields[1:]]) + b"\n",
        "field count": head + b"\n" + last + b",0\n",
        "not UTF-8": head + b"\n" + last[:3] + b"\xff" + last[3:] + b"\n",
    }


class TestRangedReads:
    """The points commands read a file of several ranges on every CPU, and
    fail as a read of the whole file fails, leaving no output and no child."""

    @pytest.mark.parametrize("fault", ["malformed", "not finite", "field count", "not UTF-8"])
    @pytest.mark.parametrize("command", ["report", "fit", "score", "transform"])
    def test_error_in_the_last_range(self, ranged_data, tmp_path, two_cpus, capsys, fault,
                                     command):
        source, model, existing = _ranged_files(tmp_path, ranged_data)
        data = source.read_bytes()
        source.write_bytes(_last_row_faults(data)[fault])
        with pytest.raises(ParseError) as caught:
            read_points_csv(source)
        assert caught.value.line == data.count(b"\n")
        capsys.readouterr()
        assert run(_ranged_commands(source, model, existing)[command]) == 2
        assert capsys.readouterr() == ("", f"error: {caught.value}\n")
        assert existing.read_text(encoding="utf-8") == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "existing.csv", "m.json", "p.csv"]
        nothing_left()

    @pytest.mark.parametrize("command", ["report", "fit", "score", "transform"])
    def test_killed_reader_is_an_error(self, ranged_data, tmp_path, two_cpus, monkeypatch, capsys,
                                       command):
        source, model, existing = _ranged_files(tmp_path, ranged_data)
        spans = ingest._ranges(source)
        parent, range_points = os.getpid(), ingest._range_points

        def killed(span):
            # the child that reads range 2, its second, dies at a signal
            if os.getpid() != parent and span == spans[2]:
                os.kill(os.getpid(), signal.SIGKILL)
            return range_points(span)

        monkeypatch.setattr(ingest, "_range_points", killed)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert run(_ranged_commands(source, model, existing)[command]) == 2
        assert fork.call_count == 2
        assert capsys.readouterr() == ("", f"error: {_pool._WORKER_ENDED} -9\n")
        assert existing.read_text(encoding="utf-8") == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "existing.csv", "m.json", "p.csv"]
        nothing_left()

    def test_transform_over_its_input(self, ranged_data, tmp_path, two_cpus):
        source, model, _ = _ranged_files(tmp_path, ranged_data)
        fresh = tmp_path / "w.csv"
        assert run(["transform", "--input", str(source), "--model", str(model),
                    "--output", str(fresh)]) == 0
        assert run(["transform", "--input", str(source), "--model", str(model),
                    "--output", str(source)]) == 0
        assert source.read_bytes() == fresh.read_bytes()
        nothing_left()

    @pytest.mark.parametrize("command", ["fit", "transform"])
    def test_written_in_place_with_its_mode(self, ranged_data, tmp_path, two_cpus, command):
        # a symbolic link's target, and /dev/stdout sent to a file, are
        # written in place, with the bytes of a new file, and keep their mode
        source, model, _ = _ranged_files(tmp_path, ranged_data)
        fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
        assert run(_ranged_commands(source, model, fresh)[command]) == 0
        target.write_text("old\n", encoding="utf-8")
        target.chmod(0o640)
        link.symlink_to(target)
        assert run(_ranged_commands(source, model, link)[command]) == 0
        assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
        target.write_text("old\n", encoding="utf-8")
        with target.open("w") as stdout:
            result = subprocess.run(
                [sys.executable, "-c", _RUN_CLI,
                 *_ranged_commands(source, model, "/dev/stdout")[command]],
                stdout=stdout, stderr=subprocess.PIPE, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert target.read_bytes() == fresh.read_bytes()
        assert target.stat().st_mode & 0o777 == 0o640
        nothing_left()

    def test_an_output_error_is_not_retried(self, ranged_data, tmp_path):
        # a write that fails at a file size limit is the error, and the
        # file is not read whole to meet it again
        source, model, existing = _ranged_files(tmp_path, ranged_data)
        code = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from gaussmatch import ingest\n"
            "def whole(source):\n"
            "    raise SystemExit('read whole')\n"
            "ingest.read_points_csv = whole\n"
        ) + _RUN_CLI
        result = run_with_file_size_limit(
            10**6, code, *_ranged_commands(source, model, existing)["transform"])
        assert (result.returncode, result.stderr) == (2, "error: [Errno 27] File too large\n")
        assert existing.read_text(encoding="utf-8") == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "existing.csv", "m.json", "p.csv"]


# Runs the command line of its arguments and prints its exit code and its
# peak resident set in KiB, that of the children it waited for included.
# It is a small fresh interpreter, as Linux starts a child's ru_maxrss at
# that of the process it was forked from.
_PEAK = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "child.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(child.returncode, usage.ru_maxrss)\n"
)


def _peak_mb(argv, folder) -> float:
    """Peak resident set of ``gaussmatch`` run with ``argv`` in ``folder``, in MB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(ingest.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", _PEAK, sys.executable, "-m", "gaussmatch.cli",
                             *argv], capture_output=True, text=True, cwd=folder, env=env)
    code, kib = result.stdout.split()
    assert (code, result.stderr) == ("0", "")
    return int(kib) / 1024


class TestPeakMemory:
    """No points command holds the point set: on 360 000 points of dimension
    3, 8.6 MB as a float64 array, each peaks within 3 MB of itself on 10."""

    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory):
        rng = np.random.default_rng(70)
        peaks = {}
        for size, shape in (("large", (600, 600, 3)), ("small", (2, 5, 3))):
            folder = tmp_path_factory.mktemp(size)
            pixels = rng.integers(0, 256, shape).astype(np.uint16)
            write_ppm(Raster(pixels=pixels, maxval=255), folder / "image.ppm")
            commands = {
                "image-blocks": ["image-blocks", "--input", "image.ppm", "--block", "1",
                                 "--output", "points.csv"],
                "report": ["report", "--input", "points.csv", "--output", "table.txt"],
                "fit": ["fit", "--input", "points.csv", "--family", "full", "--output", "m.json"],
                "transform": ["transform", "--input", "points.csv", "--model", "m.json",
                              "--output", "white.csv"],
            }
            peaks[size] = {name: _peak_mb(argv, folder) for name, argv in commands.items()}
            assert pixels.size * 8 >= (8e6 if size == "large" else 0)
            assert len(read_points_csv(folder / "white.csv")) == pixels.size // 3
        return peaks

    @pytest.mark.parametrize("command", ["image-blocks", "report", "fit", "transform"])
    def test_within_3_mb_of_ten_points(self, peaks, command):
        assert peaks["large"][command] <= peaks["small"][command] + 3.0, peaks


class TestReport:
    def test_text_table(self, sample_csv, capsys):
        assert run(["report", "--input", str(sample_csv), "--means", "mean;0;3,4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split()[:2] == ["family", "mean"]
        families = [line.split()[0] for line in lines[1:]]
        assert families == [
            "full",
            "fixed-mean", "fixed-mean", "fixed-mean",
            "isotropic",
            "fixed-mean-isotropic", "fixed-mean-isotropic", "fixed-mean-isotropic",
            "diagonal",
            "fixed-mean-diagonal", "fixed-mean-diagonal", "fixed-mean-diagonal",
        ]

    def test_csv_format_and_nesting(self, sample_csv, tmp_path):
        out_path = tmp_path / "report.csv"
        assert run(["report", "--input", str(sample_csv), "--means", "0",
                    "--format", "csv", "--output", str(out_path)]) == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        value = {(r["family"], r["mean"]): float(r["match"]) for r in rows}
        assert value[("full", "-")] <= value[("fixed-mean", "0")] + 1e-9
        assert value[("fixed-mean", "0")] <= value[("fixed-mean-diagonal", "0")] + 1e-9
        assert value[("fixed-mean-diagonal", "0")] <= value[("fixed-mean-isotropic", "0")] + 1e-9
        assert value[("full", "-")] <= value[("diagonal", "-")] + 1e-9
        assert value[("diagonal", "-")] <= value[("isotropic", "-")] + 1e-9

    def test_rows_are_family_report_with_labels(self, sample_csv, capsys):
        assert run(["report", "--input", str(sample_csv), "--means", "0.5;mean;1,-2",
                    "--format", "csv"]) == 0
        table = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        moments = estimate_moments(read_points_csv(sample_csv))
        rows = family_report(moments, [np.full(2, 0.5), moments.mean, np.array([1.0, -2.0])])
        assert [(r[0], r[2], r[3]) for r in table] == [
            (row.family.kind.value, repr(row.match), repr(row.cross_entropy)) for row in rows
        ]
        assert [(r[0], r[1]) for r in table if r[1] != "-"] == [
            (family, label)
            for family in ("fixed-mean", "fixed-mean-isotropic", "fixed-mean-diagonal")
            for label in ("0.5", "mean", "1,-2")
        ]

    def test_default_means_is_data_mean(self, sample_csv, capsys):
        assert run(["report", "--input", str(sample_csv)]) == 0
        out = capsys.readouterr().out
        fm_line = [l for l in out.splitlines() if l.startswith("fixed-mean ")][0]
        assert fm_line.split()[1] == "mean"
        assert float(fm_line.split()[2]) == pytest.approx(0.0, abs=1e-12)

    def test_mean_token_errors(self, sample_csv, capsys):
        assert run(["report", "--input", str(sample_csv), "--means", "zero"]) == 1
        assert run(["report", "--input", str(sample_csv), "--means", "1,2,3"]) == 2
        assert run(["report", "--input", str(sample_csv), "--means", ";"]) == 1
        capsys.readouterr()

    def test_mean_of_wrong_dimension_is_the_library_error(self, sample_csv):
        # the CLI only parses --means; the pinned-mean check of the library reports it
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "report", "--input", str(sample_csv),
             "--means", "mean;1,2,3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == "error: fixed mean has dimension 3, data has dimension 2\n"


class TestImageBlocks:
    def test_blocks_csv_feeds_report(self, tmp_path, capsys):
        from gaussmatch import Raster, write_ppm

        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(24, 32, 3)).astype(np.uint16)
        img = tmp_path / "img.ppm"
        write_ppm(Raster(pixels=pixels, maxval=255), img)
        blocks_csv = tmp_path / "blocks.csv"
        # block 2: 12x16 tiles of dimension 12, enough points for a full-rank cov
        assert run(["image-blocks", "--input", str(img), "--output", str(blocks_csv),
                    "--block", "2"]) == 0
        blocks = read_points_csv(blocks_csv)
        assert blocks.shape == (192, 12)
        assert run(["report", "--input", str(blocks_csv), "--means", "mean;0.5"]) == 0
        capsys.readouterr()

    def test_custom_block_size(self, tmp_path):
        from gaussmatch import Raster, write_ppm

        pixels = np.zeros((8, 8, 3), dtype=np.uint16)
        img = tmp_path / "img.ppm"
        write_ppm(Raster(pixels=pixels, maxval=255), img)
        out = tmp_path / "b.csv"
        assert run(["image-blocks", "--input", str(img), "--output", str(out),
                    "--block", "4"]) == 0
        assert read_points_csv(out).shape == (4, 48)

    def test_sample_above_maxval_is_data_error(self, tmp_path):
        img = tmp_path / "bright.ppm"
        img.write_bytes(b"P6 8 8 100\n" + bytes([200]) * (8 * 8 * 3))
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "image-blocks", "--input", str(img),
             "--output", str(tmp_path / "o.csv")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == "error: sample value 200 exceeds maxval 100\n"
        assert not (tmp_path / "o.csv").exists()

    def test_bad_image_is_data_error(self, tmp_path, capsys):
        img = tmp_path / "bad.ppm"
        img.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        assert run(["image-blocks", "--input", str(img), "--output",
                    str(tmp_path / "o.csv")]) == 2
        capsys.readouterr()


class TestVerify:
    def test_small_verify_passes(self, capsys):
        assert run(["verify", "--dims", "2", "--trials", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out
        assert out.count(" ok") == 6

    def test_failed_verification_exits_3(self, monkeypatch, capsys):
        def fake_verify(**kwargs):
            return [
                FamilyCheck(
                    family=Family.FULL, trials=1, max_abs_diff=1.0,
                    worst_margin=-1.0, passed=False,
                )
            ]

        monkeypatch.setattr("gaussmatch.cli.verify_families", fake_verify)
        assert run(["verify", "--trials", "1"]) == 3
        assert "verification FAILED" in capsys.readouterr().out

    def test_bad_dims_is_usage_error(self, capsys):
        assert run(["verify", "--dims", "4..1"]) == 1
        assert run(["verify", "--dims", "abc"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["1..1000000", "-1000000..2"])
    def test_huge_dims_range_is_data_error(self, text, capsys):
        # the range is clamped before it is expanded, and still fails the bounds check
        assert len(_dims(text)) <= 10
        assert run(["verify", f"--dims={text}"]) == 2
        assert capsys.readouterr().err == "error: dims must lie in 1..8\n"

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_is_data_error(self, seed):
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "verify", "--dims", "1", "--trials", "1",
             f"--seed={seed}"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == f"error: seed must be an integer in 0..2**64-1, got {seed}\n"
        assert result.stdout == ""

    def test_trials_above_bound_is_data_error(self):
        # an unbounded count built datasets until the process was killed
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "verify", "--trials", str(10**20)],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert result.stderr == "error: trials must be at most 10000\n"
        assert result.stdout == ""


class TestScatterSvg:
    def test_unit_cross_present(self):
        text = scatter_svg(np.array([[0.0, 0.0], [2.0, 1.0]]))
        assert text.count("<line") == 2
        assert text.count("<circle") == 2

    def test_rejects_empty(self):
        from gaussmatch import InvalidInputError

        with pytest.raises(InvalidInputError):
            scatter_svg(np.empty((0, 2)))

    @pytest.mark.parametrize("points", [[[1.0], [1.0, 2.0]], "abc"], ids=["ragged", "text"])
    def test_rejects_what_is_not_an_array_of_numbers(self, points):
        from gaussmatch import InvalidInputError

        with pytest.raises(InvalidInputError, match="^points is not an array of numbers$"):
            scatter_svg(points)


class TestBadCsvInput:
    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff\xfe1,2\n3,4\n5,6\n", 1),
            (b"1,2\n3,4\n5,\xe96\n", 3),
            (b"1x,2\n3,4\n5,7\n", 1),
            (b"1,2\nnan,4\n5,7\n", 2),
            (b"x,y\n1,2\n3,inf\n", 3),
            (b"\xef\xbb\xbfx,y\n1,2\n3,4\n5,x\n", 4),
        ],
    )
    def test_exit_2_naming_the_line(self, tmp_path, data, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "report", "--input", str(path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: line {line}: ")
        assert "Traceback" not in result.stderr

    def test_lone_cr_chunk_keeps_the_whole_file_error(self, tmp_path):
        # the last chunk read is the lone CR that ends a line with a cut
        # character: the line is decoded with its end, as in the whole text
        data = b"1,2\n" * 16383 + b"3,\xe2\x82\r"
        assert len(data) == ingest._CHUNK_SIZE + 1
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as caught:
            data.decode("utf-8")
        at, reason = caught.value.start, caught.value.reason
        lines = data.replace(b"\r", b"\n").count(b"\n", 0, at) + 1
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "report", "--input", str(path)],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (
            2, f"error: line {lines}: text is not UTF-8 (byte 0x{data[at]:02x}: {reason})\n"
        )


def _bad_model_files(valid: dict) -> dict[str, bytes]:
    huge_match = dict(valid, match=10**400)
    huge_mean = dict(valid, mean=[10**400] + valid["mean"][1:])
    return {
        "not-utf8": b"\xff\xfe{}",
        "nested": b"[" * 100_000 + b"]" * 100_000,
        "huge-match": json.dumps(huge_match).encode(),
        "huge-mean": json.dumps(huge_mean).encode(),
        "long-integer": b'{"match": ' + b"1" * 5000 + b"}",
    }


@pytest.fixture(scope="module")
def tall_csv(tmp_path_factory):
    """A CSV of 10**5 correlated 3-D points, 2.4 MB as an array, and its full fit."""
    folder = tmp_path_factory.mktemp("tall")
    rng = np.random.default_rng(61)
    write_points_csv(rng.normal(size=(10**5, 3)) @ np.triu(np.ones((3, 3))), folder / "pts.csv")
    assert run(["fit", "--input", str(folder / "pts.csv"), "--family", "full",
                "--output", str(folder / "full.json")]) == 0
    return folder


class TestOneCopyOfThePoints:
    """Once the points are read, a command holds no second array of them."""

    @pytest.mark.parametrize("command", [
        ["report", "--output", "{out}/table.txt"],
        ["fit", "--family", "full", "--output", "{out}/fit.json"],
        ["score", "--model", "{data}/full.json"],
        ["transform", "--model", "{data}/full.json", "--output", "{out}/white.csv"],
    ], ids=lambda command: command[0])
    def test_traced_peak_after_the_read(self, tall_csv, tmp_path, monkeypatch, command):
        # Numpy reports its buffers to tracemalloc.  The peak is reset as the
        # reader returns, so that its own growth, bounded in test_ingest, is
        # not counted.  A second array of the points would take the peak to
        # twice their size; the allowance holds the 3x3 algebra, the bools of
        # the finiteness checks (an eighth of the points) and one block of the
        # writer, made small here so that the points outweigh it.
        read, size = cli.read_points_csv, 10**5 * 3 * 8

        def read_then_reset(source):
            points = read(source)
            tracemalloc.reset_peak()
            return points

        monkeypatch.setattr(cli, "read_points_csv", read_then_reset)
        monkeypatch.setattr(ingest, "BLOCK_CELLS", 2**10)
        argv = [part.format(out=tmp_path, data=tall_csv) for part in command]
        tracemalloc.start()
        try:
            assert run(argv + ["--input", str(tall_csv / "pts.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size + 2**19


class TestBadModelInput:
    def test_byte_order_mark_is_skipped(self, sample_csv, tmp_path, capsys):
        # a model file is read as a points CSV is
        model = tmp_path / "m.json"
        assert run(["fit", "--input", str(sample_csv), "--family", "isotropic",
                    "--output", str(model)]) == 0
        assert run(["score", "--input", str(sample_csv), "--model", str(model)]) == 0
        plain = capsys.readouterr().out
        model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        assert run(["score", "--input", str(sample_csv), "--model", str(model)]) == 0
        assert capsys.readouterr().out == plain

    def test_not_utf8_names_the_line(self, sample_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_bytes(b'{\r\n  "family": "\xff"\r\n}\r\n')
        assert run(["score", "--input", str(sample_csv), "--model", str(model)]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: text is not UTF-8 (byte 0xff: invalid start byte)\n"
        )

    @pytest.mark.parametrize("case", ["not-utf8", "nested", "huge-match", "huge-mean",
                                      "long-integer"])
    def test_exit_2_without_traceback(self, sample_csv, tmp_path, case):
        good = tmp_path / "good.json"
        assert run(["fit", "--input", str(sample_csv), "--family", "full",
                    "--output", str(good)]) == 0
        model = tmp_path / "bad.json"
        model.write_bytes(_bad_model_files(json.loads(good.read_text()))[case])
        for extra in (["score"], ["transform", "--output", str(tmp_path / "w.csv")]):
            result = subprocess.run(
                [sys.executable, "-m", "gaussmatch.cli", *extra, "--input", str(sample_csv),
                 "--model", str(model)],
                capture_output=True, text=True,
            )
            assert result.returncode == 2, (extra, result.stderr)
            assert result.stderr.startswith("error: ")
            assert "Traceback" not in result.stderr


_VALID_DOC = {
    "schema_version": "1", "family": "full", "fixed_mean": None, "mean": [1.0, 2.0],
    "covariance": [[2.0, 0.5], [0.5, 1.0]], "match": 0.0, "cross_entropy": 3.0,
}
_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
        st.sampled_from([10**400, -(10**400), 2**1024, 1e308, -1e308, 5e-324]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=10,
)
_field_values = st.one_of(
    _json_values,
    st.sampled_from([
        "1", "full", "fixed-mean", "isotropic", "fixed-mean-diagonal",
        [0.0, 0.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [[1.0], [2.0, 3.0]],  # ragged
        [[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]],  # not SPD
        [[1.0, 3.0], [0.0, 1.0]], [[1e308, 1e308], [1e308, 1e308]], [[1e-300, 0.0], [0.0, 1.0]],
    ]),
)


_OVERFLOWING_COV_DOC = dict(_VALID_DOC, covariance=[[1e308, 1e308], [1e308, 1e308]])


class TestOverflowingCovariance:
    """A covariance whose symmetrized sum overflows is refused when the model is built."""

    def test_library_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GaussMatchError, match="overflow"):
                fit_from_document(_OVERFLOWING_COV_DOC)

    def test_cli_exit_2_under_warnings_as_errors(self, sample_csv, tmp_path):
        model = tmp_path / "huge.json"
        model.write_text(json.dumps(_OVERFLOWING_COV_DOC), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gaussmatch.cli", "score",
             "--input", str(sample_csv), "--model", str(model)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and "overflow" in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr


class TestScoreOverflow:
    """A model whose score overflows the float range is one data error, without a warning."""

    @pytest.mark.parametrize("changes, message", [
        ({"mean": [1e300, -1e300]},
         "model is so far from the data that its score overflows the float range"),
        ({"covariance": [[1e-310, 0.0], [0.0, 1e-310]]},
         "inverse of the model covariance overflows the float range"),
    ], ids=["far-mean", "subnormal-covariance"])
    def test_exit_2_under_warnings_as_errors(self, tmp_path, changes, message):
        points, model = tmp_path / "p.csv", tmp_path / "m.json"
        points.write_text("1,0\n-1,0\n0,1\n0,-1\n")
        model.write_text(json.dumps({**_VALID_DOC, **changes}))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gaussmatch.cli", "score",
             "--input", str(points), "--model", str(model)],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr, result.stdout) == (2, f"error: {message}\n", "")


class TestFarPinnedMean:
    """A pinned mean whose fit overflows the float range is one data error,
    without a warning, and no file is written."""

    @pytest.mark.parametrize("command", [
        ["fit", "--family", "fixed-mean-isotropic", "--mean", "1e-320,1e300"],
        ["report", "--means", "1e300"],
        ["fit", "--family", "fixed-mean-diagonal", "--mean", "1.3e154,0"],
    ], ids=["fit", "report", "fit-symmetrized"])
    def test_exit_2_under_warnings_as_errors(self, tmp_path, command):
        points, out = tmp_path / "p.csv", tmp_path / "out"
        write_points_csv(np.random.default_rng(1).normal(size=(40, 2)), points)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gaussmatch.cli", *command,
             "--input", str(points), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr == (
            "error: fixed mean is so far from the data that its fit overflows the float range\n"
        )
        assert not out.exists()

    def test_isotropic_scale_near_the_float_maximum_fits(self, tmp_path):
        points, out = tmp_path / "p.csv", tmp_path / "model.json"
        write_points_csv(np.random.default_rng(1).normal(size=(40, 2)), points)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gaussmatch.cli", "fit",
             "--family", "fixed-mean-isotropic", "--mean", "1.3e154,0",
             "--input", str(points), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        doc = json.loads(out.read_text())
        assert math.isclose(doc["covariance"][0][0], 8.45e307, rel_tol=1e-3)
        assert math.isfinite(doc["match"])


class TestHugePoints:
    """Finite points so large that their covariance overflows the float range
    are one data error, without a warning, and no file is written."""

    @pytest.mark.parametrize("command", ["report", "fit", "score"])
    def test_exit_2_under_warnings_as_errors(self, tmp_path, command):
        points, model, out = tmp_path / "p.csv", tmp_path / "m.json", tmp_path / "out.json"
        write_points_csv(np.random.default_rng(1).normal(size=(40, 2)) * 1e160, points)
        model.write_text(json.dumps(_VALID_DOC))
        options = {"report": [], "fit": ["--family", "full", "--output", str(out)],
                   "score": ["--model", str(model)]}[command]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gaussmatch.cli", command,
             "--input", str(points), *options],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stderr, result.stdout) == (
            2, "error: points are too large: their covariance overflows the float range\n", ""
        )
        assert not out.exists()


class TestModelDocumentFuzz:
    """Any JSON value, read as a model and then scored, raises only package errors."""

    @given(
        st.dictionaries(st.sampled_from(sorted(_VALID_DOC)), _field_values, max_size=4),
        st.sets(st.sampled_from(sorted(_VALID_DOC)), max_size=2),
    )
    @example({"match": 10**400}, set())
    @example({"mean": [10**400, 0.0]}, set())
    @example({"covariance": [[1.0, 2.0], [2.0, 1.0]]}, set())
    def test_only_package_errors_escape(self, changes, dropped):
        doc = {key: value for key, value in {**_VALID_DOC, **changes}.items()
               if key not in dropped}
        moments = estimate_moments([[0.0, 1.0], [2.0, 1.5], [1.0, 3.0]])
        try:
            stored = fit_from_document(doc)
            match_score(moments, stored.model)
            cross_entropy(moments, stored.model)
        except GaussMatchError:
            pass

    @given(_json_values.filter(lambda value: not isinstance(value, dict)))
    def test_non_object_is_parse_error(self, doc):
        with pytest.raises(ParseError):
            fit_from_document(doc)


class TestEntryPoint:
    def test_no_command_loads_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "import gaussmatch.cli as cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            "assert cli.run(['synth', '--mean', '0,0', '--cov', '1,0;0,1', '--count', '50',\n"
            "                '--output', sys.argv[1]]) == 0\n"
            "for family in ('full', 'fixed-mean'):\n"
            "    extra = ['--mean', '1,1'] if family == 'fixed-mean' else []\n"
            "    assert cli.run(['fit', '--input', sys.argv[1], '--family', family,\n"
            "                    '--output', sys.argv[2]] + extra) == 0\n"
            "assert 'scipy' not in sys.modules, 'fit'\n"
            "assert cli.run(['verify', '--dims', '2', '--trials', '1']) == 0\n"
            "assert 'scipy' not in sys.modules, 'verify'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "p.csv"), str(tmp_path / "m.json")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "verification passed" in result.stdout

    def test_import_loads_no_multiprocessing(self, tmp_path):
        # no command imports it, nor does the start-up the benchmark times
        # as setup_s.  On two CPUs, with ranges of 256 KiB, the fit and the
        # transform of 10**4 points of dimension 8, about seven ranges, each
        # fork two workers for the ranges, and verify forks a worker for its
        # fits; none needs multiprocessing.
        write_points_csv(np.random.default_rng(5).normal(size=(200, 2)), tmp_path / "p.csv")
        write_points_csv(np.random.default_rng(5).normal(size=(10**4, 8)), tmp_path / "big.csv")
        script = (
            "import os, sys\n"
            "import gaussmatch.cli as cli\n"
            "import gaussmatch.ingest\n"
            "gaussmatch.ingest._RANGE_SIZE = 2**18\n"
            "p, m, w, big, bigm, bigw = sys.argv[1:]\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, forks = os.fork, []\n"
            "def counted():\n"
            "    forks.append(None)\n"
            "    return fork()\n"
            "os.fork = counted\n"
            "loaded = [sorted(x for x in sys.modules if x.startswith('multiprocessing'))]\n"
            "for argv in (['fit', '--input', p, '--family', 'full', '--output', m],\n"
            "             ['transform', '--input', p, '--model', m, '--output', w],\n"
            "             ['report', '--input', p],\n"
            "             ['fit', '--input', big, '--family', 'full', '--output', bigm],\n"
            "             ['transform', '--input', big, '--model', bigm, '--output', bigw],\n"
            "             ['verify', '--dims', '1..2', '--trials', '2']):\n"
            "    if cli.run(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n"
            "    loaded.append(sorted(x for x in sys.modules if x.startswith('multiprocessing')))\n"
            "print(loaded, len(forks), file=sys.stderr)\n"
        )
        names = ("p.csv", "m.json", "w.csv", "big.csv", "bigm.json", "bigw.csv")
        result = subprocess.run(
            [sys.executable, "-c", script, *(str(tmp_path / n) for n in names)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == "[[], [], [], [], [], [], []] 5\n"
        assert read_points_csv(tmp_path / "w.csv").shape == (200, 2)
        assert read_points_csv(tmp_path / "bigw.csv").shape == (10**4, 8)

    def test_verify_runs_where_scipy_cannot_import(self):
        # a None entry in sys.modules makes every import of scipy fail
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import gaussmatch.cli as cli\n"
            "sys.exit(cli.run(['verify', '--dims', '1..2', '--trials', '1']))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "verification passed" in result.stdout

    def test_console_script_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        for name in ("fit", "score", "transform", "report", "image-blocks", "synth", "verify"):
            assert name in result.stdout

    def test_no_arguments_is_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "gaussmatch.cli"], capture_output=True, text=True
        )
        assert result.returncode == 1


# Each pair below has a call that could leave state in a shared parser, then
# one that would show it: a --mean that stays set, report options that stay
# chosen, a bad choice or a data error that leaves the next call broken.
_REUSE_SEQUENCE = (
    ["fit", "--input", "pts.csv", "--family", "fixed-mean", "--mean=0,0", "--output", "a.json"],
    ["fit", "--input", "pts.csv", "--family", "fixed-mean", "--output", "b.json"],
    ["report", "--input", "pts.csv", "--means", "mean;0.5", "--format", "csv"],
    ["report", "--input", "pts.csv"],
    ["fit", "--input", "pts.csv", "--family", "bogus", "--output", "c.json"],
    ["score", "--input", "pts.csv", "--model", "a.json"],
    ["fit", "--input", "pts.csv", "--family", "full", "--output", "full.json"],
    ["score", "--input", "bad.csv", "--model", "full.json"],
    ["transform", "--input", "pts.csv", "--model", "full.json", "--output", "w.csv"],
    ["fit", "--input", "pts.csv", "--family", "fixed-mean", "--mean=--", "--output", "d.json"],
)


def _fresh_process(argv, cwd):
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gaussmatch.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _files(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


class TestReusedParser:
    """run builds its parser once per process; calls after the first behave
    as the same call in a fresh process does."""

    @pytest.fixture()
    def workdirs(self, tmp_path, monkeypatch):
        # help text wraps at the terminal width, which is read when printed
        monkeypatch.setenv("COLUMNS", "80")
        dirs = tmp_path / "in-process", tmp_path / "fresh"
        for root in dirs:
            root.mkdir()
            write_points_csv(np.random.default_rng(3).normal(size=(200, 2)), root / "pts.csv")
            (root / "bad.csv").write_text("1,2\nx,3\n")
        return dirs

    def test_reused_parser_matches_a_fresh_process(self, workdirs, monkeypatch):
        inside, fresh = workdirs
        monkeypatch.chdir(inside)
        results = []
        for argv in _REUSE_SEQUENCE:
            results.append(_in_process(argv))
            fresh_result = _fresh_process(argv, fresh)
            assert results[-1] == (fresh_result.returncode, fresh_result.stdout,
                                   fresh_result.stderr), argv
            assert _files(inside) == _files(fresh), argv
        assert [code for code, _, _ in results] == [0, 1, 0, 0, 1, 0, 0, 2, 0, 1]
        assert "requires --mean" in results[1][2]
        assert results[3][1].startswith("family ") and "0.5" not in results[3][1]
        assert "invalid vector '--'" in results[-1][2]

    def test_help_exits_zero_and_the_next_call_works(self, workdirs, monkeypatch):
        inside, fresh = workdirs
        monkeypatch.chdir(inside)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
            run(["fit", "-h"])
        assert exit_info.value.code == 0
        result = _fresh_process(["fit", "-h"], fresh)
        assert result.returncode == 0
        assert out.getvalue() == result.stdout
        assert out.getvalue().startswith("usage: gaussmatch fit")
        assert _in_process(_REUSE_SEQUENCE[0]) == (0, "", "")

    def test_parser_is_built_once_per_process(self, sample_csv, tmp_path, monkeypatch):
        spy = mock.Mock(wraps=build_parser)
        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        model = str(tmp_path / "m.json")
        assert run(["fit", "--input", str(sample_csv), "--family", "full", "--output", model]) == 0
        assert _in_process(["score", "--input", str(sample_csv), "--model", model])[0] == 0
        assert _in_process(["report", "--input", str(sample_csv)])[0] == 0
        assert spy.call_count == 1

    def test_build_parser_returns_a_new_parser(self):
        first, second = build_parser(), build_parser()
        assert first is not second
        assert cli._parser() not in (first, second)
        assert cli._parser() is cli._parser()

    def test_import_builds_no_parser(self):
        # what the benchmark times as setup_s builds none; the first run builds
        # them all and later runs none
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(None)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import gaussmatch.cli as cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    cli.run(['bogus'])\n"
            "    counts.append(len(built))\n"
            "print(counts)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        none, first, second = json.loads(result.stdout)
        assert none == 0
        assert first == second > 0


def _cli_options():
    """Each subcommand of the CLI's own parser with its options."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
            for name, sub in commands.choices.items()}


_CLI_OPTIONS = _cli_options()
# Text that no option takes as written.
_HOSTILE = st.sampled_from(["", " ", "nan", "inf", "-inf", "1e999", "-1e999", ",", ";", ",;",
                            "1,", ";1", "-", "--", "x", "1..", "..", "0x10"])
_FIELD = st.sampled_from(["0", "1", "-2.5", "3", "0.5", "nan", "inf", "1e999", "", " ", "x"])
_VECTOR = st.lists(_FIELD, min_size=1, max_size=3).map(",".join)
# Well-formed values, two-dimensional where the data are.  Valid ones stay
# small (counts <= 10**4, dims <= 3, trials <= 2); larger ones lie above the
# bounds of the library, so that no example runs long.
_VALUES = {
    "mean": st.sampled_from(["3,4", "0,0", "-1,2", "1e-320,1e300"]),
    "cov": st.sampled_from(["1,0.3;0.3,0.6", "1,2;2,1", "1,0;0,0", "4,0;0,1e-300"]),
    "means": st.lists(st.sampled_from(["mean", "0.5", "-1,2", "1,2,3"]),
                      min_size=1, max_size=3).map(";".join),
    "count": st.one_of(st.integers(-3, 10**4), st.integers(2**60, 10**30)).map(str),
    "seed": st.one_of(st.integers(-3, 3), st.integers(2**64 - 2, 2**64 + 2),
                      st.integers(10**20, 10**30)).map(str),
    "trials": st.one_of(st.integers(-2, 2), st.integers(10_001, 10**30)).map(str),
    "block": st.one_of(st.integers(-2, 9), st.integers(10**6, 10**30)).map(str),
    "dims": st.one_of(st.sampled_from(["1", "2", "3", "1..3", "2,3", "1,1", "0", "3..1",
                                       "-1..2", "1..99"]),
                      st.integers(9, 10**30).map(str)),
}
# Malformed values beside the hostile text, for the options that parse lists.
_ROUGH = {
    "mean": st.just("2") | _VECTOR,
    "cov": st.just("2") | st.lists(_VECTOR, min_size=1, max_size=3).map(";".join),
    "means": st.lists(st.just("mean") | _VECTOR, min_size=1, max_size=3).map(";".join),
}
# Input files by name (see ``cli_files``); outputs are made per example.
_INPUTS = ("points", "model", "model3", "image", "empty", "bad", "dir", "missing")
_OUTPUTS = ("fresh", "dir", "missing-parent", "existing", "")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Input files of every kind the CLI reads, valid and not, by name."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    files = {name: root / name for name in _INPUTS}
    write_points_csv(sample_gaussian([3.0, 4.0], [[1.0, 0.3], [0.3, 0.6]], 40, 0),
                     files["points"])
    write_points_csv(sample_gaussian(np.zeros(3), np.eye(3), 40, 0), root / "points3")
    for model, points in (("model", "points"), ("model3", "points3")):
        assert run(["fit", "--input", str(root / points), "--family", "full",
                    "--output", str(files[model])]) == 0
    pixels = np.random.default_rng(0).integers(0, 256, (16, 16, 3)).astype(np.uint16)
    write_ppm(Raster(pixels=pixels, maxval=255), files["image"])
    files["empty"].write_text("")
    files["bad"].write_text("1,2\nx,3\n")
    files["dir"].mkdir()
    files["existing"] = root / "existing"
    files["existing"].write_text("kept\n")
    return files


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCommandLineFuzz:
    """Any command line built from the parser's own options ends in a documented
    exit code and message, never a traceback, and leaves no output behind an error."""

    @pytest.mark.parametrize("command", sorted(_CLI_OPTIONS))
    @settings(max_examples=100)
    @given(data=st.data())
    def test_exit_code_without_traceback(self, cli_files, command, data):
        # A clean command line has every required option and well-formed values,
        # so that it gets past argparse, and its inputs are valid; each output
        # is a fresh path or a directory.
        clean = data.draw(st.booleans())
        work = Path(tempfile.mkdtemp(dir=cli_files["dir"].parent))
        try:
            argv, fresh = [command], []
            for action in _CLI_OPTIONS[command]:
                # verify's default dims and trials would run the full check; a required
                # option is left out of 1 in 10 command lines that are not clean
                if action.dest in ("dims", "trials") or (clean and action.required):
                    pass
                elif not data.draw(st.integers(0, 9).map(lambda i: i < 9) if action.required
                                   else st.booleans()):
                    continue
                if action.dest in ("input", "model") and clean:
                    kind = "image" if command == "image-blocks" else "points"
                    value = str(cli_files["model" if action.dest == "model" else kind])
                elif action.dest in ("input", "model"):
                    # hostile text names no file in the working directory
                    value = data.draw(st.sampled_from(_INPUTS) | _HOSTILE)
                    value = str(cli_files[value]) if value in _INPUTS else value
                elif action.dest in ("output", "plot"):
                    kind = data.draw(st.sampled_from(_OUTPUTS[:2] if clean else _OUTPUTS))
                    paths = {"fresh": work / action.dest, "dir": cli_files["dir"],
                             "missing-parent": work / "missing" / action.dest,
                             "existing": cli_files["existing"], "": ""}
                    value = str(paths[kind])
                    if kind == "fresh":
                        fresh.append(paths[kind])
                elif action.choices:
                    unknown = () if clean else ("", "bogus")
                    value = data.draw(st.sampled_from([*action.choices, *unknown]))
                elif clean:
                    value = data.draw(_VALUES[action.dest])
                else:
                    value = data.draw(st.one_of(_VALUES[action.dest], _HOSTILE,
                                                _ROUGH.get(action.dest, _HOSTILE)))
                option = action.option_strings[0]
                argv += data.draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
            if not clean:
                argv += data.draw(st.sampled_from([[], ["--bogus"], ["extra"], ["--input"]]))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            stderr = err.getvalue()
            assert code in ((0, 1, 2, 3) if command == "verify" else (0, 1, 2)), (argv, code)
            assert "Traceback" not in stderr
            assert (code == 1) == stderr.startswith("usage error:"), (argv, code, stderr)
            if code == 2:
                assert stderr.startswith("error: "), (argv, stderr)
            if code != 0:
                assert [path for path in fresh if path.exists()] == [], (argv, code, stderr)
            assert cli_files["existing"].exists()
        finally:
            shutil.rmtree(work)
