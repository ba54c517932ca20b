"""Spans and call counters for the traced run of bench/run.py.

The spans are recorded from the benchmark's side of each layer boundary:
``patch_cli`` wraps the library functions that ``gaussmatch.cli`` calls,
so a traced ``cli.run`` yields one ``cli.<command>`` span with a child span
per call into ``ingest``, ``gaussians``, ``families`` or ``oracle``. Spans
stay in memory; ``Tracer.dump`` writes them out at the end.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans as [name, start, end, parent index, trace id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace_id = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.trace_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self, first: int = 0) -> dict[str, dict]:
        """Per span name from index ``first`` on: count, total and self seconds.

        Self time is a span's duration minus the durations of its children.
        """
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child_time[parent] += end - start
        for index in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[index]
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": self.spans, "totals": self.totals(), **extra}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


class Counters:
    """Counts numpy eigensolver calls and Nelder-Mead work, by wrapping them.

    ``install`` must run before gaussmatch is imported, because
    ``gaussmatch.oracle`` binds ``scipy.optimize.minimize`` at import.
    """

    def __init__(self):
        self.eigh_calls = 0
        self.nm_evaluations = 0
        self.nm_iterations = 0

    def install(self) -> None:
        import numpy.linalg
        import scipy.optimize

        def counting(fn):
            def counted(*args, **kwargs):
                self.eigh_calls += 1
                return fn(*args, **kwargs)

            return counted

        numpy.linalg.eigh = counting(numpy.linalg.eigh)
        numpy.linalg.eigvalsh = counting(numpy.linalg.eigvalsh)
        minimize = scipy.optimize.minimize

        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.nm_evaluations += int(result.nfev)
            self.nm_iterations += int(result.nit)
            return result

        scipy.optimize.minimize = counted_minimize

    def snapshot(self) -> tuple[int, int, int]:
        return self.eigh_calls, self.nm_evaluations, self.nm_iterations


# Names in gaussmatch.cli's namespace and the span each call is recorded as.
CLI_CALLS = {
    "read_points_csv": "ingest.read_points_csv",
    "write_points_csv": "ingest.write_points_csv",
    "read_ppm": "ingest.read_ppm",
    "image_to_blocks": "ingest.image_to_blocks",
    "sample_gaussian": "ingest.sample_gaussian",
    "estimate_moments": "gaussians.estimate_moments",
    "match_score": "gaussians.match_score",
    "cross_entropy": "gaussians.cross_entropy",
    "family_report": "families.family_report",
    "whitening_transform": "families.whitening_transform",
    "verify_families": "oracle.verify_families",
}


@contextmanager
def patch_cli(tracer: Tracer, cli, families, csv_bytes: list[int]):
    """Wrap the layer calls of ``gaussmatch.cli`` in spans while the block runs.

    ``csv_bytes[0]`` accumulates the size of every CSV file read or written.
    """
    saved = {name: getattr(cli, name) for name in (*CLI_CALLS, "fit") if hasattr(cli, name)}
    saved_apply = families.RescalingTransform.apply

    def sized(name, fn, position):
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if isinstance(args[position], (str, os.PathLike)):
                csv_bytes[0] += os.path.getsize(args[position])
            return result

        return traced

    def traced_fit(moments, spec, *args, **kwargs):
        with tracer.span(f"families.fit.{spec.kind.value}"):
            return saved["fit"](moments, spec, *args, **kwargs)

    for name, fn in saved.items():
        if name == "fit":
            wrapped = traced_fit
        elif name == "read_points_csv":
            wrapped = sized(CLI_CALLS[name], fn, 0)
        elif name == "write_points_csv":
            wrapped = sized(CLI_CALLS[name], fn, 1)
        else:
            wrapped = tracer.wrap(CLI_CALLS[name], fn)
        setattr(cli, name, wrapped)
    families.RescalingTransform.apply = tracer.wrap("families.transform_apply", saved_apply)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
        families.RescalingTransform.apply = saved_apply


def import_profile(stderr: str) -> dict[str, float]:
    """Seconds spent importing each top-level package, from ``-X importtime``.

    The output lists modules after their own imports, indented two spaces
    per level, so a module's importer is the next line of smaller depth. A
    package's time is the cumulative time of its modules whose importer
    belongs to another package.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, label = line.split("|", 2)
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        entries.append((depth, name.split(".")[0], int(cumulative) * 1e-6))
    seconds: dict[str, float] = {}
    for index, (depth, package, cumulative) in enumerate(entries):
        importer = next((e[1] for e in entries[index + 1 :] if e[0] < depth), None)
        if importer != package:
            seconds[package] = seconds.get(package, 0.0) + cumulative
    return seconds
