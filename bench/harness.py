"""Measurement plumbing shared by the benchmark's entry points.

Latency percentiles, an outside-in span tracer with self-time
arithmetic, peak-memory readings and the environment record. Importing
this module loads neither numpy nor qblotto, so the entry points can pin
BLAS threads and time the package import themselves.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Thread-count variables read by the BLAS builds numpy ships with. A
# pinned count keeps the scheduler's noise out of the timings on small
# machines; every workload process and CLI child inherits it.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = 1

# (span name, module, attribute). The tracer wraps each target wherever
# a qblotto module holds a reference to it, so calls made inside the
# package are intercepted without touching its source. A target the
# package no longer defines is reported as absent, not as an error.
TRACE_TARGETS = (
    ("engine.validate", "qblotto.engine", "validate_scenario"),
    ("engine.strategies", "qblotto.engine", "strategies_of"),
    ("engine.evolve", "qblotto.engine", "evolve_strategies"),
    ("engine.entangle", "qblotto.engine", "entangler"),
    ("engine.commutation_probe", "qblotto.engine", "_check_classical_commutation"),
    ("engine.gates", "qblotto.engine", "player_operator"),
    ("engine.measure", "qblotto.engine", "measurements"),
    ("engine.payoff", "qblotto.engine", "_payoffs_from_grids"),
    ("tensor.kron_all", "qblotto.tensor", "kron_all"),
    ("tensor.density_matrix", "qblotto.tensor", "density_matrix"),
    ("tensor.partial_trace", "qblotto.tensor", "partial_trace"),
    ("tensor.expectation", "qblotto.tensor", "expectation"),
    ("classical.payoffs", "qblotto.classical", "classical_payoffs"),
    ("sweep.evaluate", "qblotto.engine", "evaluate_strategies"),
    ("scenario_io.load", "qblotto.scenario_io", "load_scenario"),
    ("selfcheck.run_verification", "qblotto.selfcheck", "run_verification"),
)
SPAN_NAMES = tuple(name for name, _, _ in TRACE_TARGETS)

# Spans whose return value is a full composite-space (dim x dim) complex
# matrix; their result sizes make up engine.dense_bytes_computed.
DENSE_RESULTS = frozenset(
    ("tensor.kron_all", "engine.gates", "engine.entangle", "tensor.density_matrix")
)

def pin_blas_threads(env) -> None:
    """Pin every known BLAS thread-count variable in ``env`` to one."""
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)


def latency_summary(samples_s) -> dict:
    """Median and 90th percentile of per-op wall times, in ms.

    Uses the inclusive method, so with n samples exactly the samples
    ranked above 0.9 * (n - 1) lie beyond p90: at least ten once n
    reaches 100.
    """
    ms = [s * 1e3 for s in samples_s]
    if len(ms) < 2:
        raise ValueError(f"need at least two latency samples, got {len(ms)}")
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    p90 = cuts[89]
    return {
        "n": len(ms),
        "p50_ms": cuts[49],
        "p90_ms": p90,
        "beyond_p90": sum(1 for x in ms if x > p90),
    }


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, bytes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op_id = None

    def _open(self, name, op_id=None):
        if op_id is not None:
            self._op_id = op_id
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name, op_id=None):
        self._open(name, op_id)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn):
        dense = name in DENSE_RESULTS

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if dense:
                record[5] = getattr(result, "nbytes", 0)
            return result

        return traced

    @contextmanager
    def installed(self, targets=TRACE_TARGETS, package="qblotto"):
        """Wrap ``targets`` in every loaded module of ``package``."""
        originals = []
        for span_name, module_name, attr in targets:
            try:
                original = getattr(importlib.import_module(module_name), attr, None)
            except ImportError:
                original = None
            if original is None:
                self.absent.append(span_name)
            else:
                originals.append((span_name, original))
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        patched = []
        for span_name, original in originals:
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def adopt(self, spans, parent, op_id) -> None:
        """Append spans recorded by a child process under ``parent``.

        ``perf_counter`` reads the system-wide monotonic clock on Linux,
        so a child's timestamps are comparable with this process's.
        """
        base = len(self.spans)
        for name, start, end, p, _, nbytes in spans:
            self.spans.append(
                [name, start, end, parent if p is None else base + p, op_id, nbytes]
            )


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, busy and self seconds, bytes returned.

    Busy time counts a span only when no ancestor has the same name, so
    a layer that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, _, nbytes) in enumerate(spans):
        entry = totals.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["bytes"] += nbytes
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["busy_s"] += end - start
    return totals


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, plus its largest child's.

    Children run one at a time, so the sum bounds the peak of the
    process tree from above.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def src_line_count(root: Path) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )


def environment(root: Path) -> dict:
    """Versions, BLAS build and thread pin, CPU count, src/ line count."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_vendor,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": src_line_count(root),
    }


def dump_spans(tracer: Tracer, path: Path) -> None:
    path.write_text(
        json.dumps({"absent": tracer.absent, "spans": tracer.spans}),
        encoding="utf-8",
    )
