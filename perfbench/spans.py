"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer`` replaces each traced function in every module namespace that
binds it by name (``harness.schur_reduced``, ``resolvent.build_laplacian``,
``resolvent.lu_factor``, ``numpy.linalg.eigvalsh`` ...) with a wrapper that
records a span: name, parent span, start and end.  Leaving the ``with`` block
restores every binding.  Spans stay in memory; ``summary`` turns them into
per-function call counts and self times (span time minus the time its child
spans cover) plus the exact work counts named in ``COUNTS``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (layer, defining module, function).  The kernel layer is the numpy/scipy
# routines the program calls for its dense factorizations and eigensolves.
TARGETS = (
    ("lattice", "boxham.lattice", "build_partition"),
    ("lattice", "boxham.lattice", "build_laplacian"),
    ("lattice", "boxham.lattice", "build_hamiltonian"),
    ("lattice", "boxham.lattice", "box_mask"),
    ("resolvent", "boxham.resolvent", "schur_reduced"),
    ("resolvent", "boxham.resolvent", "restricted_resolvent"),
    ("resolvent", "boxham.resolvent", "kronecker_truncation"),
    ("resolvent", "boxham.resolvent", "precision_guard"),
    ("compensated", "boxham.compensated", "refined_solve"),
    ("compensated", "boxham.compensated", "dd_matmul"),
    ("tridiag", "boxham.tridiag", "exact_spectrum"),
    ("tridiag", "boxham.tridiag", "predicted_eigenvalue"),
    ("cyclotomic", "boxham.cyclotomic", "verify_nonvanishing"),
    ("cyclotomic", "boxham.cyclotomic", "cos_sum_is_zero"),
    ("cluster", "boxham.cluster", "classify_pair"),
    ("cluster", "boxham.cluster", "cluster_indices"),
    ("cluster", "boxham.cluster", "verify_gaps"),
    ("cluster", "boxham.cluster", "mode_resolved_spectrum"),
    ("cluster", "boxham.cluster", "min_nonzero_gaps"),
    ("separation", "boxham.separation", "epsilon_delta"),
    ("separation", "boxham.separation", "design_intervals"),
    ("harness", "boxham.harness", "load_config"),
    ("harness", "boxham.harness", "sample_disorder"),
    ("harness", "boxham.harness", "boosts_for"),
    ("harness", "boxham.harness", "write_csv"),
    ("harness", "boxham.harness", "write_verdict"),
    ("cli", "boxham.cli", "main"),
    ("kernel", "scipy.linalg", "lu_factor"),
    ("kernel", "numpy.linalg", "eigvalsh"),
)

# Exact work counts, with the unit each is reported in.
COUNTS = {
    "kernel.lu_factor.gflop": "gflop",
    "harness.bytes_written": "bytes",
    "resolvent.escalations": "count",
    "lattice.build_laplacian.per_cell": "ratio",
    "separation.epsilon_delta.per_cell": "ratio",
}


def span_names() -> list[str]:
    return [f"{layer}.{function}" for layer, _, function in TARGETS]


def _namespaces():
    """Every module that may bind a traced function by name."""
    mods = [m for name, m in sys.modules.items() if name == "boxham" or name.startswith("boxham.")]
    return mods + [sys.modules["numpy.linalg"], sys.modules["scipy.linalg"]]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int | None, float, float, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.gflop = 0.0
        self.bytes_written = 0
        self.escalations = 0

    # -- counts taken where the work happens

    def _on_lu_factor(self, args, result):
        n = args[0].shape[0]
        with self._lock:
            self.gflop += 2.0 * n**3 / 3.0 / 1e9

    def _on_precision_guard(self, args, result):
        if result:
            with self._lock:
                self.escalations += 1

    def _on_write(self, args, result):
        size = Path(result).stat().st_size
        with self._lock:
            self.bytes_written += size

    def _hooks(self):
        return {
            "kernel.lu_factor": self._on_lu_factor,
            "resolvent.precision_guard": self._on_precision_guard,
            "harness.write_csv": self._on_write,
            "harness.write_verdict": self._on_write,
        }

    def _wrap(self, name: str, fn, hook):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((name, parent, start, end, span_id))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def __enter__(self):
        hooks = self._hooks()
        wrappers = {}
        for layer, module, function in TARGETS:
            original = getattr(importlib.import_module(module), function)
            name = f"{layer}.{function}"
            wrappers[id(original)] = (original, self._wrap(name, original, hooks.get(name)))
        for namespace in _namespaces():
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    self._restore.append((namespace, attr, value))
        return self

    def __exit__(self, *exc):
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()
        return False

    def summary(self, cells: int) -> dict[str, float]:
        """Per-function ``.calls`` and ``.self_s`` plus ``COUNTS``, for ``cells`` cells."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: dict[str, int] = dict.fromkeys(span_names(), 0)
        self_s: dict[str, float] = dict.fromkeys(span_names(), 0.0)
        for name, _, start, end, span_id in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - covered[span_id]
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["kernel.lu_factor.gflop"] = self.gflop
        out["harness.bytes_written"] = self.bytes_written
        out["resolvent.escalations"] = self.escalations
        per_cell = (lambda n: n / cells) if cells else (lambda n: 0.0)
        out["lattice.build_laplacian.per_cell"] = per_cell(calls["lattice.build_laplacian"])
        out["separation.epsilon_delta.per_cell"] = per_cell(calls["separation.epsilon_delta"])
        return out
