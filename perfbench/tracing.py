"""Call spans around the public functions of the pairmeasure modules.

The tracer replaces every public function of the package in every module
namespace that binds it. ``scenarios``, ``cli`` and ``entanglement`` import
their helpers with ``from ... import``, so patching only the defining module
would miss most calls. Each call is a span; its self time is its duration
minus the time covered by the spans it caused. Spans are folded into
per-function totals as they close, and a few functions also record work
counts computed from their arguments.

The tracer changes nothing in the package: ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

# Prefix of the line a traced child process writes its snapshot on.
TRACE_MARKER = "perfbench-trace "

# Layers of the package, named after its modules.
LAYERS = ("cli", "fileio", "hilbert", "symmetry", "measurement", "entanglement", "scenarios")


def _complex_matmul_flops(left_shape, right_shape) -> int:
    """Real floating-point operations of a dense complex matrix product."""
    rows, inner = left_shape
    return 8 * rows * inner * right_shape[1]


def _apply_measure_work(tracer, args, kwargs) -> None:
    measure = args[0] if args else kwargs["measure"]
    state = args[1] if len(args) > 1 else kwargs["state"]
    left = measure.factor_slot1.entries.shape
    right = measure.factor_slot2.entries.shape
    dim = state.space.total_dim
    # left @ C, then (left @ C) @ right.T
    first = _complex_matmul_flops(left, (dim, dim))
    second = _complex_matmul_flops((left[0], dim), (right[1], right[0]))
    tracer.work["measurement.apply_measure.flops"] += first + second


def _file_size_and_records(path: str) -> tuple[int, int]:
    records = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                records += 1
    return os.path.getsize(path), records


def _parse_work(tracer, args, kwargs) -> None:
    path = os.fspath(args[0] if args else kwargs["path"])
    # Inputs are reused across operations, so count each file once.
    if path not in tracer.file_sizes:
        tracer.file_sizes[path] = _file_size_and_records(path)
    size, records = tracer.file_sizes[path]
    tracer.work["fileio.parse.bytes"] += size
    tracer.work["fileio.parse.records"] += records


_WORK_HOOKS = {
    "measurement.apply_measure": _apply_measure_work,
    "fileio.parse_state_file": _parse_work,
    "fileio.parse_measure_file": _parse_work,
}


class Tracer:
    """Per-function call counts, self times and work counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: defaultdict = defaultdict(float)
        self.file_sizes: dict[str, tuple[int, int]] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = [importlib.import_module("pairmeasure")] + [
            importlib.import_module(f"pairmeasure.{layer}") for layer in LAYERS
        ]
        wrappers: dict[object, object] = {}
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("pairmeasure."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patches.append((namespace, name, obj))
                setattr(namespace, name, wrappers[obj])

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._patches):
            setattr(namespace, name, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "work": dict(self.work),
        }

    def _wrap(self, fn):
        key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = _WORK_HOOKS.get(key)
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
                if hook is not None:
                    hook(self, args, kwargs)

        return traced


def merge(total: dict, part: dict) -> None:
    """Add the counts of snapshot ``part`` into snapshot ``total``."""
    for field in ("calls", "self_s", "work"):
        bucket = total.setdefault(field, {})
        for key, value in part.get(field, {}).items():
            bucket[key] = bucket.get(key, 0) + value


def per_layer_metrics(snapshot: dict, ops: int) -> dict[str, float]:
    """Per-op layer metrics from a snapshot covering ``ops`` operations."""
    calls = snapshot.get("calls", {})
    self_s = snapshot.get("self_s", {})
    work = snapshot.get("work", {})

    def self_of(*keys):
        return sum(self_s.get(key, 0.0) for key in keys) / ops

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / ops

    def calls_of(*keys):
        return sum(calls.get(key, 0) for key in keys) / ops

    return {
        # Everything the cli layer runs itself under main (argparse, run, report).
        "cli.main.self_s": layer_self("cli"),
        "fileio.parse.self_s": self_of("fileio.parse_state_file", "fileio.parse_measure_file"),
        "fileio.parse.bytes_per_op": work.get("fileio.parse.bytes", 0) / ops,
        "fileio.parse.records_per_op": work.get("fileio.parse.records", 0) / ops,
        "hilbert.build.self_s": self_of("hilbert.plane_wave", "hilbert.tensor_state"),
        "hilbert.momentum_representation.self_s": self_of("hilbert.momentum_representation"),
        "symmetry.self_s": layer_self("symmetry"),
        "measurement.apply_measure.calls_per_op": calls_of("measurement.apply_measure"),
        "measurement.events.calls_per_op": calls_of("measurement.events"),
        "measurement.is_projector_valued.calls_per_op": calls_of(
            "measurement.is_projector_valued"
        ),
        "measurement.apply_measure.self_s": self_of("measurement.apply_measure"),
        "measurement.collapse.self_s": self_of("measurement.collapse"),
        "measurement.is_projector_valued.self_s": self_of("measurement.is_projector_valued"),
        "measurement.apply_measure.flops_computed": work.get(
            "measurement.apply_measure.flops", 0
        ) / ops,
        "entanglement.svd_calls_per_op": calls_of(
            "entanglement.schmidt", "entanglement.slater_rank"
        ),
        "entanglement.schmidt.calls_per_op": calls_of("entanglement.schmidt"),
        "entanglement.schmidt.self_s": self_of("entanglement.schmidt"),
        "entanglement.ebm_evidence.self_s": self_of("entanglement.ebm_evidence"),
        "scenarios.self_s": layer_self("scenarios"),
        "scenarios.relabel.self_s": self_of("scenarios.relabel_distinguishable"),
    }
