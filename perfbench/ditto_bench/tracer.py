"""In-memory span tracing around the program's layer boundaries.

The program is not edited: :func:`traced` swaps the public functions and
methods named in :func:`layer_targets` for thin wrappers that open a span
(name, start, end, parent, work count) around each call, and puts the
originals back on exit.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the time its direct children
cover.  Spans nest strictly (one thread, stack discipline), so the self
times of all spans add up to the union of the top-level spans, which can
never exceed the wall time of the traced region.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


class SpanRecorder:
    """Spans as parallel lists: name id, parent index, start, end, work."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.work: List[float] = []
        self._stack: List[int] = []

    def begin(self, name: str, work: float = 0.0) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> List[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def top_level_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(
            e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0
        )

    def outermost(self, idx: int) -> bool:
        """No ancestor of span ``idx`` carries the same name."""
        nid = self.name_id[idx]
        parent = self.parent[idx]
        while parent >= 0:
            if self.name_id[parent] == nid:
                return False
            parent = self.parent[parent]
        return True

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds, work.

        Inclusive seconds, calls and work count only the outermost span of
        a name, so a method that calls its own base implementation (or a
        sampler's ``step_rows`` calling ``step``) is not counted twice.
        """
        own = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for idx, nid in enumerate(self.name_id):
            entry = out.setdefault(
                self.names[nid],
                {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0.0},
            )
            entry["self_s"] += own[idx]
            if self.outermost(idx):
                entry["calls"] += 1
                entry["incl_s"] += self.end[idx] - self.start[idx]
                entry["work"] += self.work[idx]
        return out

    def durations(self, name: str) -> List[float]:
        nid = self._name_ids.get(name)
        return [
            self.end[i] - self.start[i]
            for i, n in enumerate(self.name_id)
            if n == nid
        ]

    def works(self, name: str) -> List[float]:
        nid = self._name_ids.get(name)
        return [self.work[i] for i, n in enumerate(self.name_id) if n == nid]

    def write(self, path) -> None:
        """Write the span table as gzipped JSON (names + one row per span)."""
        payload = {
            "names": self.names,
            "columns": ["name_id", "parent", "start", "end", "work"],
            "spans": [
                list(row)
                for row in zip(
                    self.name_id, self.parent, self.start, self.end, self.work
                )
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` becomes a span named ``name``.

    ``name`` may be a callable of the call's ``(args, kwargs)`` returning
    the span name; ``work`` likewise returns the span's work count.
    """

    owner: object
    attr: str
    name: object
    work: Optional[Callable[[tuple, dict], float]] = None


def _wrapper(recorder: SpanRecorder, target: Target, fn: Callable) -> Callable:
    name, work = target.name, target.work

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        idx = recorder.begin(label, work(args, kwargs) if work else 0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.finish(idx)

    return traced_call


@contextmanager
def patched(
    targets: Sequence[Target], make: Callable[[Target, Callable], Callable]
) -> Iterator[None]:
    """Replace each target with ``make(target, original)``; restore on exit.

    An attribute the owner only inherited is deleted again on exit rather
    than pinned, so the owner's class hierarchy is exactly as it was.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            own = vars(target.owner).get(target.attr, _MISSING)
            original = getattr(target.owner, target.attr)
            setattr(target.owner, target.attr, make(target, original))
            saved.append((target.owner, target.attr, own))
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


@contextmanager
def traced(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Record a span around every call of every target while active."""
    with patched(targets, lambda t, fn: _wrapper(recorder, t, fn)):
        yield


# -- the program's layer boundaries --------------------------------------------


def _size(shape) -> int:
    n = 1
    for dim in shape:
        n *= int(dim)
    return n


def _matmul_macs(args, kwargs) -> float:
    a, b = args[1], args[2]
    batch = _size(_broadcast(a.shape[:-2], b.shape[:-2]))
    return float(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])


def _broadcast(x: tuple, y: tuple) -> tuple:
    width = max(len(x), len(y))
    x = (1,) * (width - len(x)) + tuple(x)
    y = (1,) * (width - len(y)) + tuple(y)
    return tuple(max(i, j) for i, j in zip(x, y))


def _linear_macs(args, kwargs) -> float:
    x, weight = args[1], args[2]
    return float(_size(x.shape[:-1]) * weight.size)


def _conv_macs(args, kwargs) -> float:
    cols_t, weight = args[1], args[2]
    return float(cols_t.shape[0] * cols_t.shape[2] * weight.size)


def _im2col_elems(args, kwargs) -> float:
    x, kernel = args[1], args[2]
    stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
    padding = args[4] if len(args) > 4 else kwargs.get("padding", 0)
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    return float(n * c * kernel * kernel * out_h * out_w)


def _elems(args, kwargs) -> float:
    return float(sum(a.size for a in args if hasattr(a, "size")))


def _occupancy(args, kwargs) -> float:
    return float(args[0].occupancy)


def _trace_records(args, kwargs) -> float:
    return float(len(args[1]))


def _module_name(args, kwargs) -> str:
    return "nn.module." + type(args[0]).__name__


def _run_name(args, kwargs) -> str:
    # DittoEngine.run(self, batch_size, seed, x_init, record_trace, rngs)
    record = kwargs.get("record_trace", args[4] if len(args) > 4 else True)
    return "core.instrumented_run" if record else "core.replay_run"


def _defining(classes, attr: str) -> List[object]:
    """Every class in ``classes`` (and their bases) that defines ``attr``."""
    seen: List[object] = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in vars(klass) and klass not in seen:
                seen.append(klass)
    return seen


def layer_targets() -> List[Target]:
    """The wrapped boundaries of every layer, from ``repro.nn`` to ``repro.hw``.

    Functions are wrapped where their callers look them up: ``classify``
    as bound in :mod:`repro.quant.qlayers`, ``run_defo`` as bound in the
    design simulator and the plan extractor.
    """
    from repro import hw
    from repro.core import engine, plan, session
    from repro.diffusion import samplers
    from repro.nn import backends, functional, module
    from repro.quant import calibration, qlayers, quantizer, tdq

    backend_classes = [
        type(backends.get_backend(name)) for name in backends.registered_backends()
    ]
    sampler_classes = [
        obj
        for obj in vars(samplers).values()
        if isinstance(obj, type) and issubclass(obj, samplers.Sampler)
    ]
    targets: List[Target] = []
    for attr, work in (
        ("matmul", _matmul_macs),
        ("linear", _linear_macs),
        ("conv2d_from_cols_t", _conv_macs),
    ):
        targets += [
            Target(cls, attr, "nn.gemm", work)
            for cls in _defining(backend_classes, attr)
        ]
    targets += [
        Target(cls, "im2col_t", "nn.im2col", _im2col_elems)
        for cls in _defining(backend_classes, "im2col_t")
    ]
    targets += [
        Target(functional, "gelu", "nn.gelu"),
        Target(functional, "group_norm", "nn.group_norm"),
        Target(functional, "layer_norm", "nn.layer_norm"),
        Target(functional, "softmax", "nn.softmax"),
        Target(module.Module, "__call__", _module_name),
    ]
    targets += [
        Target(cls, "quantize", "quant.quantize")
        for cls in _defining(
            [quantizer.SymmetricQuantizer, tdq.TimestepClusteredQuantizer],
            "quantize",
        )
    ]
    targets += [
        Target(calibration, "calibrate_model", "quant.calibrate"),
        Target(calibration, "calibrate_model_clustered", "quant.calibrate"),
        Target(qlayers, "classify", "core.stats", _elems),
        Target(qlayers, "classify_many", "core.stats", _elems),
        Target(engine.DittoEngine, "run", _run_name),
        Target(engine.DittoEngine, "derive_plan", "core.derive_plan"),
        Target(session.EngineSession, "step", "core.session_step", _occupancy),
        Target(session.EngineSession, "admit", "core.session_admit"),
        Target(session.EngineSession, "_drop", "core.session_evict"),
    ]
    for attr in ("step", "step_rows"):
        targets += [
            Target(cls, attr, "diffusion.sampler_step")
            for cls in _defining(sampler_classes, attr)
        ]
    targets += [
        Target(hw.simulator, "evaluate_design", "hw.evaluate", _trace_records),
        Target(hw.simulator, "run_defo", "hw.defo"),
        Target(hw.simulator, "run_ideal", "hw.defo"),
        Target(plan, "run_defo", "hw.defo"),
    ]
    return targets
