"""One benchmark run: set up, run timed rounds, fold them into metrics.

A *round* is one pass over every task of the workload, in a fixed order:
the study of each model, the replay of each model, one open-loop serve and
one burst.  Rounds repeat until the measuring time is spent; the
end-to-end metrics are medians over rounds (throughputs divide summed
work by summed per-task medians) or order statistics over the pooled
requests of every round.

With tracing on, untraced and traced rounds alternate.  The untraced
rounds are the no-instrumentation baseline the tracing overhead is
measured against, and they supply the simulated-clock serving figures.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import stats, workloads
from .probe import HostProbe
from .tracer import SpanRecorder, layer_targets, traced

SETUP_REPEATS = 3
MIN_ROUNDS = 2  # untraced rounds; fewer only when tracing
END_TO_END = {
    "setup_s": "s",
    "study_steps_per_s": "1/s",
    "replay_row_steps_per_s": "1/s",
    "sim_speedup": "x",
    "sim_energy_saving": "%",
    "serve_p50_s": "s",
    "serve_tail_s": "s",
    "serve_goodput": "ratio",
    "serve_saturated_rps": "1/s",
    "peak_rss_mb": "MB",
}
MODULE_CLASSES = ("QConv2d", "QLinear", "QAttention", "GELU", "GroupNorm", "LayerNorm")
PER_LAYER = {
    "nn.gemm_s": "s",
    "nn.gemm_calls": "count",
    "nn.gemm_gmac_per_s": "GMAC/s",
    "nn.im2col_s": "s",
    "nn.im2col_elems": "count",
    "nn.gelu_s": "s",
    "nn.group_norm_s": "s",
    "nn.layer_norm_s": "s",
    "nn.softmax_s": "s",
    **{f"nn.self_s.{cls}": "s" for cls in MODULE_CLASSES},
    "quant.quantize_s": "s",
    "quant.quantize_calls": "count",
    "quant.calibrate_s": "s",
    "core.stats_s": "s",
    "core.stats_elems": "count",
    "core.instrumented_run_s": "s",
    "core.replay_run_s": "s",
    "core.derive_plan_s": "s",
    "core.session_step_s": "s",
    "core.session_step_tail_s": "s",
    "core.session_rows_per_step": "count",
    "core.session_admit_s": "s",
    "core.session_evict_s": "s",
    "diffusion.sampler_step_s": "s",
    "hw.evaluate_s": "s",
    "hw.defo_s": "s",
    "hw.records": "count",
    "runtime.queue_wait_p50_s": "s",
    "runtime.queue_wait_tail_s": "s",
    "runtime.compute_p50_s": "s",
    "runtime.requests_sent": "count",
    "runtime.requests_missed": "count",
    "runtime.verify_checked": "count",
    "runtime.verify_mismatched": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


@dataclass
class Checks:
    """Operations attempted and failed; every failed check is counted."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Rounds:
    """Per-task samples collected over the timed rounds of one kind."""

    wall: List[float] = field(default_factory=list)
    study: Dict[str, List[float]] = field(default_factory=dict)
    replay: Dict[str, List[float]] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    computes: List[float] = field(default_factory=list)
    sent: int = 0
    on_time: int = 0
    saturated_rps: List[float] = field(default_factory=list)
    verify_checked: int = 0
    verify_mismatched: int = 0


class Run:
    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.checks = Checks()
        self.probe = HostProbe()
        self.built: Optional[workloads.Built] = None
        self.digests: Optional[List[str]] = None
        # Per model: the first study's outputs, which every later round
        # must reproduce exactly.
        self.reference: Dict[str, workloads.StudyResult] = {}
        self.replay_reference: Dict[str, np.ndarray] = {}
        self.round_index = 0

    # -- set-up ------------------------------------------------------------
    def setup_once(self) -> float:
        self.probe.sample()
        t0 = time.perf_counter()
        built = workloads.setup(self.workload, self.seed)
        seconds = time.perf_counter() - t0
        digests = [m.plan_digest for m in built.models + [built.serve]]
        if self.digests is None:
            self.digests = digests
        names = self.workload.models + (f"{self.workload.serve.model} (serving)",)
        for name, got, want in zip(names, digests, self.digests):
            self.checks.check(got == want, f"{name}: plan digest changed between set-ups")
        self.built = built
        return seconds

    # -- one round -----------------------------------------------------------
    def round(self, into: Rounds, cache_dir: Path) -> None:
        t_round = time.perf_counter()
        built = self.built
        for model in built.models:
            self.probe.sample()
            result = workloads.study(model)
            ref = self.reference.setdefault(model.name, result)
            self.checks.check(
                result.signature == ref.signature
                and np.array_equal(result.samples, ref.samples),
                f"{model.name}: study did not repeat exactly",
            )
            into.study.setdefault(model.name, []).append(result.seconds / result.steps)
        for model in built.models:
            self.probe.sample()
            seconds, row_steps, samples = workloads.replay(model)
            ref = self.replay_reference.setdefault(model.name, samples)
            self.checks.check(
                np.array_equal(samples[:1], self.reference[model.name].samples)
                and np.array_equal(samples, ref),
                f"{model.name}: plan replay differs from the instrumented run",
            )
            into.replay.setdefault(model.name, []).append(seconds / row_steps)
        cfg = self.workload.serve
        serve_seed = workloads.subseed(self.seed, 3, self.round_index)
        self.probe.sample()
        opened = workloads.serve_open(built.serve, cfg, serve_seed, cache_dir)
        self.probe.sample()
        burst = workloads.serve_burst(built.serve, cfg, serve_seed, cache_dir)
        self.round_index += 1
        for result, phase in ((opened, "open-loop"), (burst, "burst")):
            self.checks.attempted += result.sent
            self.checks.failed += result.not_completed
            if result.not_completed:
                self.checks.notes.append(
                    f"{result.not_completed} {phase} requests did not complete"
                )
        self.checks.attempted += opened.verify_checked
        self.checks.failed += opened.verify_mismatched
        if opened.verify_mismatched:
            self.checks.notes.append("served samples differ from batch-1 references")
        into.latencies += opened.latencies
        into.queue_waits += opened.queue_waits
        into.computes += opened.computes
        into.sent += opened.sent
        into.on_time += opened.on_time
        into.saturated_rps.append(burst.saturated_rps)
        into.verify_checked += opened.verify_checked
        into.verify_mismatched += opened.verify_mismatched
        into.wall.append(time.perf_counter() - t_round)

    # -- end-to-end metrics --------------------------------------------------
    def end_to_end(self, setups: List[float], rounds: Rounds, host: float) -> Dict[str, float]:
        """The end-to-end metrics, timings at the reference host speed.

        ``host`` multiplies times (and divides rates); 1.0 gives the raw
        figures of this host.
        """
        models = self.workload.models
        refs = [self.reference[m] for m in models]
        p_tail, _, _ = stats.tail(rounds.latencies, self.workload.serve.tail_pct)
        # Throughput from per-step medians: a slow round moves its own
        # sample, not the figure.
        study_s_per_step = sum(stats.median(rounds.study[m]) * r.steps for m, r in zip(models, refs))
        replay_s_per_row_step = [stats.median(rounds.replay[m]) for m in models]
        replay_row_steps = [
            self.replay_reference[m].shape[0] * r.steps for m, r in zip(models, refs)
        ]
        return {
            "setup_s": stats.median(setups) * host,
            "study_steps_per_s": sum(r.steps for r in refs) / study_s_per_step / host,
            "replay_row_steps_per_s": sum(replay_row_steps)
            / sum(s * n for s, n in zip(replay_s_per_row_step, replay_row_steps))
            / host,
            "sim_speedup": float(np.mean([r.speedup for r in refs])),
            "sim_energy_saving": float(np.mean([r.energy_saving_pct for r in refs])),
            "serve_p50_s": stats.median(rounds.latencies) * host,
            "serve_tail_s": p_tail * host,
            "serve_goodput": rounds.on_time / rounds.sent,
            "serve_saturated_rps": stats.median(rounds.saturated_rps) / host,
            "peak_rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(
    setup_rec: SpanRecorder,
    rec: SpanRecorder,
    traced_wall: List[float],
    untraced: Rounds,
) -> Dict[str, float]:
    """Per-layer metrics: seconds and counts per traced round.

    Set-up-only layers (calibration, plan derivation) come from the one
    traced set-up; simulated-clock serving figures from the untraced
    rounds, whose step times the wrappers did not inflate.
    """
    n = len(traced_wall)
    summary = rec.summarize()
    setup_summary = setup_rec.summarize()
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0.0}

    def get(name: str, field_: str, source=summary) -> float:
        return source.get(name, empty)[field_]

    gemm_s = get("nn.gemm", "incl_s")
    steps = rec.durations("core.session_step")
    step_tail, _, _ = stats.tail(steps)
    metrics = {
        "nn.gemm_s": gemm_s / n,
        "nn.gemm_calls": get("nn.gemm", "calls") / n,
        "nn.gemm_gmac_per_s": get("nn.gemm", "work") / gemm_s / 1e9 if gemm_s else 0.0,
        "nn.im2col_s": get("nn.im2col", "incl_s") / n,
        "nn.im2col_elems": get("nn.im2col", "work") / n,
        "nn.gelu_s": get("nn.gelu", "incl_s") / n,
        "nn.group_norm_s": get("nn.group_norm", "incl_s") / n,
        "nn.layer_norm_s": get("nn.layer_norm", "incl_s") / n,
        "nn.softmax_s": get("nn.softmax", "incl_s") / n,
        **{
            f"nn.self_s.{cls}": get(f"nn.module.{cls}", "self_s") / n
            for cls in MODULE_CLASSES
        },
        "quant.quantize_s": get("quant.quantize", "incl_s") / n,
        "quant.quantize_calls": get("quant.quantize", "calls") / n,
        "quant.calibrate_s": get("quant.calibrate", "incl_s", setup_summary),
        "core.stats_s": get("core.stats", "incl_s") / n,
        "core.stats_elems": get("core.stats", "work") / n,
        "core.instrumented_run_s": get("core.instrumented_run", "incl_s") / n,
        "core.replay_run_s": get("core.replay_run", "incl_s") / n,
        "core.derive_plan_s": get("core.derive_plan", "incl_s", setup_summary),
        "core.session_step_s": stats.median(steps),
        "core.session_step_tail_s": step_tail,
        "core.session_rows_per_step": float(np.mean(rec.works("core.session_step"))),
        "core.session_admit_s": get("core.session_admit", "incl_s") / n,
        "core.session_evict_s": get("core.session_evict", "incl_s") / n,
        "diffusion.sampler_step_s": get("diffusion.sampler_step", "self_s") / n,
        "hw.evaluate_s": get("hw.evaluate", "incl_s") / n,
        "hw.defo_s": get("hw.defo", "incl_s") / n,
        "hw.records": get("hw.evaluate", "work") / n,
        "runtime.queue_wait_p50_s": stats.median(untraced.queue_waits),
        "runtime.queue_wait_tail_s": stats.tail(untraced.queue_waits)[0],
        "runtime.compute_p50_s": stats.median(untraced.computes),
        "runtime.requests_sent": float(untraced.sent),
        "runtime.requests_missed": float(untraced.sent - untraced.on_time),
        "runtime.verify_checked": float(untraced.verify_checked),
        "runtime.verify_mismatched": float(untraced.verify_mismatched),
        "trace.overhead_pct": 100.0
        * (stats.median(traced_wall) / stats.median(untraced.wall) - 1.0),
        "trace.coverage_pct": 100.0 * rec.top_level_seconds() / sum(traced_wall),
    }
    return metrics


def execute(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; return the result object the command prints."""
    workload = workloads.WORKLOADS[workload_name]
    out_dir = root / ".perfbench-out"
    # A fresh cache directory per run: no run may hit entries another wrote.
    cache_dir = out_dir / f"cache-{os.getpid()}-{time.time_ns()}"
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        return _execute(workload, seed, seconds, trace, out_dir, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _execute(workload, seed, seconds, trace, out_dir, cache_dir) -> dict:
    run = Run(workload, seed)
    setups: List[float] = []
    setup_rec = SpanRecorder()
    targets = layer_targets() if trace else []
    for i in range(SETUP_REPEATS):
        if trace and i == SETUP_REPEATS - 1:
            with traced(setup_rec, targets):
                setups.append(run.setup_once())
        else:
            setups.append(run.setup_once())

    # Rounds (untraced and traced pairs, when tracing) until the time is
    # spent: another starts only if it would end nearer the mark than not.
    plain, traced_rounds, rec = Rounds(), Rounds(), SpanRecorder()
    min_rounds = 1 if trace else MIN_ROUNDS
    t_start = time.perf_counter()
    while True:
        run.round(plain, cache_dir)
        if trace:
            with traced(rec, targets):
                run.round(traced_rounds, cache_dir)
        elapsed = time.perf_counter() - t_start
        done = len(plain.wall)
        if done >= min_rounds and elapsed + 0.5 * elapsed / done >= seconds:
            break
    measured = time.perf_counter() - t_start

    if trace:
        metrics = per_layer(setup_rec, rec, traced_rounds.wall, plain)
        units = PER_LAYER
        stem = f"{workload.name}-seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        setup_rec.write(out_dir / f"{stem}-setup-spans.json.gz")
        rec.write(out_dir / f"{stem}-round-spans.json.gz")
    else:
        metrics = run.end_to_end(setups, plain, run.probe.factor())
        units = END_TO_END
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "measured_s": measured,
        "rounds": len(plain.wall),
        "traced_rounds": len(traced_rounds.wall),
        "setup_s": setups,
        "serve_tail_percentile": workload.serve.tail_pct,
        "serve_samples": len(plain.latencies),
        "serve_sent": plain.sent,
        "study_s_per_step": {m: stats.median(v) for m, v in plain.study.items()},
        "replay_s_per_row_step": {m: stats.median(v) for m, v in plain.replay.items()},
        "sim": {
            m: {"speedup": r.speedup, "energy_saving_pct": r.energy_saving_pct}
            for m, r in run.reference.items()
        },
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "cpus": len(os.sched_getaffinity(0)),
        "raw_end_to_end": None if trace else run.end_to_end(setups, plain, 1.0),
        "probe_median_s": stats.median(run.probe.samples),
        "host_factor": run.probe.factor(),
        "failures": run.checks.notes,
    }
    return {
        "detail": detail,
        "result": {
            "correct": run.checks.failed == 0,
            "attempted": run.checks.attempted,
            "failed": run.checks.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        },
    }
