"""The workloads and the timed tasks each round runs.

Every workload is one model family taken through the whole life of the
system: set-up (build, calibrate, quantize, derive the execution plan),
the paper study (an instrumented batch-1 run priced on all 26 design
points of Figs. 13/15/16/18), plan replay at a fixed batch size, and
open-loop continuous serving followed by a burst.  The families differ in
which layers dominate; ``README.md`` beside this package says which
per-layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.bench import clear_pools
from repro.core import DittoEngine
from repro.core.session import EngineSession
from repro.hw import (
    FIG13_DESIGNS,
    FIG15_DESIGNS,
    FIG16_DESIGNS,
    FIG18_DESIGNS,
    evaluate_designs,
)
from repro.runtime.serving import generate_requests, simulate_serving
from repro.workloads import get_benchmark

from .tracer import Target, patched

DESIGN_SETS = (FIG13_DESIGNS, FIG15_DESIGNS, FIG16_DESIGNS, FIG18_DESIGNS)


@dataclass(frozen=True)
class ServeConfig:
    """Open-loop serving of one row-steppable model, then a burst.

    Arrivals are a seeded Poisson trace on the simulated clock at one fixed
    rate (an open loop: a slow server does not slow the arrivals).  The
    rate keeps the server busy about a quarter of the time on a 2-CPU
    host: a busier server multiplies any host slowdown into queueing delay
    (processor sharing stretches latency by 1 / (1 - utilisation)).  The engine runs ``steps``
    denoising steps, so one run holds enough requests for a tail latency.
    """

    model: str
    steps: int
    capacity: int
    rate_rps: float
    open_requests: int
    deadline_s: float
    burst_requests: int
    tail_pct: float  # leaves >= 10 of the requests of MIN_ROUNDS rounds above it
    verify_per_round: int = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: Tuple[str, ...]  # studied and replayed at their Table I steps
    replay_batch: int
    serve: ServeConfig


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="unet",
            why=(
                "DDPM+SDM UNets: conv, im2col and GroupNorm dominate, SDM "
                "adds PLMS, CFG and text conditioning; serves DDPM"
            ),
            models=("DDPM", "SDM"),
            replay_batch=2,
            serve=ServeConfig(
                model="DDPM", steps=5, capacity=4, rate_rps=5.0,
                open_requests=68, deadline_s=0.5, burst_requests=32, tail_pct=90.0,
            ),
        ),
        Workload(
            name="transformer",
            why=(
                "DiT+Latte transformers: no conv or im2col, GELU and QLinear "
                "dominate; serves DiT"
            ),
            models=("DiT", "Latte"),
            replay_batch=2,
            serve=ServeConfig(
                model="DiT", steps=5, capacity=4, rate_rps=2.4,
                open_requests=50, deadline_s=1.0, burst_requests=16, tail_pct=90.0,
            ),
        ),
    )
}


def subseed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the run seed and a position path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Model:
    """One built engine with its plan and the seeded study/replay inputs."""

    name: str
    engine: DittoEngine
    plan_digest: str
    x_init: np.ndarray  # (replay_batch, *sample_shape); row 0 is studied
    stream_seed: int

    def rngs(self, rows: int) -> List[np.random.Generator]:
        return [
            np.random.default_rng(np.random.SeedSequence(self.stream_seed, spawn_key=(i,)))
            for i in range(rows)
        ]


@dataclass
class Built:
    models: List[Model]
    serve: Model


def setup(workload: Workload, seed: int) -> Built:
    """Everything paid before the first timed step, for every model."""
    clear_pools()

    def build(name: str, steps=None) -> Model:
        spec = get_benchmark(name)
        engine = DittoEngine.from_benchmark(spec, num_steps=steps)
        plan_seed = subseed(seed, 0)
        plan = engine.derive_plan(seed=plan_seed, batch_size=1)
        x_init = np.random.default_rng(subseed(seed, 1)).standard_normal(
            (workload.replay_batch,) + tuple(spec.sample_shape)
        )
        return Model(name, engine, plan.digest, x_init, subseed(seed, 2))

    models = [build(name) for name in workload.models]
    return Built(models, build(workload.serve.model, workload.serve.steps))


# -- timed tasks ---------------------------------------------------------------


@dataclass
class StudyResult:
    seconds: float
    steps: int
    samples: np.ndarray
    signature: Tuple[float, ...]  # every design's cycles and energy
    speedup: float  # Fig. 13: ITC cycles / Ditto cycles
    energy_saving_pct: float  # Fig. 13: 1 - Ditto energy / ITC energy


def study(model: Model) -> StudyResult:
    """Seeded batch-1 instrumented run, then all 26 design reports."""
    t0 = time.perf_counter()
    result = model.engine.run(
        x_init=model.x_init[:1], rngs=model.rngs(1), record_trace=True
    )
    reports = [evaluate_designs(designs, result.rich_trace) for designs in DESIGN_SETS]
    seconds = time.perf_counter() - t0
    signature = tuple(
        value
        for table in reports
        for r in table.values()
        for value in (r.report.total_cycles, r.report.total_energy_pj)
    )
    itc, ditto = reports[0]["ITC"].report, reports[0]["Ditto"].report
    return StudyResult(
        seconds=seconds,
        steps=result.num_model_calls,
        samples=result.samples,
        signature=signature,
        speedup=itc.total_cycles / ditto.total_cycles,
        energy_saving_pct=100.0 * (1.0 - ditto.total_energy_pj / itc.total_energy_pj),
    )


def replay(model: Model) -> Tuple[float, int, np.ndarray]:
    """Plan replay (no instrumentation) of the seeded batch.

    Returns seconds, row-steps and the samples.
    """
    rows = model.x_init.shape[0]
    t0 = time.perf_counter()
    result = model.engine.run(
        x_init=model.x_init, rngs=model.rngs(rows), record_trace=False
    )
    seconds = time.perf_counter() - t0
    return seconds, rows * result.num_model_calls, result.samples


@dataclass
class ServeResult:
    sent: int
    latencies: List[float] = field(default_factory=list)  # completed requests
    queue_waits: List[float] = field(default_factory=list)
    computes: List[float] = field(default_factory=list)
    on_time: int = 0
    not_completed: int = 0
    saturated_rps: float = 0.0
    verify_checked: int = 0
    verify_mismatched: int = 0


def _capture_finished(into: Dict[int, np.ndarray]):
    """Keep every sample a serving session step hands back, by row tag."""

    def make(target, step):
        def capturing_step(session, *args, **kwargs):
            finished = step(session, *args, **kwargs)
            for tag, sample in finished:
                into[tag] = sample
            return finished

        return capturing_step

    return patched([Target(EngineSession, "step", "capture")], make)


def _serve(model: Model, cfg: ServeConfig, seed: int, cache_dir, pattern: str):
    return simulate_serving(
        model.name,
        batch_sizes=[cfg.capacity],
        num_requests=cfg.open_requests if pattern == "poisson" else cfg.burst_requests,
        rate_rps=cfg.rate_rps,
        pattern=pattern,
        num_steps=cfg.steps,
        seed=seed,
        engine=model.engine,
        scheduler="continuous",
        deadline_s=cfg.deadline_s if pattern == "poisson" else None,
        use_plan=True,
        plan_cache_dir=cache_dir,
    ).per_batch[cfg.capacity]


def serve_open(model: Model, cfg: ServeConfig, seed: int, cache_dir) -> ServeResult:
    """Open-loop Poisson arrivals with a deadline; verify a seeded subset.

    Latency runs from each request's due time (its arrival on the
    simulated clock) to its completion.  The verified requests are re-run
    alone, instrumented, and must match the served sample bit for bit.
    """
    samples: Dict[int, np.ndarray] = {}
    with _capture_finished(samples):
        report = _serve(model, cfg, seed, cache_dir, "poisson")
    out = ServeResult(sent=len(report.served))
    on_time = set()
    for s in report.served:
        if s.outcome != "completed":
            out.not_completed += 1
            continue
        out.latencies.append(s.latency_s)
        out.queue_waits.append(s.launch_s - s.arrival_s)
        out.computes.append(s.finish_s - s.launch_s)
        if s.on_time:
            on_time.add(s.req_id)
    completed = sorted(rid for rid, o in report.outcomes.items() if o == "completed")
    picks = np.random.default_rng(seed).choice(
        completed, size=min(cfg.verify_per_round, len(completed)), replace=False
    )
    requests = generate_requests(cfg.open_requests, cfg.rate_rps, "poisson", seed)
    shape = tuple(model.engine.pipeline.sample_shape)
    for rid in sorted(int(r) for r in picks):
        reference = model.engine.run(
            x_init=requests[rid].draw_noise(shape),
            rngs=[requests[rid].sampler_rng()],
            record_trace=True,
        ).samples
        out.verify_checked += 1
        if not np.array_equal(samples.get(rid), reference):
            out.verify_mismatched += 1
            on_time.discard(rid)  # a wrong sample is a miss, however fast
    out.on_time = len(on_time)
    return out


def serve_burst(model: Model, cfg: ServeConfig, seed: int, cache_dir) -> ServeResult:
    """Every request due at t=0: completions per second at saturation."""
    report = _serve(model, cfg, seed, cache_dir, "burst")
    return ServeResult(
        sent=len(report.served),
        not_completed=sum(s.outcome != "completed" for s in report.served),
        saturated_rps=report.throughput_rps,
    )
