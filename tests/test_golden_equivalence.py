"""Golden-equivalence suite for the single-pass/columnar instrumentation.

Pins the three invariants the PR-2 perf rebuild must not move:

* the columnar ``RichTrace``/``Trace`` stores round-trip exactly to their
  dataclass views (append -> view -> append), including through pickle;
* the fused ``classify_many`` equals merging per-array ``classify`` calls,
  and the vectorized ``lower_modes``/BOPs/accelerator columns equal the
  naive record-at-a-time formulas of ``tests/oracles.py`` record by record;
* an instrumented engine run is *bit-exact* with the naive pre-refactor
  formulation: plain (uninstrumented) dense generation produces the same
  samples, and the recorded per-step ``BitWidthStats`` match a reference
  implementation that unfolds twice, pads with ``np.pad`` and concatenates
  per-batch row differences.
"""

import pickle

import numpy as np
import pytest

from repro.core import ExecutionMode, RichTrace, classify
from repro.core.bitwidth import BitWidthStats, classify_many
from repro.core.bops import _bops_column
from repro.core.trace import DENSE_ID, MODE_ID, SPATIAL_ID, TEMPORAL_ID, Trace, TraceRecorder
from repro.hw import build_accelerator
from repro.nn import backends, functional as F
from repro.quant.qlayers import QConv2d, QLinear, _max_product, quantize_model
from repro.quant.quantizer import qrange
from repro.workloads import get_benchmark

from helpers import make_rich, make_tiny_engine
from oracles import derive_layer_step, layer_bops, layer_cycles

# Every bit-exactness invariant below must hold under every backend that can
# run here (the CI backend matrix additionally routes the whole suite through
# each one via REPRO_BACKEND).
BACKENDS = list(backends.available_backends())


def build_mixed_trace(num_steps=4):
    trace = RichTrace()
    for step in range(num_steps):
        for name, kwargs in [
            ("conv_a", {}),
            ("attn.qk", {"sub_ops": 2}),
            ("chained", {"chained": True}),
            ("silu_fed", {"producer": "silu"}),
        ]:
            trace.append(
                make_rich(step_index=step, name=name, temporal=step > 0, **kwargs)
            )
    return trace


# -- columnar store <-> dataclass views --------------------------------------

def test_rich_trace_view_round_trip():
    trace = build_mixed_trace()
    rebuilt = RichTrace(steps=list(trace))
    assert list(rebuilt) == list(trace)
    assert rebuilt.layer_names() == trace.layer_names()
    assert rebuilt.total_macs() == trace.total_macs()
    # negative indexing and slices behave like a list of records
    assert trace[-1] == trace.steps[-1]
    assert trace[1:3] == trace.steps[1:3]


def test_rich_trace_pickle_round_trip():
    trace = build_mixed_trace()
    clone = pickle.loads(pickle.dumps(trace))
    assert list(clone) == list(trace)
    # sealed clones must accept further appends
    clone.append(make_rich(step_index=9, name="late"))
    assert len(clone) == len(trace) + 1
    assert clone[-1].layer_name == "late"


def test_lowered_trace_pickle_and_views():
    trace = build_mixed_trace()
    lowered = trace.lower_modes(np.full(len(trace), TEMPORAL_ID))
    clone = pickle.loads(pickle.dumps(lowered))
    assert isinstance(clone, Trace)
    assert list(clone) == list(lowered)
    assert clone.total_bytes() == lowered.total_bytes()


def test_recorder_appends_through_columnar_store():
    rec = TraceRecorder()
    rec.set_step(3)
    step = make_rich(step_index=3, name="x")
    with rec:
        rec.record(step)
    assert rec.trace[0] == step


# -- fused classification ----------------------------------------------------

def test_classify_many_equals_merged_classify():
    rng = np.random.default_rng(7)
    arrays = [
        rng.integers(-260, 260, size=size).astype(dtype)
        for size, dtype in [(1, np.int64), (97, np.float64), (1000, np.float32)]
    ]
    merged = BitWidthStats.empty()
    for arr in arrays:
        merged = merged.merge(classify(arr))
    assert classify_many(*arrays) == merged


def test_classify_f32_matches_f64():
    rng = np.random.default_rng(11)
    values = rng.integers(-510, 511, size=4096).astype(np.float64)
    assert classify(values.astype(np.float32)) == classify(values)


# -- vectorized lowering == scalar lowering ----------------------------------

@pytest.mark.parametrize("bypass", ["chained", "sign_mask", "both", "none"])
@pytest.mark.parametrize(
    "mode", [ExecutionMode.DENSE, ExecutionMode.TEMPORAL, ExecutionMode.SPATIAL]
)
def test_lower_modes_matches_derive_layer_step(mode, bypass):
    trace = build_mixed_trace()
    lowered = trace.lower_modes(
        np.full(len(trace), MODE_ID[mode], dtype=np.int64), bypass
    )
    for rich, got in zip(trace, lowered):
        assert got == derive_layer_step(rich, mode, bypass)


def _temporal_else_spatial(trace):
    return np.where(trace.col("has_temporal"), TEMPORAL_ID, SPATIAL_ID)


def _cycling_modes(trace):
    """DENSE, TEMPORAL and SPATIAL records interleaved (dense included)."""
    return np.array([DENSE_ID, TEMPORAL_ID, SPATIAL_ID])[np.arange(len(trace)) % 3]


@pytest.mark.parametrize("zero_skipping", [True, False])
def test_vectorized_bops_match_scalar(zero_skipping):
    trace = build_mixed_trace()
    for modes in (_temporal_else_spatial(trace), _cycling_modes(trace)):
        lowered = trace.lower_modes(modes)
        column = _bops_column(lowered, zero_skipping)
        for i, step in enumerate(lowered):
            assert column[i] == layer_bops(step, zero_skipping)


@pytest.mark.parametrize("hardware", ["ITC", "Diffy", "Ditto", "Cambricon-D", "GPU"])
def test_vectorized_accelerator_matches_scalar(hardware):
    accel = build_accelerator(hardware)
    rich = build_mixed_trace()
    # The second lowering mixes DENSE records in, so the oracle also checks
    # the dense paths (Cambricon-D's outlier-PE routing, ITC's dense lanes).
    for modes in (_temporal_else_spatial(rich), _cycling_modes(rich)):
        trace = rich.lower_modes(modes)
        report = accel.run(trace)
        assert len(report) == len(trace)
        for step, layer in zip(trace, report.layers):
            ref = layer_cycles(accel, step)
            assert layer.layer_name == ref.layer_name
            assert layer.mode == ref.mode
            assert layer.cycles == ref.cycles
            assert layer.compute_cycles == ref.compute_cycles
            assert layer.memory_cycles == ref.memory_cycles
            assert layer.encode_cycles == ref.encode_cycles
            assert layer.vpu_cycles == ref.vpu_cycles
            assert layer.bytes_moved == ref.bytes_moved
            assert set(layer.energy_pj) == set(ref.energy_pj)
            for component, value in ref.energy_pj.items():
                assert layer.energy_pj[component] == pytest.approx(value, rel=1e-12)
        assert report.total_cycles == pytest.approx(
            sum(layer_cycles(accel, s).cycles for s in trace), rel=1e-12
        )
        np.testing.assert_array_equal(
            accel.cycles_array(trace), [layer.cycles for layer in report.layers]
        )


# -- bit-exactness vs the pre-refactor formulation ---------------------------

def _reference_conv_record(layer: QConv2d, q_in, diff):
    """The pre-refactor stats math: second unfold, np.pad, concatenate."""

    def naive_im2col(x, kernel, stride, padding):
        if padding:
            x = np.pad(
                x,
                ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                mode="constant",
            )
        n, c, h, w = x.shape
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        rows = np.empty((n, out_h * out_w, c * kernel * kernel))
        for b in range(n):
            idx = 0
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[
                        b,
                        :,
                        i * stride : i * stride + kernel,
                        j * stride : j * stride + kernel,
                    ]
                    rows[b, idx] = patch.ravel()
                    idx += 1
        return rows

    def spatial_diff_rows(mat):
        d = mat.copy()
        if mat.shape[0] > 1:
            d[1:] -= mat[:-1]
        return d

    cols = naive_im2col(
        np.asarray(q_in, dtype=np.float64),
        layer.kernel_size,
        layer.stride,
        layer.padding,
    )
    spatial = np.concatenate([spatial_diff_rows(batch) for batch in cols])
    return (
        classify(np.asarray(q_in, dtype=np.float64)),
        classify(spatial),
        None if diff is None else classify(np.asarray(diff, dtype=np.float64)),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("padding,stride", [(1, 1), (0, 1), (1, 2)])
def test_conv_stats_match_naive_reference(padding, stride, backend):
    rng = np.random.default_rng(5)
    weight = rng.standard_normal((6, 3, 3, 3))
    layer = QConv2d(weight, None, stride=stride, padding=padding)
    layer.layer_name = "conv"
    x0 = rng.standard_normal((2, 3, 8, 8))
    x1 = x0 + 0.05 * rng.standard_normal((2, 3, 8, 8))
    for mode, x in [
        (ExecutionMode.DENSE, x0),
        (ExecutionMode.TEMPORAL, x1),
    ]:
        layer.mode = mode
        with TraceRecorder() as rec, backends.use_backend(backend):
            layer(x)
        record = rec.trace[0]
        q_in = layer._prev_q_in
        diff = None
        if record.stats_temporal is not None:
            # reconstruct the integer difference the layer classified
            q_prev = layer.input_quant.quantize(x0)
            diff = np.asarray(q_in, dtype=np.float64) - q_prev
        dense, spatial, temporal = _reference_conv_record(layer, q_in, diff)
        assert record.stats_dense == dense
        assert record.stats_spatial == spatial
        assert record.stats_temporal == temporal


@pytest.mark.parametrize("backend", BACKENDS)
def test_f32_and_f64_conv_paths_identical(backend):
    """The exactness license holds per backend: f32 == f64 bit-for-bit."""
    rng = np.random.default_rng(9)
    weight = rng.standard_normal((4, 2, 3, 3))
    fast = QConv2d(weight, None, padding=1)
    slow = QConv2d(weight, None, padding=1)
    assert fast._use_f32
    slow._use_f32 = False
    slow._q_weight_f32 = None
    slow._cols_dtype = np.dtype(np.float64)
    for step in range(3):
        x = rng.standard_normal((1, 2, 6, 6))
        for layer in (fast, slow):
            layer.mode = (
                ExecutionMode.DENSE if step == 0 else ExecutionMode.TEMPORAL
            )
            layer.input_quant.scale = 0.05
        with TraceRecorder() as rec_fast, backends.use_backend(backend):
            out_fast = fast(x)
        with TraceRecorder() as rec_slow, backends.use_backend(backend):
            out_slow = slow(x)
        np.testing.assert_array_equal(out_fast, out_slow)
        assert rec_fast.trace[0] == rec_slow.trace[0]


def test_f32_gate_covers_difference_range():
    """The exactness gate must bound *difference* operands (2^bits - 1 wide).

    A 64-channel 3x3 conv (dot_len 576) passes the naive dense-operand bound
    (576 * 2^14 < 2^24) but a temporal-difference dot product can reach
    576 * 255 * 128 > 2^24, where float32 accumulation rounds.  Such layers
    must stay on the float64 path.
    """
    rng = np.random.default_rng(2)
    wide = QConv2d(rng.standard_normal((4, 64, 3, 3)), None, padding=1)
    assert not wide._use_f32  # dot_len 576 > 2^24 / 32640
    narrow = QConv2d(rng.standard_normal((4, 32, 3, 3)), None, padding=1)
    assert narrow._use_f32  # dot_len 288 <= 514
    # The reviewer's counterexample, end to end: saturated differences whose
    # exact dot product is odd and above 2^24 must survive bit-exactly.
    lin = QLinear(np.ones((1, 1000)), None)
    assert not lin._use_f32
    lin.input_quant.scale = 1.0
    lin.mode = ExecutionMode.DENSE
    lin(np.full((1, 1000), -128.0))
    lin.mode = ExecutionMode.TEMPORAL
    out = lin(np.concatenate([[[127.0]], np.full((1, 999), 127.0)], axis=1))
    # weights quantize to 127 with scale 1/127; the dequantized output is
    # exactly 1000 * 127 * 127 / 127 - any f32 rounding in the temporal
    # reconstruction (int dot 16_129_000 > 2^24) would show here.
    assert float(out.ravel()[0]) == 1000 * 127


@pytest.mark.parametrize("bits", range(2, 9))
def test_max_product_is_the_true_worst_case(bits):
    """Brute force: the gate's per-term bound is exactly max |d * v|."""
    qmin, qmax = qrange(bits)
    values = np.arange(qmin, qmax + 1)
    diffs = np.unique(np.subtract.outer(values, values))
    assert _max_product(bits) == np.abs(np.multiply.outer(diffs, values)).max()


def _linear_pair(weight, bias=None):
    """Two identical QLinears, the second pinned to the float64 GEMM."""
    fast = QLinear(weight, bias)
    slow = QLinear(weight, bias)
    slow._use_f32 = False
    slow._q_weight_f32 = None
    return fast, slow


def test_f32_gate_boundary_at_8_bits():
    """514 * 32640 < 2^24 <= 515 * 32640: the gate flips between them."""
    assert not QLinear(np.ones((1, 515)), None)._use_f32
    # The saturated odd counterexample at the last f32 length: a -128 ->
    # 127 step (differences of 255, one of 254) against weights of 127.
    lin, twin = _linear_pair(np.ones((1, 514)))
    assert lin._use_f32
    prev = np.full((1, 514), -128.0)
    cur = np.full((1, 514), 127.0)
    cur[0, 0] = 126.0
    for layer in (lin, twin):
        layer.input_quant.scale = 1.0
        layer.mode = ExecutionMode.DENSE
        layer(prev)
        layer.mode = ExecutionMode.TEMPORAL
    out, out_ref = lin(cur), twin(cur)
    # The f32 difference dot is (254 + 513 * 255) * 127 = 16_645_763: odd
    # and 131_453 below 2^24, so any rounding would show in the integer
    # accumulator (-128 * 514 * 127 + 16_645_763).
    assert float(lin._prev_out_int.ravel()[0]) == 127 * (126 + 513 * 127)
    np.testing.assert_array_equal(out, out_ref)


def test_dit_mlp2_layers_take_the_f32_gemm():
    """in_features 512 passes the tight gate (512 * 32640 < 2^24)."""
    model = quantize_model(get_benchmark("DiT").build_model())
    mlp2 = {
        name: layer._use_f32
        for name, layer in model.named_modules()
        if name.startswith("blocks.") and name.endswith(".mlp2")
    }
    assert mlp2 and all(mlp2.values()), mlp2


@pytest.mark.parametrize("backend", BACKENDS)
def test_f32_and_f64_linear_paths_identical_at_512(backend):
    """A 512-input QLinear (DiT's mlp2 shape) is bit-exact on f32 vs f64."""
    rng = np.random.default_rng(13)
    fast, slow = _linear_pair(
        rng.standard_normal((32, 512)), rng.standard_normal(32)
    )
    assert fast._use_f32
    for step in range(3):
        # Wide inputs against a tight scale: about half the operands clip,
        # so saturated temporal differences of +-255 occur.
        x = 4.0 * rng.standard_normal((2, 8, 512))
        for layer in (fast, slow):
            layer.mode = (
                ExecutionMode.DENSE if step == 0 else ExecutionMode.TEMPORAL
            )
            layer.input_quant.scale = 0.02
        with TraceRecorder() as rec_fast, backends.use_backend(backend):
            out_fast = fast(x)
        with TraceRecorder() as rec_slow, backends.use_backend(backend):
            out_slow = slow(x)
        np.testing.assert_array_equal(out_fast, out_slow)
        assert rec_fast.trace[0] == rec_slow.trace[0]
        assert rec_fast.trace[0].executed_mode is fast.mode


def test_pad_workspace_not_shared_across_padding_widths():
    """Two paddings with coinciding padded shapes must not share borders."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1, 2, 32, 32))  # padded shape (1,2,34,34), p=1
    b = rng.standard_normal((1, 2, 30, 30))  # padded shape (1,2,34,34), p=2
    F.im2col(a, 3, 1, 1)  # dirty the p=1 workspace interior
    cols, _ = F.im2col(b, 3, 1, 2)
    ref = np.pad(b, ((0, 0), (0, 0), (2, 2), (2, 2)), mode="constant")
    ref_cols, _ = F.im2col(ref, 3, 1, 0)
    np.testing.assert_array_equal(cols, ref_cols)


@pytest.mark.parametrize("backend", BACKENDS)
def test_instrumented_run_matches_plain_generation(backend):
    """Recording + single-pass sharing must not perturb the samples."""
    engine = make_tiny_engine(num_steps=4, backend=backend)
    assert engine.backend == backend
    assert engine.effective_backend == backend
    result = engine.run(seed=123)
    # Plain dense generation with no recorder and no temporal processing:
    # the Ditto algorithm is bit-exact, so samples must be identical.  The
    # plain run dispatches on the same backend as the engine - this pins
    # within-backend bit-exactness, the invariant every backend must keep.
    from repro.quant.qlayers import reset_model_state, set_model_mode

    reset_model_state(engine.qmodel)
    set_model_mode(engine.qmodel, ExecutionMode.DENSE)
    with backends.use_backend(backend):
        plain = engine.pipeline.generate(1, np.random.default_rng(123))
    np.testing.assert_array_equal(result.samples, plain)
