"""Query step and run loop: which inputs get computed, and pool bookkeeping."""

import ctypes
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paal
from paal import orchestrator
from paal.data import Dataset, generate, split_folds
from paal.metrics import UNCERTAINTY_KINDS
from paal.models import Workspace, build_ap_model, build_seg_model
from paal.nn import Conv2D, NumericalError
from paal.orchestrator import (_POOL_OUTPUTS, Cell, TrainConfig, _in_threads,
                               _pool_inference, evaluate, init_pool,
                               query_step, run_active_learning)
from paal.strategies import STRATEGIES

INPUT_FIELDS = ("probs", "features", "pred_acc", "labeled_features")


@pytest.fixture(scope="module")
def dataset():
    return generate(3, 40, 16, 16)


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_query_step_computes_exactly_the_declared_inputs(strategy, dataset,
                                                         monkeypatch):
    seg_calls = []
    handed = {}
    real_seg_forward, real_select = orchestrator.seg_forward, orchestrator.select

    def counting_seg_forward(seg, images, *args, **kwargs):
        seg_calls.append(len(images))
        return real_seg_forward(seg, images, *args, **kwargs)

    def capturing_select(name, ctx):
        handed.update({f: getattr(ctx, f) for f in INPUT_FIELDS})
        return real_select(name, ctx)

    monkeypatch.setattr(orchestrator, "seg_forward", counting_seg_forward)
    monkeypatch.setattr(orchestrator, "select", capturing_select)
    num_fg = dataset.num_fg
    state = init_pool(np.arange(32), 0.25, budget=0.25, iterations=2, seed=0)
    before = len(state.labeled)
    rows = query_step(
        state, build_seg_model(num_fg + 1, seed=1),
        build_ap_model(num_fg + 1, seed=2), strategy, dataset, query_seed=5)

    needs = STRATEGIES[strategy].needs
    assert {f for f, v in handed.items() if v is not None} == set(needs)
    if needs:
        assert seg_calls
    else:
        assert seg_calls == []
    assert len(rows) == 4
    assert np.isin([row[1] for row in rows], state.labeled).all()
    assert len(state.labeled) == before + 4


def query_peak(kind: str, n: int, threads: int = 1) -> int:
    """tracemalloc peak of a query step scored by uncertainty ``kind`` on
    an n-image 32x32 pool (4 classes) on ``threads`` threads, above what
    was live before it."""
    rng = np.random.default_rng(73)
    images = rng.integers(0, 256, size=(5 * n // 4, 32, 32), dtype=np.uint8)
    pool = Dataset(images, rng.integers(0, 4, size=images.shape, dtype=np.uint8), 3)
    seg, ap = build_seg_model(4, seed=1), build_ap_model(4, seed=2)
    state = init_pool(np.arange(len(images)), 0.2, budget=0.1, iterations=1,
                      seed=0)
    assert len(state.unlabeled) == n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        query_step(state, seg, ap, kind, pool, query_seed=5, threads=threads)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def posterior_bytes(n: int) -> int:
    return n * 4 * 32 * 32 * 4


def test_a_query_step_holds_the_pool_posteriors_once():
    # a 400-image pool's posteriors take 6.55 MB; one chunk's forward adds
    # about 4 MB whatever the pool size, the 8->16 conv's patch matrix most
    peak = {n: query_peak("max_entropy", n) for n in (400, 800)}
    assert peak[800] - peak[400] < 1.25 * (posterior_bytes(800)
                                           - posterior_bytes(400))
    assert peak[400] < 1.7 * posterior_bytes(400)


@pytest.mark.parametrize("kind", UNCERTAINTY_KINDS)
def test_no_uncertainty_kind_copies_the_pool_posteriors(kind):
    # each kind scores a block of samples at a time; a whole-pool margin
    # partition or float64 top-1 map would read 3.0x or 2.0x
    assert query_peak(kind, 400) < 1.7 * posterior_bytes(400)


def chunk_peak() -> int:
    """tracemalloc peak of one default chunk's forward on 32x32 images,
    posteriors and features, its outputs included."""
    step = orchestrator.EVAL_PIXELS // (32 * 32)
    rng = np.random.default_rng(73)
    images = rng.integers(0, 256, size=(step, 32, 32), dtype=np.uint8)
    chunk = Dataset(images, np.zeros_like(images), 3)
    seg, ap = build_seg_model(4, seed=1), build_ap_model(4, seed=2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _pool_inference(seg, ap, chunk, np.arange(step), ("probs", "features"))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", [2, 3])
def test_each_inference_thread_adds_one_chunks_forward(threads):
    # 400 images: 6.55 MB of posteriors, and each thread keeps one chunk's
    # forward (3.49 MB) in flight; a thread holding two, or a second copy
    # of the posteriors, would break the bound
    bound = posterior_bytes(400) + threads * 1.1 * chunk_peak()
    assert query_peak("max_entropy", 400, threads) < bound


def test_a_helper_thread_leaves_no_chunks_forward_in_its_arena():
    # glibc gives the helper thread its own malloc arena, which under the
    # pinned trim threshold keeps its high-water: 3.40 MiB (one chunk's
    # forward) when the helper allocated its conv buffers, 0.61 MiB in
    # buffers the calling thread allocated
    if not hasattr(ctypes.CDLL(None), "malloc_info"):
        pytest.skip("the C library has no malloc_info to report its arenas")
    src = os.path.dirname(os.path.dirname(os.path.abspath(paal.__file__)))
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "malloc_arenas.py")
    proc = subprocess.run([sys.executable, probe], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    main_arena, *others = json.loads(proc.stdout)
    assert main_arena > 0
    assert all(size < 1.5 * 2**20 for size in others), others


def test_the_initial_count_is_the_ratio_in_decimals():
    # 0.07 * 100 is 7.000000000000001 in floats
    state = init_pool(np.arange(100), 0.07, budget=0.93, iterations=1, seed=0)
    assert len(state.labeled) == 7


def _clamped_sizes(budget: int, iterations: int, pool: int) -> tuple[int, ...]:
    """Query sizes as a loop that clamps each query to what is left would
    spend them: at most ``budget // iterations`` (one when that is 0) per
    query, while iterations, budget and pool last."""
    batch, queried, sizes = max(budget // iterations, 1), 0, []
    while len(sizes) < iterations and queried < budget and pool > 0:
        take = min(batch, budget - queried, pool)
        sizes.append(take)
        queried += take
        pool -= take
    return tuple(sizes)


@given(st.integers(5, 300), st.sampled_from([50, 70, 100, 250]),
       st.data(), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_the_schedule_is_what_a_clamping_loop_spends(n, init_permille, data,
                                                     iterations):
    # ratios in thousandths, whose str is their decimal: 0.293, not 0.29299…
    budget_permille = data.draw(st.integers(0, 1000 - init_permille))
    state = init_pool(np.arange(n), init_permille / 1000,
                      budget_permille / 1000, iterations, seed=0)
    budget = budget_permille * n // 1000
    assert state.schedule == _clamped_sizes(budget, iterations,
                                            len(state.unlabeled))


# the remainder of budget // iterations goes unspent
@pytest.mark.parametrize("n,budget,iterations,schedule", [
    (240, 0.3, 5, (14,) * 5),    # ref_serial's cell: 70 of 72
    (480, 0.1, 10, (4,) * 10),   # query_heavy's cell: 40 of 48
    (100, 0.03, 5, (1,) * 3),    # a budget below the iterations
    (100, 0.0, 5, ()),           # no budget, no query
])
def test_the_schedule_of_pinned_cells(n, budget, iterations, schedule):
    state = init_pool(np.arange(n), 0.05, budget, iterations, seed=0)
    assert state.schedule == schedule
    assert state.can_query == bool(schedule)


@pytest.fixture(scope="module")
def inference_inputs(dataset):
    return (build_seg_model(dataset.num_fg + 1, seed=1),
            build_ap_model(dataset.num_fg + 1, seed=2))


OUTPUT_SETS = [s for r in range(len(_POOL_OUTPUTS) + 1)
               for s in combinations(_POOL_OUTPUTS, r)]


@pytest.fixture
def short_switch_interval():
    """Switch threads every microsecond, so helper threads interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("wanted", OUTPUT_SETS,
                         ids=lambda s: "+".join(s) or "nothing")
def test_pool_inference_does_not_depend_on_the_chunk_size(
        wanted, dataset, inference_inputs, monkeypatch, short_switch_interval):
    seg, ap = inference_inputs
    ids = np.arange(3, 40)  # 37 ids: two default 16x16 chunks, the last short
    pixels = dataset.images[0].size

    def run(eval_pixels, threads):
        monkeypatch.setattr(orchestrator, "EVAL_PIXELS", eval_pixels)
        return (_pool_inference(seg, ap, dataset, ids, wanted, threads),
                evaluate(seg, dataset, ids, threads))

    default, default_eval = run(orchestrator.EVAL_PIXELS, 1)
    assert sorted(default) == sorted(wanted)
    # one chunk per id, ten chunks (the last short) or one chunk, each on
    # one, two or three threads (more than a 2-core box has cores)
    for eval_pixels in (pixels, 4 * pixels, len(ids) * pixels):
        for threads in (1, 2, 3):
            outputs, evaluated = run(eval_pixels, threads)
            assert outputs.keys() == default.keys()
            for name, array in outputs.items():
                assert array.dtype == default[name].dtype
                assert array.tobytes() == default[name].tobytes(), name
            assert evaluated[0] == default_eval[0]
            assert evaluated[1].tobytes() == default_eval[1].tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_in_threads_never_hands_one_slot_to_two_threads(threads,
                                                        short_switch_interval):
    caller, lock = threading.get_ident(), threading.Lock()
    busy, owner, done = set(), {}, []

    def work(slot, item):
        me = threading.get_ident()
        with lock:
            assert slot not in busy
            busy.add(slot)
            assert owner.setdefault(slot, me) == me
        time.sleep(1e-4)  # so the other threads take items meanwhile
        with lock:
            busy.remove(slot)
            done.append(item)

    _in_threads(work, range(40), threads)
    assert sorted(done) == list(range(40))
    assert set(owner) <= set(range(threads))
    assert owner.get(0, caller) == caller


@pytest.mark.parametrize("n", [3, 100])
def test_a_pass_sizes_its_workspaces_for_its_largest_chunk(inference_inputs,
                                                           monkeypatch, n):
    # 16x16 images make 32-image chunks: 3 ids fit one short chunk, 100 ids
    # make four chunks, three in flight at once on 3 threads
    sizes = []

    class Recorded(Workspace):
        def __init__(self, nets, b, h, w):
            sizes.append(b)
            super().__init__(nets, b, h, w)

    monkeypatch.setattr(orchestrator, "Workspace", Recorded)
    _pool_inference(*inference_inputs, numbered(n), np.arange(n),
                    ("probs",), 3)
    step = orchestrator.EVAL_PIXELS // 256
    assert sizes == [min(n, step)] * min(3, -(-n // step))


def numbered(n: int) -> Dataset:
    """n 16x16 images, every pixel of image i equal to i, so a chunk's
    first image names its first id."""
    images = np.broadcast_to(np.arange(n, dtype=np.uint8)[:, None, None],
                             (n, 16, 16)).copy()
    return Dataset(images, np.zeros_like(images), 3)


def first_id(images: np.ndarray) -> int:
    return round(float(images[0, 0, 0, 0]) * 255)


def test_a_helper_threads_overflow_raises_under_the_callers_errstate(
        inference_inputs, monkeypatch):
    # only chunks a helper thread runs overflow, so the caller's
    # over="raise" reaches the failure only through the helper's copy of
    # its context; without it numpy would only warn
    data = numbered(12)
    caller, helped = threading.get_ident(), threading.Event()
    real_seg_forward = orchestrator.seg_forward

    def seg_forward(seg, images, **kwargs):
        if threading.get_ident() != caller:
            helped.set()
            np.float32(3e38) * np.float32(10)
        elif first_id(images) > 0:  # a helper starts a chunk meanwhile
            assert helped.wait(10)
        return real_seg_forward(seg, images, **kwargs)

    monkeypatch.setattr(orchestrator, "seg_forward", seg_forward)
    monkeypatch.setattr(orchestrator, "EVAL_PIXELS", data.images[0].size)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            _pool_inference(*inference_inputs, data, np.arange(12),
                            ("probs",), 2)


def test_of_two_failing_chunks_the_earlier_ones_error_is_raised(
        inference_inputs, monkeypatch):
    # chunk 2 fails first, on one thread, while chunk 1 waits for it on
    # the other: a serial pass would have raised chunk 1's error
    data = numbered(12)
    second_failed = threading.Event()
    real_seg_forward = orchestrator.seg_forward

    def seg_forward(seg, images, **kwargs):
        chunk = first_id(images)
        if chunk == 2:
            second_failed.set()
            raise ValueError("chunk 2")
        if chunk == 1:
            assert second_failed.wait(10)
            raise ValueError("chunk 1")
        return real_seg_forward(seg, images, **kwargs)

    monkeypatch.setattr(orchestrator, "seg_forward", seg_forward)
    monkeypatch.setattr(orchestrator, "EVAL_PIXELS", data.images[0].size)
    with pytest.raises(ValueError, match="chunk 1"):
        _pool_inference(*inference_inputs, data, np.arange(12), ("probs",), 2)


def test_features_alone_skip_the_logits_conv(dataset, inference_inputs,
                                             monkeypatch):
    seg, ap = inference_inputs
    num_fg = dataset.num_fg
    ids = np.arange(40)
    conv_out_ch, chunks = [], []
    real_conv_kernel = Conv2D.forward_padded
    real_seg_forward = orchestrator.seg_forward

    def counting_conv_kernel(layer, xp, b, h, w, **buffers):
        # inference runs every conv through the padded kernel alone
        conv_out_ch.append(layer.out_ch)
        return real_conv_kernel(layer, xp, b, h, w, **buffers)

    def counting_seg_forward(seg, images, *args, **kwargs):
        chunks.append(len(images))
        return real_seg_forward(seg, images, *args, **kwargs)

    monkeypatch.setattr(Conv2D, "forward_padded", counting_conv_kernel)
    monkeypatch.setattr(orchestrator, "seg_forward", counting_seg_forward)
    monkeypatch.setattr(orchestrator, "EVAL_PIXELS", 12 * dataset.images[0].size)
    lazy = _pool_inference(seg, ap, dataset, ids, ("features",))["features"]
    assert chunks == [12, 12, 12, 4]  # the tracer counts pool images here
    assert conv_out_ch and num_fg + 1 not in conv_out_ch

    conv_out_ch.clear()
    full = _pool_inference(seg, ap, dataset, ids, _POOL_OUTPUTS)["features"]
    assert conv_out_ch.count(num_fg + 1) == 4
    assert lazy.tobytes() == full.tobytes()


def test_actual_dsc_is_one_call_on_the_argmax_labels(dataset, inference_inputs,
                                                     monkeypatch):
    seg, ap = inference_inputs
    ids = np.arange(3, 40)  # two default 16x16 chunks
    scored = []
    real_dsc = orchestrator.dsc_per_class_batch

    def counting_dsc(pred, true, k):
        scored.append(len(pred))
        return real_dsc(pred, true, k)

    monkeypatch.setattr(orchestrator, "dsc_per_class_batch", counting_dsc)
    out = _pool_inference(seg, ap, dataset, ids, ("probs", "actual"))
    assert scored == [len(ids)]
    want = real_dsc(out["probs"].argmax(axis=1), dataset.masks[ids],
                    dataset.num_fg)
    assert out["actual"].tobytes() == want.tobytes()


@pytest.mark.parametrize("wanted,net", [("actual", "seg"), ("features", "seg"),
                                        ("pred_acc", "ap")])
def test_a_non_finite_model_output_raises(dataset, wanted, net):
    # one NaN weight in the first conv of the net the output reads last:
    # the AP case keeps the posteriors finite, so only pred_acc can trip
    nets = {"seg": build_seg_model(dataset.num_fg + 1, seed=1),
            "ap": build_ap_model(dataset.num_fg + 1, seed=2)}
    nets[net].layers[0].weight.value[0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite model output"):
        _pool_inference(nets["seg"], nets["ap"], dataset, np.arange(3, 40),
                        (wanted,))


@given(st.integers(5, 200), st.sampled_from([50, 100, 250]), st.data(),
       st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_each_query_labels_its_scheduled_ids_and_keeps_the_partition(
        dataset, inference_inputs, n, init_permille, data, iterations):
    # sparse ids, so a position in the pool is not its id; "random" reads
    # no model output, so no id indexes the dataset
    ids = np.array(data.draw(st.lists(st.integers(0, 10 * n), min_size=n,
                                      max_size=n, unique=True)))
    budget_permille = data.draw(st.integers(0, 1000 - init_permille))
    state = init_pool(ids, init_permille / 1000, budget_permille / 1000,
                      iterations, seed=0)

    def assert_partition():
        labeled, unlabeled = state.labeled, state.unlabeled
        assert (np.diff(labeled) > 0).all() and (np.diff(unlabeled) > 0).all()
        assert np.array_equal(np.sort(np.concatenate([labeled, unlabeled])),
                              state.ids)

    assert np.array_equal(state.ids, np.sort(ids))
    assert_partition()
    while state.can_query:
        t, before = state.t, state.labeled
        rows = query_step(state, *inference_inputs, "random", dataset,
                          query_seed=t)
        new = np.setdiff1d(state.labeled, before)
        assert len(new) == state.schedule[t - 1]
        assert np.array_equal(new, [row[1] for row in rows])
        assert np.isin(before, state.labeled).all()
        assert state.t == t + 1
        assert_partition()


def test_a_nan_val_dsc_counts_as_a_stall(dataset, monkeypatch):
    # iq_patience 2: queries after epochs 4 and 6. A NaN that reset the
    # count, a NaN kept as the best (the first 0.6 a stall) or a tie that
    # reset it (the second 0.6) would each move them
    val = iter([0.5, np.nan, 0.6, 0.6, np.nan, np.nan, np.nan, np.nan])
    monkeypatch.setattr(orchestrator, "train_epoch", lambda *args: (0.0, None))
    monkeypatch.setattr(orchestrator, "evaluate",
                        lambda *args: (next(val), np.zeros(dataset.num_fg)))
    cfg = TrainConfig(max_epochs=8, warmup=1, silent_period=1, iq_patience=2)
    report = run_active_learning(dataset, np.arange(32), np.arange(32, 40),
                                 Cell("paal_ap_only", 0.375, 3, seed=0, fold=0),
                                 cfg)
    assert [row[1] for row in report.epochs] == [1, 1, 1, 1, 2, 2, 3, 3]


def test_a_run_does_not_depend_on_its_inference_threads(monkeypatch):
    # eight-image chunks: the pool spans several, so two threads share them
    monkeypatch.setattr(orchestrator, "EVAL_PIXELS", 8 * 16 * 16)
    dataset = generate(5, 120, 16, 16)
    train_ids, val_ids = split_folds(len(dataset), seed=5)[0]
    cfg = TrainConfig(max_epochs=6, early_stop=6, iq_patience=0, warmup=1,
                      silent_period=1, lr0=0.03)
    reports = [run_active_learning(dataset, train_ids, val_ids,
                                   Cell("paal_full", 0.3, 3, seed=0, fold=0),
                                   cfg, threads)
               for threads in (1, 2)]
    for report in reports:  # query_time_ms, the last column, is a wall time
        report.queries = [row[:-1] for row in report.queries]
    assert reports[0].queries and reports[0].calibration
    assert reports[1] == reports[0]


# (strategy, early_stop, iq_patience, lr0) -> epochs run out of max_epochs=40;
# recorded when early stopping kept its own stall counter beside the trigger's
@pytest.mark.parametrize("strategy,early_stop,iq_patience,lr0,epochs", [
    ("random", 3, 0, 0.03, 10),
    ("paal_full", 4, 1, 0.03, 10),
    ("max_entropy", 5, 2, 0.03, 23),
    ("paal_full", 6, 3, 0.05, 26),
])
def test_early_stopping_epoch_counts(strategy, early_stop, iq_patience, lr0,
                                     epochs):
    dataset = generate(5, 120, 16, 16)
    train_ids, val_ids = split_folds(len(dataset), seed=5)[0]
    cfg = TrainConfig(max_epochs=40, early_stop=early_stop,
                      iq_patience=iq_patience, warmup=2, silent_period=2,
                      query_interval=2, lr0=lr0)
    report = run_active_learning(dataset, train_ids, val_ids,
                                 Cell(strategy, 0.3, 3, seed=0, fold=0), cfg)
    assert len(report.epochs) == epochs
    assert len({row[0] for row in report.queries}) == 3  # iterations
