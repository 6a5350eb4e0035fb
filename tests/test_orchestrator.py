"""Query step and run loop: which inputs get computed, and pool bookkeeping."""

import contextlib
import itertools
import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal import orchestrator
from paal.data import Dataset, generate, split_folds
from paal.metrics import UNCERTAINTY_KINDS
from paal.models import Workspace, build_ap_model, build_seg_model
from paal.nn import Conv2D, NumericalError
from paal.orchestrator import (_POOL_OUTPUTS, Cell, Evaluator, EvaluatorError,
                               TrainConfig, _next_step,
                               _pool_inference, _val_decides, evaluate,
                               init_pool, query_step, run_active_learning)
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


def query_peak(kind: str, n: int) -> int:
    """tracemalloc peak of a query step scored by uncertainty ``kind`` on
    an n-image 32x32 pool (4 classes), above what was live before it."""
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
        query_step(state, seg, ap, kind, pool, query_seed=5)
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
               for s in itertools.combinations(_POOL_OUTPUTS, r)]


def maybe_evaluator(dataset, ap=None, split=True):
    """An evaluator forked on ``dataset``, its AP a copy of ``ap`` if given,
    or no evaluator (a null context) when not ``split``."""
    if not split:
        return contextlib.nullcontext()
    evaluator = Evaluator(dataset)
    if ap is not None:
        evaluator.start(ap)
    return evaluator


@pytest.mark.parametrize("wanted", OUTPUT_SETS,
                         ids=lambda s: "+".join(s) or "nothing")
def test_pool_inference_does_not_depend_on_the_chunk_size(
        wanted, dataset, inference_inputs, monkeypatch):
    seg, ap = inference_inputs
    ids = np.arange(3, 40)  # 37 ids: two default 16x16 chunks, the last short
    pixels = dataset.images[0].size

    def run(eval_pixels, evaluator):
        monkeypatch.setattr(orchestrator, "EVAL_PIXELS", eval_pixels)
        return (_pool_inference(seg, ap, dataset, ids, wanted, evaluator),
                evaluate(seg, dataset, ids, evaluator))

    default, default_eval = run(orchestrator.EVAL_PIXELS, None)
    assert sorted(default) == sorted(wanted)
    # one chunk per id, ten chunks (the last short) or one chunk, each pass
    # here alone or split with an evaluator (whose own chunks stay at the
    # default size)
    with Evaluator(dataset) as evaluator:
        evaluator.start(ap)
        for eval_pixels in (pixels, 4 * pixels, len(ids) * pixels):
            for ev in (None, evaluator):
                outputs, evaluated = run(eval_pixels, ev)
                assert outputs.keys() == default.keys()
                for name, array in outputs.items():
                    assert array.dtype == default[name].dtype
                    assert array.tobytes() == default[name].tobytes(), name
                assert evaluated[0] == default_eval[0]
                assert evaluated[1].tobytes() == default_eval[1].tobytes()


@pytest.mark.parametrize("n", [3, 100])
def test_a_pass_sizes_its_workspaces_for_its_largest_chunk(inference_inputs,
                                                           monkeypatch, n):
    # 16x16 images make 32-image chunks: 3 ids fit one short chunk, 100 ids
    # make four chunks, the evaluator's two of them sized in the evaluator
    sizes = []

    class Recorded(Workspace):
        def __init__(self, nets, b, h, w):
            sizes.append((os.getpid(), b))
            super().__init__(nets, b, h, w)

    monkeypatch.setattr(orchestrator, "Workspace", Recorded)
    data = numbered(n)
    step = orchestrator.EVAL_PIXELS // 256
    for split in (False, True):
        sizes.clear()
        with maybe_evaluator(data, split=split) as evaluator:
            _pool_inference(*inference_inputs, data, np.arange(n), ("probs",),
                            evaluator)
        assert sizes == [(os.getpid(), min(n, step))]


def numbered(n: int) -> Dataset:
    """n 16x16 images, every pixel of image i equal to i, so a chunk's
    first image names its first id."""
    images = np.broadcast_to(np.arange(n, dtype=np.uint8)[:, None, None],
                             (n, 16, 16)).copy()
    return Dataset(images, np.zeros_like(images), 3)


def first_id(images: np.ndarray) -> int:
    return round(float(images[0, 0, 0, 0]) * 255)


def failing_chunks(monkeypatch, data, *chunks):
    """One-image chunks of ``data``, of which those that start at the ids
    ``chunks`` raise ``ValueError("chunk <id>")`` from the seg net, in
    this process and in any evaluator forked after this."""
    real_seg_forward = orchestrator.seg_forward

    def seg_forward(seg, images, **kwargs):
        if first_id(images) in chunks:
            raise ValueError(f"chunk {first_id(images)}")
        return real_seg_forward(seg, images, **kwargs)

    monkeypatch.setattr(orchestrator, "seg_forward", seg_forward)
    monkeypatch.setattr(orchestrator, "EVAL_PIXELS", data.images[0].size)


def test_of_two_failing_chunks_the_earlier_ones_error_is_raised(
        inference_inputs, monkeypatch):
    # a serial pass raises chunk 1's error; split with an evaluator (ids
    # 6-11 there), chunk 8 fails there as well and chunk 1's still wins
    data = numbered(12)
    failing_chunks(monkeypatch, data, 1, 2, 8)
    for split in (False, True):
        with maybe_evaluator(data, split=split) as evaluator:
            with pytest.raises(ValueError, match="chunk 1"):
                _pool_inference(*inference_inputs, data, np.arange(12),
                                ("probs",), evaluator)


# which shares of a 12-chunk pass fail (ids 0-5 here, 6-11 in the
# evaluator), and whether an AP step sent before it fails: the error raised
@pytest.mark.parametrize("run,child,ap_step,raised", [
    (True, False, False, "chunk 1"),
    (False, True, False, "chunk 7"),
    (True, True, False, "chunk 1"),
    (False, False, True, "AP step"),
    (True, True, True, "AP step"),
], ids=["run", "evaluator", "both", "ap_step", "ap_step_and_both"])
def test_a_split_pass_raises_in_the_serial_order_and_stays_in_step(
        dataset, inference_inputs, monkeypatch, run, child, ap_step, raised):
    seg, ap = inference_inputs
    data = numbered(24)
    failing_chunks(monkeypatch, data, *[1] * run, *[7] * child)

    def failing_ap_step(*args):
        raise ValueError("AP step")

    monkeypatch.setattr(orchestrator, "ap_step", failing_ap_step)
    with maybe_evaluator(data, ap) as evaluator:
        if ap_step:
            evaluator.train_ap(np.arange(4), np.zeros((4, 4, 16, 16), np.float32),
                               0.01, 0.0, first=True)
        with pytest.raises(ValueError, match=raised):
            _pool_inference(seg, ap, data, np.arange(12), ("probs", "pred_acc"),
                            evaluator)
        # the next reply answers the next request: a val DSC, then a pass
        evaluator.submit(seg, np.arange(12, 24))
        mean, per_class = evaluator.result()
        expected = evaluate(seg, data, np.arange(12, 24))
        assert mean == expected[0] and np.array_equal(per_class, expected[1])
        split = _pool_inference(seg, ap, data, np.arange(12, 24), _POOL_OUTPUTS,
                                evaluator)
        serial = _pool_inference(seg, ap, data, np.arange(12, 24), _POOL_OUTPUTS)
        assert {k: v.tobytes() for k, v in split.items()} == \
            {k: v.tobytes() for k, v in serial.items()}


def sent_requests(monkeypatch) -> list[str]:
    """The kinds of the requests every evaluator sends from now on."""
    kinds = []
    send = Evaluator._send

    def recording(evaluator, kind, *args):
        kinds.append(kind)
        return send(evaluator, kind, *args)

    monkeypatch.setattr(Evaluator, "_send", recording)
    return kinds


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_a_query_beside_an_evaluator_sends_it_one_pass_or_none(
        strategy, dataset, inference_inputs, monkeypatch):
    # four-image chunks, so every pass splits; coreset reads the pool's and
    # the labeled set's features from one pass over every id, and random
    # runs no model and sends nothing
    seg, ap = inference_inputs
    monkeypatch.setattr(orchestrator, "EVAL_PIXELS", 4 * dataset.images[0].size)
    kinds = sent_requests(monkeypatch)
    rows = []
    for split in (False, True):
        state = init_pool(np.arange(32), 0.25, budget=0.25, iterations=2, seed=0)
        with maybe_evaluator(dataset, ap, split) as evaluator:
            kinds.clear()
            rows.append(without_wall_times(orchestrator.RunReport(
                queries=query_step(state, seg, ap, strategy, dataset,
                                   query_seed=5, evaluator=evaluator))))
    assert rows[1] == rows[0]
    assert kinds == (["infer"] if STRATEGIES[strategy].needs else [])


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


def without_wall_times(report):
    """The report with query_time_ms, the queries' last column, dropped."""
    report.queries = [row[:-1] for row in report.queries]
    return report


def runs_with_and_without_an_evaluator(dataset, train_ids, val_ids, cell, cfg):
    """The run's report without an evaluator, then with one."""
    with Evaluator(dataset) as evaluator:
        return [without_wall_times(run_active_learning(
                    dataset, train_ids, val_ids, cell, cfg, ev))
                for ev in (None, evaluator)]


def test_a_run_does_not_depend_on_where_its_chunks_run(monkeypatch):
    # eight-image chunks, so every pass beside an evaluator splits: each
    # query's and the calibration's, and at iq_patience 1, where every
    # epoch with a query left waits for it, the val DSC's too
    monkeypatch.setattr(orchestrator, "EVAL_PIXELS", 8 * 16 * 16)
    kinds = sent_requests(monkeypatch)
    dataset = generate(5, 120, 16, 16)
    train_ids, val_ids = split_folds(len(dataset), seed=5)[0]
    cell = Cell("paal_full", 0.3, 3, seed=0, fold=0)
    for iq_patience in (0, 1):
        cfg = TrainConfig(max_epochs=6, early_stop=6, iq_patience=iq_patience,
                          warmup=1, silent_period=1, lr0=0.03)
        kinds.clear()
        alone, beside = runs_with_and_without_an_evaluator(
            dataset, train_ids, val_ids, cell, cfg)
        assert alone.queries and alone.calibration
        assert beside == alone
        # one pass per query and the calibration's, and with iq_patience 1
        # each waiting epoch's val DSC too
        passes = len({row[0] for row in alone.queries}) + 1
        assert (kinds.count("infer") > passes) if iq_patience else \
            (kinds.count("infer") == passes)


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
    report, evaluated = runs_with_and_without_an_evaluator(
        dataset, train_ids, val_ids, Cell(strategy, 0.3, 3, seed=0, fold=0), cfg)
    assert len(report.epochs) == epochs
    assert len({row[0] for row in report.queries}) == 3  # iterations
    assert evaluated == report


@pytest.mark.parametrize("on_stall", [False, True], ids=["grid", "stall"])
def test_val_dsc_decides_exactly_where_it_can_change_the_next_step(on_stall):
    # brute force: the step after an epoch whose val DSC rose (a stall count
    # of 0) against the step after one whose did not (stalled + 1), with
    # two, one (the last) or no scheduled query left
    for iq_patience, early_stop, stalled, left, epoch in itertools.product(
            range(4), range(4), range(5), range(3), range(4)):
        cfg = TrainConfig(iq_patience=iq_patience, early_stop=early_stop,
                          query_interval=2)
        steps = {_next_step(on_stall, cfg, epoch, count, left)
                 for count in (0, stalled + 1)}
        assert _val_decides(on_stall, cfg, stalled, left > 0) == \
            (len(steps) > 1), (iq_patience, early_stop, stalled, left, epoch)


def test_the_evaluator_scores_what_evaluate_scores(dataset, inference_inputs):
    seg = inference_inputs[0]
    val_ids = np.arange(8, 40, 3)
    with Evaluator(dataset) as evaluator:
        for ids in (val_ids, val_ids[:5]):
            evaluator.submit(seg, ids)
            mean, per_class = evaluator.result()
            expected = evaluate(seg, dataset, ids)
            assert mean == expected[0]
            assert np.array_equal(per_class, expected[1])


@pytest.mark.parametrize("err", ["raise", "ignore"])
def test_the_evaluator_raises_what_evaluate_raises_under_the_callers_errstate(
        dataset, err):
    seg = build_seg_model(dataset.num_fg + 1, seed=1)
    for conv in seg.layers[0], seg.layers[2]:  # the second conv overflows
        conv.weight.value *= np.float32(1e30)
    with Evaluator(dataset) as evaluator, np.errstate(all=err):
        with pytest.raises(ArithmeticError) as expected:
            evaluate(seg, dataset, np.arange(8))
        evaluator.submit(seg, np.arange(8))
        with pytest.raises(type(expected.value), match=str(expected.value)):
            evaluator.result()
        evaluator.submit(seg, np.arange(8))  # it keeps serving
        with pytest.raises(type(expected.value)):
            evaluator.result()


def test_the_evaluator_ignores_sigint(dataset, inference_inputs):
    seg = inference_inputs[0]
    with Evaluator(dataset) as evaluator:
        evaluator.submit(seg, np.arange(8))  # it has set up its handler
        expected = evaluator.result()
        os.kill(evaluator.pid, signal.SIGINT)
        evaluator.submit(seg, np.arange(8))
        assert evaluator.result()[0] == expected[0]


@pytest.mark.parametrize("in_flight", [False, True])
def test_a_dead_evaluator_raises_evaluator_error(dataset, inference_inputs,
                                                 in_flight):
    seg = inference_inputs[0]
    with Evaluator(dataset) as evaluator:
        if in_flight:
            evaluator.submit(seg, np.arange(8))
        os.kill(evaluator.pid, signal.SIGKILL)
        message = (f"the validation evaluator \\(pid {evaluator.pid}\\) "
                   "died: killed by signal 9")
        with pytest.raises(EvaluatorError, match=message):
            # a request may still fit in the pipe of a child not yet gone
            evaluator.submit(seg, np.arange(8))
            evaluator.result()


# (stage that fails, where val DSC fails, on that process's n-th evaluation):
# train_epoch fails at epoch 1, with val(0) in flight; the query at epoch 1
# first scores val(1) on the calling thread; calibration fails after val(2),
# scored in the evaluator, is settled. Where val DSC fails, its error wins,
# as in the serial order
@pytest.mark.parametrize("stage,val_fails", [
    ("train_epoch", None), ("train_epoch", ("child", 1)),
    ("query_step", None), ("query_step", ("parent", 1)),
    ("calibration", None), ("calibration", ("child", 3)),
])
def test_an_error_while_val_dsc_is_unsettled_waits_for_it(dataset, monkeypatch,
                                                          stage, val_fails):
    parent = os.getpid()
    calls = {"evaluate": 0, "train_epoch": 0}

    def fake_evaluate(seg, dataset, ids, evaluator=None):
        calls["evaluate"] += 1
        where = "parent" if os.getpid() == parent else "child"
        if val_fails == (where, calls["evaluate"]):
            raise NumericalError("val DSC")
        return 0.5, np.zeros(dataset.num_fg)

    def fake_train_epoch(*args):
        calls["train_epoch"] += 1
        if stage == "train_epoch" and calls["train_epoch"] == 2:
            raise ValueError(stage)
        return 0.0, None

    def failing(*args, **kwargs):
        raise ValueError(stage)

    real_pool_inference = orchestrator._pool_inference

    def pool_inference(seg, ap, dataset, ids, wanted, evaluator=None):
        if stage == "calibration" and "pred_acc" in wanted:
            raise ValueError(stage)
        return real_pool_inference(seg, ap, dataset, ids, wanted, evaluator)

    monkeypatch.setattr(orchestrator, "evaluate", fake_evaluate)
    monkeypatch.setattr(orchestrator, "train_epoch", fake_train_epoch)
    monkeypatch.setattr(orchestrator, "_pool_inference", pool_inference)
    if stage == "query_step":
        monkeypatch.setattr(orchestrator, "query_step", failing)
    # random queries at epochs 1 and 2, so no epoch waits for its val DSC
    cfg = TrainConfig(max_epochs=3, early_stop=3, warmup=1, silent_period=1,
                      query_interval=1)
    with Evaluator(dataset) as evaluator:
        with pytest.raises(NumericalError if val_fails else ValueError,
                           match="val DSC" if val_fails else stage):
            run_active_learning(dataset, np.arange(32), np.arange(32, 40),
                                Cell("random", 0.25, 2, seed=0, fold=0), cfg,
                                evaluator=evaluator)


def trained_ap(dataset, seed, cfg, epochs, evaluator=None):
    """A run's AP after ``epochs`` epochs on the dataset's first 40 images,
    trained here or in ``evaluator``: each param's bytes, and each epoch's
    AP loss as bytes (None while silent)."""
    seg = build_seg_model(dataset.num_fg + 1, seed=seed)
    ap = build_ap_model(dataset.num_fg + 1, seed=seed + 1)
    if evaluator is not None:
        evaluator.start(ap)
    losses = []
    for epoch in range(epochs):
        _, ap_loss = orchestrator.train_epoch(
            seg, ap, dataset, np.arange(40), epoch, cfg,
            np.random.default_rng([seed, epoch]), evaluator)
        if evaluator is not None:
            ap_loss = evaluator.sync_ap(ap)
        losses.append(None if ap_loss is None else np.float64(ap_loss).tobytes())
    return [p.value.tobytes() for p in ap.params()], losses


def test_an_ap_trained_in_the_evaluator_is_bit_identical(dataset):
    # 3 batches an epoch (16, 16, 8), the silent period ends mid-run, and
    # two runs share one evaluator, so the second must start from its own
    # weights and fresh Adam state
    cfg = TrainConfig(max_epochs=6, warmup=1, silent_period=2, lr0=0.03)
    with Evaluator(dataset) as evaluator:
        for seed in (0, 1):
            local = trained_ap(dataset, seed, cfg, 5)
            assert local[1][:2] == [None, None] and None not in local[1][2:]
            assert trained_ap(dataset, seed, cfg, 5, evaluator) == local


def test_beside_an_evaluator_this_process_runs_no_ap_backward(dataset,
                                                              monkeypatch):
    # without an evaluator the AP trains here, so a fallback would show
    shapes = []
    backward = Conv2D.backward

    def recording(layer, *args, **kwargs):
        shapes.append((layer.in_ch, layer.out_ch))
        return backward(layer, *args, **kwargs)

    monkeypatch.setattr(Conv2D, "backward", recording)
    ap_conv = (dataset.num_fg + 2, 8)  # the image and the posteriors in
    cfg = TrainConfig(max_epochs=3, warmup=1, silent_period=1)
    cell = Cell("paal_full", 0.25, 2, seed=0, fold=0)
    with Evaluator(dataset) as evaluator:
        for ev in (evaluator, None):
            shapes.clear()
            run_active_learning(dataset, np.arange(32), np.arange(32, 40),
                                cell, cfg, evaluator=ev)
            assert (1, 8) in shapes
            assert (ap_conv in shapes) == (ev is None)


# The AP's third step (epoch 2's first batch, at 2 batches an epoch)
# overflows, in whichever process trains it, and the later steps succeed,
# so only the first error can be the serial one; the parent's own failure
# comes at epoch 2's second segmentation step, and val(2) is each
# process's third evaluation. A grid entry sends every epoch's val DSC to
# the evaluator; a stall entry at iq_patience 1 scores each one in-process
@pytest.mark.parametrize("trigger", ["grid", "stall"])
@pytest.mark.parametrize("also_fails", [None, "parent", "val"])
def test_an_ap_error_in_the_evaluator_is_the_serial_runs_error(
        dataset, monkeypatch, trigger, also_fails):
    calls = {"ap_step": 0, "dice_ce_loss": 0, "evaluate": 0}
    real = {name: getattr(orchestrator, name) for name in calls}

    def overflowing_ap_step(ap, *args):
        calls["ap_step"] += 1
        if calls["ap_step"] != 3:
            return real["ap_step"](ap, *args)
        weight = ap.layers[0].weight  # overflows once, then is as it was
        kept = weight.value.copy()
        weight.value[...] = np.float32(1e38)
        try:
            return real["ap_step"](ap, *args)
        finally:
            weight.value[...] = kept

    def dice_ce_loss(*args):
        calls["dice_ce_loss"] += 1
        if also_fails == "parent" and calls["dice_ce_loss"] == 6:
            raise ValueError("segmentation step")
        return real["dice_ce_loss"](*args)

    def rising_evaluate(seg, dataset, ids, evaluator=None):
        calls["evaluate"] += 1  # val DSC always rises: no stall, no query
        if also_fails == "val" and calls["evaluate"] == 3:
            raise NumericalError("val DSC")
        return calls["evaluate"] / 10, np.zeros(dataset.num_fg)

    for name, fake in (("ap_step", overflowing_ap_step),
                       ("dice_ce_loss", dice_ce_loss),
                       ("evaluate", rising_evaluate)):
        monkeypatch.setattr(orchestrator, name, fake)
    strategy = "random" if trigger == "grid" else "paal_ap_only"
    cfg = TrainConfig(max_epochs=5, early_stop=5, warmup=1, silent_period=1,
                      iq_patience=1, query_interval=100, batch_size=4,
                      init_ratio=0.25)
    errors = []
    with Evaluator(dataset) as evaluator:  # its counts start at 0 too
        for ev in (None, evaluator):
            calls.update(dict.fromkeys(calls, 0))
            with pytest.raises(Exception) as raised, \
                    np.errstate(over="raise", invalid="raise", divide="raise"):
                run_active_learning(dataset, np.arange(32), np.arange(32, 40),
                                    Cell(strategy, 0.25, 1, seed=0, fold=0),
                                    cfg, evaluator=ev)
            errors.append((type(raised.value), str(raised.value)))
    assert errors[0] == (FloatingPointError, "overflow encountered in matmul")
    assert errors[1] == errors[0]
