"""Query step and run loop: which inputs get computed, and pool bookkeeping."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paal import orchestrator
from paal.data import Dataset, generate, split_folds
from paal.models import build_ap_model, build_seg_model
from paal.nn import Conv2D
from paal.orchestrator import (_POOL_OUTPUTS, TrainConfig, _pool_inference,
                               evaluate, init_pool, query_step,
                               run_active_learning)
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
    state.assert_partition(np.arange(32))


def max_entropy_query_peak(n: int) -> int:
    """tracemalloc peak of a ``max_entropy`` query step on an n-image 32x32
    pool (4 classes), above what was live before it."""
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
        query_step(state, seg, ap, "max_entropy", pool, query_seed=5)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_query_step_holds_the_pool_posteriors_once():
    # a 400-image pool's posteriors take 6.55 MB; one chunk's forward adds
    # about 4 MB whatever the pool size, the 8->16 conv's patch matrix most
    posterior_bytes = {n: n * 4 * 32 * 32 * 4 for n in (400, 800)}
    peak = {n: max_entropy_query_peak(n) for n in posterior_bytes}
    assert peak[800] - peak[400] < 1.25 * (posterior_bytes[800]
                                           - posterior_bytes[400])
    assert peak[400] < 1.7 * posterior_bytes[400]


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


@pytest.mark.parametrize("wanted", OUTPUT_SETS,
                         ids=lambda s: "+".join(s) or "nothing")
def test_pool_inference_does_not_depend_on_the_chunk_size(
        wanted, dataset, inference_inputs, monkeypatch):
    seg, ap = inference_inputs
    ids = np.arange(3, 40)  # 37 ids: two default 16x16 chunks, the last short
    pixels = dataset.images[0].size

    def run(eval_pixels):
        monkeypatch.setattr(orchestrator, "EVAL_PIXELS", eval_pixels)
        return (_pool_inference(seg, ap, dataset, ids, wanted),
                evaluate(seg, dataset, ids))

    default, default_eval = run(orchestrator.EVAL_PIXELS)
    assert sorted(default) == sorted(wanted)
    for eval_pixels in (pixels, len(ids) * pixels):
        outputs, evaluated = run(eval_pixels)
        assert outputs.keys() == default.keys()
        for name, array in outputs.items():
            assert array.dtype == default[name].dtype
            assert array.tobytes() == default[name].tobytes(), name
        assert evaluated[0] == default_eval[0]
        assert evaluated[1].tobytes() == default_eval[1].tobytes()


def test_features_alone_skip_the_logits_conv(dataset, inference_inputs,
                                             monkeypatch):
    seg, ap = inference_inputs
    num_fg = dataset.num_fg
    ids = np.arange(40)
    conv_out_ch, chunks = [], []
    real_conv_forward = Conv2D.forward
    real_seg_forward = orchestrator.seg_forward

    def counting_conv_forward(layer, x, train=False):
        conv_out_ch.append(layer.out_ch)
        return real_conv_forward(layer, x, train)

    def counting_seg_forward(seg, images, *args, **kwargs):
        chunks.append(len(images))
        return real_seg_forward(seg, images, *args, **kwargs)

    monkeypatch.setattr(Conv2D, "forward", counting_conv_forward)
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


@pytest.mark.parametrize("corruption", ["overlap", "lost_id"])
def test_corrupted_pool_after_a_query_raises(corruption, dataset, monkeypatch):
    real_query_step = orchestrator.query_step

    def corrupting_query_step(state, *args, **kwargs):
        record = real_query_step(state, *args, **kwargs)
        if corruption == "overlap":
            state.labeled = np.union1d(state.labeled, state.unlabeled[:1])
        else:
            state.unlabeled = state.unlabeled[1:]
        return record

    monkeypatch.setattr(orchestrator, "query_step", corrupting_query_step)
    cfg = TrainConfig(max_epochs=3, warmup=1, silent_period=1,
                      query_interval=1)
    with pytest.raises(AssertionError, match="overlap|partition"):
        run_active_learning(dataset, np.arange(32), np.arange(32, 40),
                            "random", budget=0.25, iterations=2, cfg=cfg)


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
    report = run_active_learning(dataset, train_ids, val_ids, strategy,
                                 budget=0.3, iterations=3, cfg=cfg)
    assert len(report.epochs) == epochs
    assert len({row[0] for row in report.queries}) == 3  # iterations
