"""Query step and run loop: which inputs get computed, and pool bookkeeping."""

import numpy as np
import pytest

from paal import orchestrator
from paal.data import generate
from paal.models import build_ap_model, build_seg_model, normalize_images
from paal.orchestrator import (TrainConfig, init_pool, query_step,
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
    state = init_pool(np.arange(32), 0.25, budget=8, iterations=2, seed=0)
    record = query_step(
        state, build_seg_model(1, num_fg + 1, seed=1),
        build_ap_model(1, num_fg + 1, seed=2), strategy,
        normalize_images(dataset.images), dataset.masks.astype(np.int64),
        TrainConfig(), num_fg, epoch=1, query_seed=5)

    needs = STRATEGIES[strategy].needs
    assert {f for f, v in handed.items() if v is not None} == set(needs)
    if needs:
        assert seg_calls
    else:
        assert seg_calls == []
    assert len(record.selected) == 4
    state.assert_partition(np.arange(32))


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
                      baseline_query_interval=1)
    with pytest.raises(AssertionError, match="overlap|partition"):
        run_active_learning(dataset, np.arange(32), np.arange(32, 40),
                            "random", budget=8, iterations=2, cfg=cfg)
