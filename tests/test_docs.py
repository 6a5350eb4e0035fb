"""The committed campaign configs and the README hold to the code."""

import os
from dataclasses import fields

import pytest

from paal import cli
from paal.experiment import ExperimentConfig, campaign_cells, load_config
from paal.orchestrator import TrainConfig

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

PROBE_TRAINING = TrainConfig(max_epochs=40, early_stop=40, lr0=0.01, warmup=10,
                             iq_patience=3)


@pytest.mark.parametrize("name,seeds,folds,train", [
    ("reference.cfg", [0], [0], TrainConfig()),
    ("probe.cfg", [0, 1], [0, 1, 2, 3, 4], PROBE_TRAINING),
], ids=["reference", "probe"])
def test_the_committed_campaigns_parse(name, seeds, folds, train):
    config = load_config(os.path.join(ROOT, "configs", name))
    assert config.dataset == "ref.bin"
    assert config.strategies == ["random", "max_entropy", "paal_full"]
    assert (config.budgets, config.iterations, config.split_seed) == ([0.3], [5], 7)
    assert (config.seeds, config.folds) == (seeds, folds)
    assert config.train == train
    assert len(campaign_cells(config)) == 3 * len(seeds) * len(folds)


def readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_the_readme_names_every_config_key_with_its_default():
    text = readme()
    for f in fields(ExperimentConfig):
        if f.name != "train":
            assert f"| `{f.name}` |" in text, f.name
    for f in fields(TrainConfig):
        assert f"| `{f.name}` | {f.default:g} |" in text, f.name


def test_the_readme_names_every_exit_code():
    text = readme()
    codes = [v for k, v in vars(cli).items() if k.startswith("EXIT_")]
    assert len(codes) == 5
    for code in codes:
        assert f"\n| {code} | " in text, code
