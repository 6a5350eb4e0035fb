"""Campaign config parsing: the training keys are the TrainConfig fields."""

from dataclasses import fields

import pytest

from paal.experiment import ConfigError, ExperimentConfig, parse_config_text
from paal.orchestrator import TrainConfig

BASE = "strategies = random\nbudgets = 0.3\nseeds = 0\ndataset = data.bin\n"


def test_every_training_setting_is_a_key_parsed_with_its_default_type():
    train_fields = [f for f in fields(TrainConfig) if f.name != "seed"]
    # a value per key that differs from its default (max_epochs stays the
    # largest, so warmup and silent_period remain valid)
    values = {f.name: f.default + (100 if f.name == "max_epochs" else 1)
              for f in train_fields}
    values["init_ratio"] = 0.1
    text = BASE + "".join(f"{k} = {v}\n" for k, v in values.items())
    train = parse_config_text(text).train
    for f in train_fields:
        got = getattr(train, f.name)
        assert type(got) is type(f.default), f.name
        assert got == values[f.name], f.name
    assert train.seed == TrainConfig().seed


@pytest.mark.parametrize("key", ["train", "seed"])
def test_train_and_seed_are_not_keys(key):
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config_text(BASE + f"{key} = 1\n")


def test_the_accepted_keys():
    campaign = {f.name for f in fields(ExperimentConfig)} - {"train"}
    train = {f.name for f in fields(TrainConfig)} - {"seed"}
    assert campaign == {"strategies", "budgets", "seeds", "iterations", "folds",
                        "dataset", "split_seed"}
    assert train == {"init_ratio", "max_epochs", "early_stop", "batch_size",
                     "silent_period", "iq_patience", "query_interval",
                     "warmup", "lr0", "lr_min", "weight_decay"}


def test_an_int_setting_rejects_a_float():
    with pytest.raises(ConfigError, match="bad config value"):
        parse_config_text(BASE + "max_epochs = 1.5\n")


def test_training_checks_exit_through_config_error():
    with pytest.raises(ConfigError, match="init_ratio must be in"):
        parse_config_text(BASE + "init_ratio = 1.5\n")
