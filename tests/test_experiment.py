"""Campaign config parsing (the training keys are the TrainConfig fields)
and the bytes `paal report` writes."""

from dataclasses import fields

import pytest

from paal.data import NUM_FOLDS
from paal.experiment import (ConfigError, ExperimentConfig, parse_config_text,
                             write_report)
from paal.orchestrator import TrainConfig

BASE = "strategies = random\nbudgets = 0.3\nseeds = 0\ndataset = data.bin\n"


def test_every_training_setting_is_a_key_parsed_with_its_default_type():
    train_fields = fields(TrainConfig)
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


@pytest.mark.parametrize("key", ["train", "seed"])
def test_train_and_seed_are_not_keys(key):
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config_text(BASE + f"{key} = 1\n")


def test_the_accepted_keys():
    campaign = {f.name for f in fields(ExperimentConfig)} - {"train"}
    train = {f.name for f in fields(TrainConfig)}
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


@pytest.mark.parametrize("budget,accepted", [("0.93", True), ("0.94", False)])
def test_the_budget_limit_is_one_minus_init_ratio_in_decimals(budget, accepted):
    # 1 - 0.07 is 0.9299999999999999 in floats
    text = BASE + f"init_ratio = 0.07\nbudgets = {budget}\n"
    if accepted:
        assert parse_config_text(text).budgets == [float(budget)]
    else:
        with pytest.raises(ConfigError, match="budgets must be ratios"):
            parse_config_text(text)


def test_folds_follow_the_fold_count():
    assert parse_config_text(BASE).folds == list(range(NUM_FOLDS))
    with pytest.raises(ConfigError, match=f"indices in 0..{NUM_FOLDS - 1}"):
        parse_config_text(BASE + f"folds = {NUM_FOLDS}\n")


# a hand-made results directory: two random seeds and two paal_full budgets,
# a ratio with no random count, a query group with no timings, and a
# one-sample calibration run. Each mean's summation order is pinned: the
# coreset runs (best val DSC 0.1, 0.2, 0.3) are listed by seed 2, 10, 1, so
# summing them in sorted run_id order (summary) and in results.csv order
# (curves) gives different last bits, as do random seed 1's query iterations
# 1, 2, 10 taken in sorted string order and coreset seed 2's calibration
# samples 2, 10, 1 taken in sorted id order
REPORT_INPUTS = {
    "results.csv": """\
run_id,strategy,budget,seed,fold,epoch,iteration,labeled_count,labeled_ratio,seg_loss,ap_loss,val_dsc_mean,val_dsc_c1,val_dsc_c2
random_b0.3_s0_f0,random,0.3,0,0,0,1,4,0.1,0.9,,0.1,0.0,0.2
random_b0.3_s0_f0,random,0.3,0,0,1,2,6,0.15,0.8,,0.7,0.6,0.8
random_b0.3_s0_f0,random,0.3,0,0,2,2,6,0.15,0.7,,0.2,0.1,0.3
random_b0.3_s1_f0,random,0.3,1,0,0,1,4,0.1,0.9,,0.3,0.2,0.4
random_b0.3_s1_f0,random,0.3,1,0,1,2,6,0.15,0.8,,0.2,0.1,0.3
paal_full_b0.3_s0_f0,paal_full,0.3,0,0,0,1,4,0.1,0.9,0.05,0.6,0.5,0.7
paal_full_b0.3_s0_f0,paal_full,0.3,0,0,1,2,6,0.15,0.8,0.04,0.9,0.8,1.0
paal_full_b0.2_s0_f0,paal_full,0.2,0,0,0,1,4,0.1,0.9,0.05,0.4,0.3,0.5
coreset_b0.3_s2_f0,coreset,0.3,2,0,0,1,4,0.1,0.9,,0.1,0.0,0.2
coreset_b0.3_s10_f0,coreset,0.3,10,0,0,1,4,0.1,0.9,,0.2,0.1,0.3
coreset_b0.3_s1_f0,coreset,0.3,1,0,0,1,4,0.1,0.9,,0.3,0.2,0.4
""",
    "queries.csv": """\
run_id,iteration,sample_id,cluster,weight,query_time_ms
random_b0.3_s0_f0,1,3,-1,,1.5
random_b0.3_s0_f0,1,8,-1,,1.5
random_b0.3_s1_f0,1,2,-1,,2.25
random_b0.3_s1_f0,2,6,-1,,0.3
random_b0.3_s1_f0,10,5,-1,,0.1
paal_full_b0.3_s0_f0,1,4,0,0.5,3.0
paal_full_b0.3_s0_f0,1,9,1,0.25,3.0
""",
    "calibration.csv": """\
run_id,sample_id,class,predicted_dsc,actual_dsc
random_b0.3_s0_f0,7,1,0.1,0.2
random_b0.3_s0_f0,7,2,0.3,0.2
random_b0.3_s0_f0,11,1,0.5,0.9
random_b0.3_s0_f0,11,2,0.7,0.6
random_b0.3_s0_f0,5,1,0.2,0.1
random_b0.3_s0_f0,5,2,0.2,0.4
paal_full_b0.3_s0_f0,6,1,0.3,0.3
paal_full_b0.3_s0_f0,6,2,0.3,0.5
coreset_b0.3_s2_f0,2,1,0.9,0.1
coreset_b0.3_s2_f0,10,1,0.7,0.5
coreset_b0.3_s2_f0,1,1,0.3,0.8
""",
    "annotations.csv": """\
run_id,strategy,budget,seed,fold,class,annotated_count
random_b0.3_s0_f0,random,0.3,0,0,0,1
random_b0.3_s0_f0,random,0.3,0,0,1,3
random_b0.3_s1_f0,random,0.3,1,0,1,2
paal_full_b0.3_s0_f0,paal_full,0.3,0,0,1,4
paal_full_b0.3_s0_f0,paal_full,0.3,0,0,2,2
paal_full_b0.2_s0_f0,paal_full,0.2,0,0,2,5
""",
}

REPORT_OUTPUTS = {
    "summary.csv": """\
strategy,budget,dsc_mean,dsc_std,query_time_mean
coreset,0.3,0.19999999999999998,0.0816496580927726,
paal_full,0.2,0.4,0.0,
paal_full,0.3,0.9,0.0,3.0
random,0.3,0.5,0.19999999999999998,1.0375
""",
    "distribution.csv": """\
strategy,class,annotated_count,ratio_vs_random
paal_full,1,4,0.8
paal_full,2,2,
random,0,1,1.0
random,1,5,1.0
""",
    "curves.csv": """\
strategy,labeled_ratio,dsc_mean
coreset,0.1,0.20000000000000004
paal_full,0.1,0.5
paal_full,0.15,0.9
random,0.1,0.2
random,0.15,0.44999999999999996
""",
    "calibration_summary.csv": """\
run_id,strategy,budget,n_samples,pearson_r
coreset_b0.3_s2_f0,coreset,0.3,3,-0.9631231373018599
paal_full_b0.3_s0_f0,paal_full,0.3,1,0.0
random_b0.3_s0_f0,random,0.3,3,0.996615895540124
""",
}


def test_report_writes_the_expected_bytes(tmp_path):
    for name, text in REPORT_INPUTS.items():
        (tmp_path / name).write_text(text)
    write_report(str(tmp_path))
    for name, text in REPORT_OUTPUTS.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
