"""End to end through `paal run`: reproducible CSVs and config exit codes."""

import pytest

from paal.cli import EXIT_CONFIG, EXIT_OK, main
from paal.strategies import STRATEGIES

CSV_FILES = ("results.csv", "queries.csv", "calibration.csv", "annotations.csv")

# n=60 (48 train, 12 val) at 16x16, 4 epochs, a query every epoch, every strategy
CAMPAIGN = f"""\
strategies = {','.join(STRATEGIES)}
budgets = 0.3
iterations = 2
seeds = 0
folds = 0
data_n = 60
data_h = 16
data_w = 16
max_epochs = 4
early_stop = 4
warmup = 1
silent_period = 1
iq_patience = 0
query_interval = 1
lr0 = 0.01
"""


def paal_run(tmp_path, name, jobs, extra=""):
    config = tmp_path / f"{name}.cfg"
    config.write_text(CAMPAIGN + extra)
    out = tmp_path / name
    code = main(["run", "--config", str(config), "--out", str(out),
                 "--jobs", str(jobs)])
    return code, out


def csv_bytes(out_dir) -> dict[str, bytes]:
    """Every campaign CSV, minus the wall-clock query_time_ms column."""
    files = {name: (out_dir / name).read_bytes() for name in CSV_FILES}
    assert files["queries.csv"].startswith(b"run_id,iteration,sample_id,"
                                           b"cluster,weight,query_time_ms\n")
    files["queries.csv"] = b"".join(
        line.rsplit(b",", 1)[0] + b"\n"
        for line in files["queries.csv"].splitlines())
    return files


def test_campaign_csvs_are_identical_across_reruns_and_jobs(tmp_path):
    runs = {}
    for name, jobs in (("first", 1), ("rerun", 1), ("jobs2", 2)):
        code, out = paal_run(tmp_path, name, jobs)
        assert code == EXIT_OK
        runs[name] = csv_bytes(out)
    assert runs["rerun"] == runs["first"]
    assert runs["jobs2"] == runs["first"]
    results = runs["first"]["results.csv"].decode().splitlines()
    assert len(results) == 1 + 4 * len(STRATEGIES)
    assert main(["report", "--out", str(tmp_path / "first")]) == EXIT_OK


@pytest.mark.parametrize("override", ["budgets = 1.0", "warmup = 4",
                                      "silent_period = 4"],
                         ids=["budget_beyond_pool", "warmup_not_below_max_epochs",
                              "silent_period_not_below_max_epochs"])
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, override):
    code, _ = paal_run(tmp_path, "bad", 1, extra=override + "\n")
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")
    assert "Traceback" not in err
