"""``python -m repro.obs.watch`` on the ``--status-json`` file of a real run.

The watcher exits once the campaign's final snapshot reads done, so that
snapshot must count every logged unit -- for a fuzz campaign, every
round it actually ran, including one a leak stopped early.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.__main__ import mini_units
from repro.campaign.log import CampaignLog, read_records, result_records
from repro.campaign.scheduler import run_campaign
from repro.fuzz.campaign import run_fuzz
from repro.fuzz.configs import preset_config
from repro.obs import watch


def _process_mini(status: str, log: CampaignLog) -> str:
    run_campaign(mini_units(), n_workers=2, log=log, status_json=status)
    return ""


def _run_fuzz_mini(status: str, log: CampaignLog, **kwargs):
    preset = preset_config("fuzz-mini")
    return preset, run_fuzz(
        preset.config,
        n_batches=preset.n_batches,
        batch_size=preset.batch_size,
        max_rounds=preset.max_rounds,
        log=log,
        status_json=status,
        **kwargs,
    )


def _fuzz_mini(status: str, log: CampaignLog) -> str:
    preset, report = _run_fuzz_mini(status, log)
    # The planted leak stops the campaign before its round budget.
    assert report.found_leak
    assert len(report.rounds) < preset.max_rounds
    return "round-"  # the minimized-leak record is not a round


def _fuzz_mini_no_budget(status: str, log: CampaignLog) -> str:
    _, report = _run_fuzz_mini(status, log, budget_s=0.0)
    # The budget is spent before the first round starts.
    assert report.rounds == []
    return "round-"


@pytest.mark.parametrize(
    "run",
    [_process_mini, _fuzz_mini, _fuzz_mini_no_budget],
    ids=["process-mini", "fuzz-mini", "fuzz-mini-budget-0"],
)
def test_watch_exits_on_the_final_snapshot(run, tmp_path):
    status = str(tmp_path / "status.json")
    log_path = tmp_path / "log.jsonl"
    record = tmp_path / "watch.jsonl"
    with open(log_path, "w", encoding="utf-8") as handle:
        unit_prefix = run(status, CampaignLog(handle))
    assert (
        watch.main(
            [
                "--status-json", status, "--plain", "--record", str(record),
                "--min-snapshots", "1", "--timeout", "60",
            ]
        )
        == 0
    )
    units = [
        r for r in result_records(read_records(str(log_path)))
        if r["key"][0].startswith(unit_prefix)
    ]
    last = json.loads(record.read_text().splitlines()[-1])
    assert last["units_done"] == len(units)
    assert last["units_done"] == last["units_total"]
