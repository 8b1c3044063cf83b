"""Smoke test for the consolidated report CLI."""

from __future__ import annotations

from dataclasses import replace

from repro.bench import report, table3
from repro.bench.configs import QUICK
from repro.campaign.log import CampaignLog
from repro.uarch.config import Defense


def test_report_cli_runs_the_inventory_only(capsys):
    code = report.main(["--skip", "table2,table3,fig2,hunt,ablation"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "total evaluation time" in out


def test_report_cli_rejects_unknown_scale():
    import pytest

    with pytest.raises(SystemExit):
        report.main(["--scale", "galactic"])


def test_report_cli_rerenders_table3_from_a_jsonl_log(capsys, tmp_path):
    """--from-log re-renders a campaign's tables without re-running."""
    path = tmp_path / "table3.jsonl"
    scale = replace(QUICK, name="test", proof_timeout=30.0)
    with open(path, "w", encoding="utf-8") as handle:
        table3.run(
            scale,
            defenses=[Defense.NONE],
            n_workers=1,
            log=CampaignLog(handle),
        )
    capsys.readouterr()
    code = report.main(["--from-log", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 3" in out


def test_report_cli_from_log_rejects_an_empty_log(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert report.main(["--from-log", str(path)]) == 1


def test_report_cli_rerenders_fig2_and_ablation_from_a_jsonl_log(
    capsys, tmp_path
):
    """The campaign-ized sweeps re-render from their logs too."""
    from repro.bench import ablation, fig2

    path = tmp_path / "sweeps.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        log = CampaignLog(handle)
        fig2.run(
            QUICK,
            regfile_sizes=(2,),
            dmem_sizes=(2,),
            rob_sizes=(2,),
            n_workers=1,
            log=log,
        )
        ablation.run(
            QUICK, workloads=ablation.WORKLOADS[:1], n_workers=1, log=log
        )
    capsys.readouterr()
    code = report.main(["--from-log", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "regfile  2:" in out
    assert "Ablation" in out
    assert "attack (insecure SimpleOoO)" in out


def test_report_cli_rerenders_the_hunt_narrative_from_a_jsonl_log(
    capsys, tmp_path
):
    """BOOM hunt rounds logged with classified sources re-render through
    --from-log without re-running the hunt."""
    from repro.bench import boom_hunt
    from repro.mc.result import ATTACK, PROVED, Outcome, SearchStats

    path = tmp_path / "hunt.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        log = CampaignLog(handle)
        log.result(
            boom_hunt.EXPERIMENT,
            ("sandboxing", "0"),
            Outcome(kind=ATTACK, elapsed=1.5, stats=SearchStats(states=10)),
            extra={"source": "misaligned", "exclusions": []},
        )
        log.result(
            boom_hunt.EXPERIMENT,
            ("sandboxing", "1"),
            Outcome(kind=PROVED, elapsed=9.0, stats=SearchStats(states=99)),
            extra={"source": None, "exclusions": ["misaligned"]},
        )
    from repro.campaign.log import read_records

    steps = boom_hunt.steps_from_records(read_records(str(path)))["sandboxing"]
    assert [s.round_index for s in steps] == [0, 1]
    assert steps[0].source == "misaligned"
    assert steps[1].active_exclusions == ("misaligned",)
    capsys.readouterr()
    code = report.main(["--from-log", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "BOOM attack enumeration -- sandboxing contract" in out
    assert "ATTACK via misaligned" in out
    assert "excluded [misaligned] -> proved" in out


def _as_json(value):
    """Driver results with every outcome in its logged (rounded) form."""
    from dataclasses import is_dataclass

    from repro.campaign.log import outcome_to_json
    from repro.mc.result import Outcome

    if isinstance(value, Outcome):
        return outcome_to_json(value)
    if is_dataclass(value):
        return {k: _as_json(v) for k, v in vars(value).items()}
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


def test_results_from_records_equal_the_logged_runs_own_results(tmp_path):
    """A driver's ``results_from_records`` on its run's log rebuilds
    exactly the results ``run`` returned (fig2-mini, one ablation row)."""
    from repro.bench import ablation, fig2
    from repro.campaign.log import read_records

    path = tmp_path / "run.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        log = CampaignLog(handle)
        swept = fig2.run(
            QUICK, regfile_sizes=(2,), dmem_sizes=(2,), rob_sizes=(2,), log=log
        )
        ablated = ablation.run(QUICK, workloads=ablation.WORKLOADS[:1], log=log)
    records = read_records(str(path))
    assert _as_json(fig2.results_from_records(records)) == _as_json(swept)
    assert _as_json(ablation.results_from_records(records)) == _as_json(ablated)
    assert ablated and any(
        series.points for panel in swept.values() for series in panel.values()
    )
