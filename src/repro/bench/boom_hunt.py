"""§7.1.4: iterative attack enumeration on the BoomLike core.

"We can continue to search for other attacks following the standard
practice in formal verification.  We add an assumption to exclude the
first attack that we found."  The hunt repeatedly:

1. runs the verification,
2. classifies the found attack's mis-speculation source by replaying the
   counterexample and inspecting the speculation events
   (misaligned / illegal exception, branch misprediction),
3. adds the corresponding exclusion assumption, and repeats

until the search proves the residual program class secure, times out, or
every known source is excluded.  The paper found the misalignment-
exception attack first, then (after exclusion) the illegal-access attack,
and timed out before finding more; our search order differs (divergence
D4: our model is small enough that the branch-source attack is also found
where the paper hit its 24-hour budget).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.configs import BOOM_PARAMS, SPACE_BOOM, Scale
from repro.campaign.log import CampaignLog, outcome_from_json
from repro.campaign.registry import core_spec
from repro.campaign.scheduler import verify_sharded
from repro.core.assumptions import (
    Assumption,
    no_illegal_accesses,
    no_misaligned_accesses,
    no_mispredicted_branches,
)
from repro.core.contracts import Contract
from repro.core.verifier import VerificationTask
from repro.mc.explorer import SearchLimits
from repro.mc.replay import replay
from repro.mc.result import Outcome

EXPERIMENT = "hunt"

#: Exclusion assumption per classified speculation source.
EXCLUSIONS = {
    "misaligned": no_misaligned_accesses,
    "illegal": no_illegal_accesses,
    "mispredict": no_mispredicted_branches,
}


@dataclass(frozen=True)
class HuntStep:
    """One round of the enumeration."""

    round_index: int
    active_exclusions: tuple[str, ...]
    outcome: Outcome
    source: str | None  # classified speculation source of the found attack


def classify_source(task: VerificationTask, outcome: Outcome) -> str:
    """Replay a counterexample and name its mis-speculation source.

    Exceptions take precedence over branch misprediction: an attack whose
    trace faults is counted as exception-sourced even if it also contains
    a (possibly incidental) misprediction.
    """
    trace = replay(task.build_product(), outcome.counterexample)
    events = [e for record in trace for out in record.outputs for e in out.events]
    for source in ("misaligned", "illegal", "mispredict"):
        if source in events:
            return source
    return "unknown"


def run(
    contract: Contract,
    scale: Scale,
    max_rounds: int = 4,
    *,
    n_workers: int | None = 1,
    log: CampaignLog | None = None,
) -> list[HuntStep]:
    """Run the iterative exclusion hunt for one contract.

    Rounds are inherently sequential (each adds the previous round's
    exclusion), but within a round the secret-pair roots shard across
    ``n_workers`` worker processes (``1`` = the whole round as one
    inline shard).

    ``log`` streams one JSONL record per round -- keyed
    ``(contract, round)`` and carrying the classified mis-speculation
    ``source`` plus the ``exclusions`` active that round -- so
    ``python -m repro.bench.report --from-log`` re-renders the hunt
    narrative without re-running it (:func:`steps_from_records`).
    """
    exclusions: list[Assumption] = []
    names: list[str] = []
    steps: list[HuntStep] = []
    for round_index in range(max_rounds):
        task = VerificationTask(
            core_factory=core_spec("boom", params=BOOM_PARAMS),
            contract=contract,
            space=SPACE_BOOM,
            assumptions=tuple(exclusions),
            limits=SearchLimits(timeout_s=scale.hunt_timeout),
        )
        outcome = verify_sharded(task, n_workers=n_workers)
        source = None
        if outcome.attacked:
            source = classify_source(task, outcome)
        step = HuntStep(
            round_index=round_index,
            active_exclusions=tuple(names),
            outcome=outcome,
            source=source,
        )
        steps.append(step)
        if log is not None:
            log.result(
                EXPERIMENT,
                (contract.name, str(round_index)),
                outcome,
                extra={"source": source, "exclusions": list(names)},
            )
        if not outcome.attacked or source not in EXCLUSIONS:
            break
        exclusions.append(EXCLUSIONS[source]())
        names.append(source)
    return steps


def steps_from_records(records: list[dict]) -> dict[str, list[HuntStep]]:
    """Rebuild hunt narratives from JSONL result records, per contract.

    Records are matched by ``experiment == "hunt"``; the returned steps
    are ordered by round index, so :func:`format_rows` renders the same
    narrative the live run printed.
    """
    by_contract: dict[str, list[HuntStep]] = {}
    for record in records:
        if record.get("experiment") != EXPERIMENT:
            continue
        contract_name, round_index = record["key"]
        by_contract.setdefault(contract_name, []).append(
            HuntStep(
                round_index=int(round_index),
                active_exclusions=tuple(record.get("exclusions") or ()),
                outcome=outcome_from_json(record["outcome"]),
                source=record.get("source"),
            )
        )
    for steps in by_contract.values():
        steps.sort(key=lambda step: step.round_index)
    return by_contract


def format_rows(contract_name: str, steps: list[HuntStep]) -> str:
    """Render the hunt as a round-by-round log."""
    lines = [f"BOOM attack enumeration -- {contract_name} contract"]
    for step in steps:
        excluded = ", ".join(step.active_exclusions) or "none"
        if step.outcome.attacked:
            verdict = f"ATTACK via {step.source} ({step.outcome.elapsed:.1f}s)"
        else:
            verdict = f"{step.outcome.kind} ({step.outcome.elapsed:.1f}s)"
        lines.append(f"  round {step.round_index}: excluded [{excluded}] -> {verdict}")
    return "\n".join(lines)
