"""JSONL campaign logs: write once, re-render (and replay) forever.

Each campaign run appends one JSON object per line:

- one ``{"type": "campaign", ...}`` header with the run metadata
  (experiment name, worker count, and ``n_units``, the number of units
  *planned* -- for a fuzz run its round cap, which a leak or the budget
  can cut short; count the ``result`` records for the units that ran),
  and
- one ``{"type": "result", ...}`` record per campaign unit, *in unit
  submission order*, carrying the unit's identity (``experiment``,
  ``key``, contract / scheme labels) and its full
  :class:`repro.mc.result.Outcome` -- including a complete
  counterexample environment, so logged attacks replay through
  :mod:`repro.mc.replay` without re-running the search.

Determinism contract: for the same unit list, under budgets generous
enough that no search times out, the *canonical* form of the log
(:func:`canonical_lines`, which drops the header and all timing fields)
is identical for every worker count.  The CI smoke job and
``tests/campaign/test_log.py`` diff canonical logs of a 1-worker and a
4-worker run of the same mini-campaign.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, TextIO

from repro.isa.instruction import Instruction, Opcode
from repro.mc.env import Environment
from repro.mc.result import Counterexample, Outcome, SearchStats

LOG_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Outcome <-> JSON
# ----------------------------------------------------------------------
def _instruction_to_json(inst: Instruction | None) -> list[int] | None:
    if inst is None:
        return None
    return [int(inst.op), inst.a, inst.b, inst.c, inst.d]


def _instruction_from_json(data: list[int] | None) -> Instruction | None:
    if data is None:
        return None
    op, a, b, c, d = data
    return Instruction(Opcode(op), a, b, c, d)


def _env_to_json(env: Environment) -> dict[str, Any]:
    return {
        "imem": [_instruction_to_json(inst) for inst in env.imem],
        "preds": [[pc, occ, taken] for (pc, occ), taken in env.preds],
    }


def _env_from_json(data: dict[str, Any]) -> Environment:
    return Environment(
        imem=tuple(_instruction_from_json(i) for i in data["imem"]),
        preds=tuple(
            ((pc, occ), bool(taken)) for pc, occ, taken in data["preds"]
        ),
    )


def counterexample_to_json(cex: Counterexample | None) -> dict[str, Any] | None:
    """Serialize a counterexample, keeping it replay-complete."""
    if cex is None:
        return None
    return {
        "root_label": cex.root_label,
        "dmem_pair": [list(cex.dmem_pair[0]), list(cex.dmem_pair[1])],
        "env": _env_to_json(cex.env),
        "depth": cex.depth,
        "reason": cex.reason,
    }


def counterexample_from_json(data: dict[str, Any] | None) -> Counterexample | None:
    """Rebuild a replayable counterexample from its JSON form."""
    if data is None:
        return None
    return Counterexample(
        root_label=data["root_label"],
        dmem_pair=(tuple(data["dmem_pair"][0]), tuple(data["dmem_pair"][1])),
        env=_env_from_json(data["env"]),
        depth=data["depth"],
        reason=data["reason"],
    )


def outcome_to_json(outcome: Outcome) -> dict[str, Any]:
    """Serialize an outcome.  ``elapsed`` is the only timing field."""
    stats = outcome.stats
    return {
        "kind": outcome.kind,
        "elapsed": round(outcome.elapsed, 6),
        "note": outcome.note,
        "stats": {
            "states": stats.states,
            "transitions": stats.transitions,
            "pruned": stats.pruned,
            "max_depth": stats.max_depth,
            "prune_reasons": dict(sorted(stats.prune_reasons.items())),
            # Constant, kept because perfbench/expected.json pins the key.
            "filter_dropped": 0,
        },
        "counterexample": counterexample_to_json(outcome.counterexample),
    }


def outcome_from_json(data: dict[str, Any]) -> Outcome:
    """Rebuild an outcome (counterexample included) from its JSON form."""
    stats = data["stats"]
    return Outcome(
        kind=data["kind"],
        elapsed=data["elapsed"],
        stats=SearchStats(
            states=stats["states"],
            transitions=stats["transitions"],
            pruned=stats["pruned"],
            max_depth=stats["max_depth"],
            prune_reasons=dict(stats["prune_reasons"]),
        ),
        counterexample=counterexample_from_json(data.get("counterexample")),
        note=data.get("note"),
    )


def outcomes_from_records(
    records: Iterable[dict[str, Any]], experiment: str
) -> dict[tuple[str, ...], Outcome]:
    """``experiment``'s outcomes by unit key, in log order.

    The logged counterpart of :func:`repro.bench.runner.run_units`, so a
    bench driver assembles a run and a re-render from the same mapping.
    """
    return {
        tuple(record["key"]): outcome_from_json(record["outcome"])
        for record in result_records(records)
        if record["experiment"] == experiment
    }


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------
class CampaignLog:
    """Streaming JSONL writer for one campaign run."""

    def __init__(self, stream: TextIO):
        self._stream = stream

    def header(self, experiment: str, n_workers: int, n_units: int) -> None:
        """Write the run header.

        ``n_units`` is the number of units *planned*: a fuzz run logs its
        round cap, and a leak or the budget can stop it sooner.  Readers
        count ``result`` records for the units that actually ran.
        """
        self._write(
            {
                "type": "campaign",
                "version": LOG_FORMAT_VERSION,
                "experiment": experiment,
                "n_workers": n_workers,
                "n_units": n_units,
            }
        )

    def result(
        self,
        experiment: str,
        key: tuple[str, ...],
        outcome: Outcome,
        extra: dict[str, Any] | None = None,
    ) -> None:
        """Write one result record.

        ``extra`` merges experiment-specific context into the record
        (e.g. the BOOM hunt's classified mis-speculation source and
        active exclusions); it must not collide with the base fields.
        """
        record = {
            "type": "result",
            "experiment": experiment,
            "key": list(key),
            "outcome": outcome_to_json(outcome),
        }
        if extra:
            overlap = set(extra) & set(record)
            if overlap:
                raise ValueError(f"extra fields shadow base fields: {overlap}")
            record.update(extra)
        self._write(record)

    def _write(self, record: dict[str, Any]) -> None:
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def read_records(path: str) -> list[dict[str, Any]]:
    """Parse every record of a JSONL campaign log."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def result_records(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """The ``result`` records, in log (= unit submission) order."""
    return [r for r in records if r.get("type") == "result"]


def _strip_timing(record: dict[str, Any]) -> dict[str, Any]:
    record = json.loads(json.dumps(record))  # deep copy
    outcome = record.get("outcome")
    if outcome is not None:
        outcome.pop("elapsed", None)
    return record


def canonical_lines(path: str) -> list[str]:
    """The log's deterministic content: result records minus timing.

    Two runs of the same campaign -- any worker counts -- must produce
    identical canonical lines; this is what the determinism tests and the
    CI smoke job compare.
    """
    return [
        json.dumps(_strip_timing(record), sort_keys=True)
        for record in result_records(read_records(path))
    ]
