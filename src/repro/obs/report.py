"""Render a JSONL trace (``python -m repro.obs.report TRACE``).

Three sections, all computed from the merged trace file a traced
campaign writes (``--trace`` on the campaign/fuzz CLIs):

- **per-worker timeline**: each worker's top-level spans laid out
  against the start of the trace -- dispatch stalls and idle tails are
  visible as gaps;
- **span tree**: durations aggregated by span name along the
  parent chain, with self-time (time not covered by child spans), the
  "where did the campaign spend its time" breakdown;
- **hottest units**: top-N campaign units by verification time
  (from the scheduler's ``unit.done`` events);

followed by the merged trace counters when the trace carries any.

``--chrome OUT.json`` additionally exports the Chrome ``trace_event``
document (:mod:`repro.obs.sinks`) for ``chrome://tracing`` / Perfetto.
``repro.bench.report --trace`` renders the same sections.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.sinks import read_trace, write_chrome


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def format_timeline(records: list[dict], *, limit: int = 30) -> str:
    """Per-worker top-level spans against the trace origin."""
    spans = [r for r in records if r["type"] == "span"]
    if not spans:
        return "timeline: no spans"
    origin = min(span["t0"] for span in spans)
    end = max(span["t1"] for span in spans)
    by_worker: dict[str, list[dict]] = {}
    for span in spans:
        by_worker.setdefault(span["worker"], []).append(span)
    lines = [f"timeline ({len(spans)} spans, {end - origin:.3f}s)"]
    for worker in sorted(by_worker):
        worker_spans = sorted(by_worker[worker], key=lambda s: (s["t0"], s["id"]))
        ids = {span["id"] for span in worker_spans}
        top = [s for s in worker_spans if s["parent"] not in ids]
        busy = sum(s["t1"] - s["t0"] for s in top)
        lines.append(
            f"  {worker}: {len(worker_spans)} spans, "
            f"busy {busy:.3f}s ({len(top)} top-level)"
        )
        for span in top[:limit]:
            attrs = span.get("attrs") or {}
            suffix = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                if attrs
                else ""
            )
            lines.append(
                f"    +{span['t0'] - origin:8.3f}s {_fmt_s(span['t1'] - span['t0'])}"
                f"  {span['name']}{suffix}"
            )
        if len(top) > limit:
            lines.append(f"    ... {len(top) - limit} more")
    return "\n".join(lines)


def _span_paths(spans: list[dict]) -> dict[int, tuple[str, ...]]:
    """Name path (root..self) per span id, following parent links."""
    by_id = {span["id"]: span for span in spans}
    paths: dict[int, tuple[str, ...]] = {}

    def path(span_id: int) -> tuple[str, ...]:
        known = paths.get(span_id)
        if known is not None:
            return known
        span = by_id[span_id]
        parent = span["parent"]
        if parent is None or parent not in by_id:
            result: tuple[str, ...] = (span["name"],)
        else:
            result = path(parent) + (span["name"],)
        paths[span_id] = result
        return result

    for span_id in by_id:
        path(span_id)
    return paths


def format_span_tree(records: list[dict]) -> str:
    """Durations aggregated by span name along the parent chain."""
    spans = [r for r in records if r["type"] == "span"]
    if not spans:
        return "span tree: no spans"
    paths = _span_paths(spans)
    by_id = {span["id"]: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (
                span["t1"] - span["t0"]
            )
    # (count, total, self) per name path.
    stats: dict[tuple[str, ...], list[float]] = {}
    for span in spans:
        duration = span["t1"] - span["t0"]
        own = duration - child_time.get(span["id"], 0.0)
        entry = stats.setdefault(paths[span["id"]], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
    lines = ["span tree (count / total / self)"]

    def render(prefix: tuple[str, ...], indent: str) -> None:
        children = sorted(
            (
                (path, entry)
                for path, entry in stats.items()
                if path[:-1] == prefix
            ),
            key=lambda item: -item[1][1],
        )
        for path, (count, total, own) in children:
            lines.append(
                f"  {indent}{path[-1]:<{max(1, 40 - len(indent))}s}"
                f" {count:6d} {_fmt_s(total)} {_fmt_s(own)}"
            )
            render(path, indent + "  ")

    render((), "")
    return "\n".join(lines)


def format_hot_units(records: list[dict], *, top: int = 10) -> str:
    """Top-N campaign units by verification time (``unit.done`` events)."""
    done = [
        r
        for r in records
        if r["type"] == "event" and r["name"] == "unit.done"
    ]
    if not done:
        return "hottest units: no unit.done events"
    totals: dict[str, list] = {}
    for event in done:
        attrs = event.get("attrs") or {}
        unit = str(attrs.get("unit", "?"))
        entry = totals.setdefault(unit, [0.0, attrs.get("kind", "?")])
        entry[0] += float(attrs.get("elapsed", 0.0))
    ranked = sorted(totals.items(), key=lambda item: -item[1][0])
    lines = [f"hottest units (top {min(top, len(ranked))} of {len(ranked)})"]
    for unit, (elapsed, kind) in ranked[:top]:
        lines.append(f"  {_fmt_s(elapsed)}  {kind:8s} {unit}")
    return "\n".join(lines)


def format_counters(records: list[dict]) -> str | None:
    """The merged trace counters, when the trace carries any."""
    for record in records:
        if record["type"] == "counters":
            lines = ["counters"]
            for name, value in sorted(record["values"].items()):
                lines.append(f"  {name:<40s} {value}")
            return "\n".join(lines)
    return None


def format_report(records: list[dict], *, top: int = 10, limit: int = 30) -> str:
    sections = [
        format_timeline(records, limit=limit),
        format_span_tree(records),
        format_hot_units(records, top=top),
    ]
    counters = format_counters(records)
    if counters:
        sections.append(counters)
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="JSONL trace file to render")
    parser.add_argument(
        "--top", type=int, default=10, help="units in the hottest-units table"
    )
    parser.add_argument(
        "--limit", type=int, default=30, help="top-level spans per worker row"
    )
    parser.add_argument(
        "--chrome",
        default=None,
        metavar="OUT",
        help="also export Chrome trace_event JSON to this path",
    )
    args = parser.parse_args(argv)
    try:
        records = read_trace(args.trace)
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"not a JSONL trace: {args.trace}: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"no trace records in {args.trace}", file=sys.stderr)
        return 1
    print(format_report(records, top=args.top, limit=args.limit))
    if args.chrome:
        emitted = write_chrome(records, args.chrome)
        print(f"\nchrome trace: {args.chrome} ({emitted} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
