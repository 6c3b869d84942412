"""Deterministic line-oriented run traces and structural trace diffing.

Every record renders as exactly one line with fields in a fixed order, so
two runs of the same scenario can be compared byte for byte.  Golden
comparison is structural: only ledger-state, instance-action, and
node-topics records take part, each class diffed independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

TAG_REQUEST = "REQUEST"
TAG_CR = "CR"
TAG_LEDGER = "LEDGER"
TAG_ACTION = "ACTION"
TAG_TOPICS = "TOPICS"
TAG_ERROR = "ERROR"

# Record classes that participate in golden comparison.
COMPARED_TAGS = (TAG_LEDGER, TAG_ACTION, TAG_TOPICS)


def _csv(values: Iterable[str]) -> str:
    return ",".join(values)


@dataclass(frozen=True)
class TraceRecord:
    tag: str
    step: int
    tick: int
    fields: tuple[tuple[str, str], ...]

    def line(self) -> str:
        parts = [self.tag, f"step={self.step}", f"tick={self.tick}"]
        parts.extend(f"{key}={value}" for key, value in self.fields)
        return " ".join(parts)

    def get(self, key: str, default: str = "") -> str:
        for k, value in self.fields:
            if k == key:
                return value
        return default

    def values(self, key: str) -> tuple[str, ...]:
        """Split a comma-joined field into its parts; empty field, no parts."""
        raw = self.get(key)
        return tuple(part for part in raw.split(",") if part)


class Trace:
    """Append-only record sink with a current (step, tick) position.

    The runner moves the position; everything else just appends, which
    keeps step/tick plumbing out of the operators.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self._step = 0
        self._tick = 0

    def at(self, step: int, tick: int) -> None:
        self._step = step
        self._tick = tick

    def _add(self, tag: str, fields: Sequence[tuple[str, str]]) -> None:
        self.records.append(
            TraceRecord(tag, self._step, self._tick, tuple(fields))
        )

    # -- record constructors ----------------------------------------------

    def request(
        self,
        request_id: str,
        action: str,
        app_name: str,
        requesters: Iterable[str],
        inputs: Iterable[tuple[str, str]],
    ) -> None:
        self._add(
            TAG_REQUEST,
            [
                ("id", request_id),
                ("action", action),
                ("app", app_name),
                ("requesters", _csv(requesters)),
                ("inputs", _csv(f"{e}:{k}" for e, k in inputs)),
            ],
        )

    def cr_applied(
        self, kind: str, name: str, generation: int, action: str
    ) -> None:
        self._add(
            TAG_CR,
            [
                ("kind", kind),
                ("name", name),
                ("generation", str(generation)),
                ("action", action),
            ],
        )

    def ledger_state(
        self,
        cr_name: str,
        support: Iterable[str],
        config: Iterable[str],
    ) -> None:
        self._add(
            TAG_LEDGER,
            [
                ("cr", cr_name),
                ("support", _csv(support)),
                ("config", _csv(config)),
            ],
        )

    def instance_action(
        self,
        cr_name: str,
        action: str,
        instances: Iterable[str],
        nodes: Iterable[str],
        replaced: Iterable[str] = (),
    ) -> None:
        fields = [
            ("cr", cr_name),
            ("action", action),
            ("instances", _csv(instances)),
            ("nodes", _csv(nodes)),
        ]
        replaced = tuple(replaced)
        if replaced:
            fields.append(("replaced", _csv(replaced)))
        self._add(TAG_ACTION, fields)

    def topics(self, node_id: str, topics: Iterable[str]) -> None:
        self._add(TAG_TOPICS, [("node", node_id), ("topics", _csv(topics))])

    def error(self, source: str, kind: str, detail: str) -> None:
        self._add(
            TAG_ERROR, [("source", source), ("kind", kind), ("detail", detail)]
        )

    # -- output ------------------------------------------------------------

    def lines(self) -> list[str]:
        return [record.line() for record in self.records]

    def render(self) -> str:
        body = "\n".join(self.lines())
        return body + "\n" if body else ""

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


# --------------------------------------------------------------------------
# Structural diffing against a golden trace
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffEntry:
    record_class: str
    kind: str           # "mismatch" or "length"
    index: int
    expected: str
    actual: str

    def describe(self) -> str:
        if self.kind == "length":
            return (
                f"{self.record_class}: record count differs "
                f"(golden {self.expected}, actual {self.actual})"
            )
        return (
            f"{self.record_class}[{self.index}]:\n"
            f"  golden: {self.expected}\n"
            f"  actual: {self.actual}"
        )


@dataclass
class TraceDiffReport:
    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def describe(self) -> str:
        if self.ok:
            return "trace matches golden"
        return "\n".join(entry.describe() for entry in self.entries)


def _tag_of(line: str) -> str:
    return line.split(" ", 1)[0]


def diff_trace_lines(
    actual: Sequence[str],
    golden: Sequence[str],
    tags: Sequence[str] = COMPARED_TAGS,
) -> TraceDiffReport:
    """Diff two rendered traces per record class.

    For each class the first diverging record is reported; a surplus or
    shortage of records is reported as a length mismatch.
    """
    report = TraceDiffReport()
    for tag in tags:
        want = [l for l in golden if _tag_of(l) == tag]
        have = [l for l in actual if _tag_of(l) == tag]
        diverged = False
        for index, (w, h) in enumerate(zip(want, have)):
            if w != h:
                report.entries.append(DiffEntry(tag, "mismatch", index, w, h))
                diverged = True
                break
        if not diverged and len(want) != len(have):
            report.entries.append(
                DiffEntry(tag, "length", min(len(want), len(have)),
                          str(len(want)), str(len(have)))
            )
    return report


def assert_trace(trace: Trace, golden_path: str | Path) -> TraceDiffReport:
    golden = Path(golden_path).read_text(encoding="utf-8").splitlines()
    return diff_trace_lines(trace.lines(), golden)
