"""Deterministic line-oriented run traces and structural trace diffing.

Each record constructor writes its record once, as the line it renders
to, fields in a fixed order separated by single spaces; only the ERROR
`detail` field, which is last, may hold spaces.  A trace stores one
string per record, except that a TOPICS batch is one string of its
lines joined by newlines; node and topic names hold no newline, so only
TOPICS-tagged strings are split when the lines are read back.
`Trace.records` reads them through `_parse`, one record per access.
Golden comparison is structural: only ledger-state, instance-action,
and node-topics records take part, each class diffed independently.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

TAG_REQUEST = "REQUEST"
TAG_CR = "CR"
TAG_LEDGER = "LEDGER"
TAG_ACTION = "ACTION"
TAG_TOPICS = "TOPICS"
TAG_ERROR = "ERROR"

# Record classes that participate in golden comparison.
COMPARED_TAGS = (TAG_LEDGER, TAG_ACTION, TAG_TOPICS)


class TraceRecord(NamedTuple):
    """One trace line read back into its parts."""

    tag: str
    step: int
    tick: int
    fields: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str:
        for k, value in self.fields:
            if k == key:
                return value
        return ""

    def values(self, key: str) -> tuple[str, ...]:
        """Split a comma-joined field into its parts; empty field, no parts."""
        raw = self.get(key)
        return tuple(part for part in raw.split(",") if part)


def _parse(line: str) -> TraceRecord:
    # An ERROR line has three fields after tick; its last, `detail`, may
    # hold spaces.  `step=` and `tick=` are five characters each.
    tag, step, tick, *rest = line.split(" ", 5 if line.startswith(TAG_ERROR) else -1)
    return TraceRecord(
        tag, int(step[5:]), int(tick[5:]),
        tuple(part.partition("=")[::2] for part in rest),
    )


class TraceRecords(Sequence[TraceRecord]):
    """Read-only view of a trace's own lines, so later records show up.

    Its length is the trace's line count; an index reads the lines, so
    iterate to read many records.
    """

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        trace = self._trace
        return len(trace._stored) + trace._extra

    def __getitem__(self, index: int) -> TraceRecord:
        return _parse(self._trace.lines()[index])

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_parse, self._trace._iter_lines())


def topics_tail(node_id: str, topics: Iterable[str]) -> str:
    """A TOPICS record's fields, the part of its line after the position."""
    return f"node={node_id} topics={','.join(topics)}"


class Trace:
    """Append-only line sink with a current (step, tick) position.

    The runner moves the position; everything else just appends, which
    keeps step/tick plumbing out of the operators.
    """

    def __init__(self) -> None:
        # One string per record, or per TOPICS batch of lines joined by
        # newlines; how many lines those batches hold beyond one each; and
        # the index from which every stored string is a single line.
        self._stored: list[str] = []
        self._extra = 0
        self._plain = 0
        self._at = "step=0 tick=0"

    def at(self, step: int, tick: int) -> None:
        self._at = f"step={step} tick={tick}"

    @property
    def records(self) -> TraceRecords:
        return TraceRecords(self)

    # -- record constructors ----------------------------------------------

    def request(
        self, request_id: str, action: str, app_name: str,
        requesters: Iterable[str], inputs: Iterable[tuple[str, str]],
    ) -> None:
        self._stored.append(
            f"{TAG_REQUEST} {self._at} id={request_id} action={action} "
            f"app={app_name} requesters={','.join(requesters)} "
            f"inputs={','.join(f'{e}:{k}' for e, k in inputs)}"
        )

    def cr_applied(
        self, kind: str, name: str, generation: int, action: str
    ) -> None:
        self._stored.append(
            f"{TAG_CR} {self._at} kind={kind} name={name} "
            f"generation={generation} action={action}"
        )

    def ledger_state(
        self, cr_name: str, support: Iterable[str], config: Iterable[str]
    ) -> None:
        """`config` parts are joined with commas, so text rendered once,
        as a ledger's, passes as the one part."""
        self._stored.append(
            f"{TAG_LEDGER} {self._at} cr={cr_name} support={','.join(support)} "
            f"config={','.join(config)}"
        )

    def instance_action(
        self, cr_name: str, action: str, instances: Iterable[str],
        nodes: Iterable[str], replaced: tuple[str, ...] = (),
    ) -> None:
        self._stored.append(
            f"{TAG_ACTION} {self._at} cr={cr_name} action={action} "
            f"instances={','.join(instances)} nodes={','.join(nodes)}"
            f"{' replaced=' + ','.join(replaced) if replaced else ''}"
        )

    def topics(self, tails: Iterable[str]) -> None:
        """One TOPICS record per `topics_tail`, all at the current position,
        stored as one string: the lines joined by newlines."""
        tails = list(tails)
        if tails:
            prefix = f"{TAG_TOPICS} {self._at} "
            self._stored.append(prefix + ("\n" + prefix).join(tails))
            self._extra += len(tails) - 1
            self._plain = len(self._stored)

    def error(self, source: str, kind: str, detail: str) -> None:
        self._stored.append(
            f"{TAG_ERROR} {self._at} source={source} kind={kind} detail={detail}"
        )

    def repeat(self, count: int) -> None:
        """Append the last `count` stored records again, as they are; a
        TOPICS batch is one.  After a deliver these are always single
        lines, so only a repeat that reaches a batch counts its lines."""
        stored = self._stored
        start = len(stored) - count
        again = stored[start:]
        if start < self._plain:
            self._extra += sum(s.count("\n") for s in again if s.startswith(TAG_TOPICS))
            self._plain = len(stored) + len(again)
        stored.extend(again)

    # -- output ------------------------------------------------------------

    def _iter_lines(self) -> Iterator[str]:
        for stored in self._stored:
            if stored.startswith(TAG_TOPICS):
                yield from stored.split("\n")
            else:
                yield stored

    def lines(self) -> list[str]:
        return list(self._iter_lines())

    def render(self) -> str:
        # The trailing "" ends a text with a newline, and an empty one with
        # nothing, without copying the text.
        return "\n".join([*self._stored, ""])

    def write(self, path: str | Path) -> None:
        """Write what `render()` gives, one stored string at a time, so
        the whole text is never held at once."""
        with Path(path).open("w", encoding="utf-8") as out:
            for stored in self._stored:
                out.write(stored)
                out.write("\n")


# --------------------------------------------------------------------------
# Structural diffing against a golden trace
# --------------------------------------------------------------------------


@dataclass
class TraceDiffReport:
    """One described difference per diverging record class."""

    entries: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def describe(self) -> str:
        if self.ok:
            return "trace matches golden"
        return "\n".join(self.entries)


def _tag_of(line: str) -> str:
    return line.split(" ", 1)[0]


def diff_trace_lines(
    actual: Sequence[str], golden: Sequence[str]
) -> TraceDiffReport:
    """Diff two rendered traces per compared record class.

    For each class the first diverging record is reported; a surplus or
    shortage of records is reported as a length mismatch.
    """
    report = TraceDiffReport()
    for tag in COMPARED_TAGS:
        want = [l for l in golden if _tag_of(l) == tag]
        have = [l for l in actual if _tag_of(l) == tag]
        for index, (w, h) in enumerate(zip(want, have)):
            if w != h:
                report.entries.append(
                    f"{tag}[{index}]:\n  golden: {w}\n  actual: {h}"
                )
                break
        else:
            if len(want) != len(have):
                report.entries.append(
                    f"{tag}: record count differs "
                    f"(golden {len(want)}, actual {len(have)})"
                )
    return report


def assert_trace(trace: Trace, golden_path: str | Path) -> TraceDiffReport:
    golden = Path(golden_path).read_text(encoding="utf-8").splitlines()
    return diff_trace_lines(trace.lines(), golden)
