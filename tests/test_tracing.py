"""Trace lines, their parsed view, and golden diffing reports."""

import string

import pytest
from hypothesis import given, strategies as st

from demandflow.tracing import (
    TAG_ACTION,
    TAG_CR,
    TAG_ERROR,
    TAG_LEDGER,
    TAG_REQUEST,
    TAG_TOPICS,
    Trace,
    diff_trace_lines,
    topics_tail,
)

GOLDEN = [
    "REQUEST step=1 tick=1 id=r1",
    "LEDGER step=1 tick=1 cr=a support=V0 config=",
    "ACTION step=1 tick=1 cr=a action=deploy instances=i-0001 nodes=E",
    "TOPICS step=1 tick=1 node=E topics=/V0/ego",
]


def test_identical_traces_match():
    report = diff_trace_lines(GOLDEN, GOLDEN)
    assert report.ok
    assert report.describe() == "trace matches golden"


def test_report_names_first_mismatch_and_count_differences():
    actual = [
        GOLDEN[0],
        "LEDGER step=1 tick=1 cr=a support=V1 config=",
        GOLDEN[2],
        GOLDEN[2],
        GOLDEN[3],
    ]
    report = diff_trace_lines(actual, GOLDEN)
    assert not report.ok
    assert report.describe() == (
        "LEDGER[0]:\n"
        "  golden: LEDGER step=1 tick=1 cr=a support=V0 config=\n"
        "  actual: LEDGER step=1 tick=1 cr=a support=V1 config=\n"
        "ACTION: record count differs (golden 1, actual 2)"
    )


def test_report_names_only_the_first_mismatch_of_a_class():
    shutdown = "ACTION step=2 tick=4 cr=a action=shutdown instances=i-0001 nodes=E"
    golden = [*GOLDEN, shutdown]
    actual = [line.replace("cr=a", "cr=b") for line in golden]
    report = diff_trace_lines(actual, golden)
    assert [entry.split(":", 1)[0] for entry in report.entries] == [
        "LEDGER[0]", "ACTION[0]"
    ]


# -- the line format and the parsed view ------------------------------------

# Field values hold no space, comma or line break; `=` and `:` are fine.
tokens = st.text(alphabet=string.ascii_letters + string.digits + "-_/:.={}", max_size=6)
csvs = st.lists(tokens, max_size=3)
details = st.text(alphabet=string.ascii_letters + " :=,-", max_size=16)


def _call(method, tag, fields, *args):
    return method, args, tag, tuple(fields)


records_to_make = st.one_of(
    st.builds(
        lambda i, a, app, req, inp: _call(
            "request", TAG_REQUEST,
            [("id", i), ("action", a), ("app", app), ("requesters", ",".join(req)),
             ("inputs", ",".join(f"{e}:{k}" for e, k in inp))],
            i, a, app, req, inp,
        ),
        tokens, tokens, tokens, csvs, st.lists(st.tuples(tokens, tokens), max_size=3),
    ),
    st.builds(
        lambda kind, name, gen, a: _call(
            "cr_applied", TAG_CR,
            [("kind", kind), ("name", name), ("generation", str(gen)), ("action", a)],
            kind, name, gen, a,
        ),
        tokens, tokens, st.integers(0, 10**6), tokens,
    ),
    st.builds(
        lambda cr, support, config: _call(
            "ledger_state", TAG_LEDGER,
            [("cr", cr), ("support", ",".join(support)), ("config", ",".join(config))],
            cr, support, config,
        ),
        tokens, csvs, csvs,
    ),
    st.builds(
        lambda cr, a, instances, nodes, replaced: _call(
            "instance_action", TAG_ACTION,
            [("cr", cr), ("action", a), ("instances", ",".join(instances)),
             ("nodes", ",".join(nodes))]
            + ([("replaced", ",".join(replaced))] if replaced else []),
            cr, a, instances, nodes, replaced,
        ),
        tokens, tokens, csvs, csvs, csvs,
    ),
    st.builds(
        lambda node, topics: _call(
            "topics", TAG_TOPICS, [("node", node), ("topics", ",".join(topics))],
            [topics_tail(node, topics)],
        ),
        tokens, csvs,
    ),
    st.builds(
        lambda source, kind, detail: _call(
            "error", TAG_ERROR,
            [("source", source), ("kind", kind), ("detail", detail)],
            source, kind, detail,
        ),
        tokens, tokens, details,
    ),
)


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), records_to_make),
        max_size=8,
    )
)
def test_every_record_reads_back_through_the_view(script):
    trace = Trace()
    for step, tick, (method, args, _, _) in script:
        trace.at(step, tick)
        getattr(trace, method)(*args)
    want = [(tag, step, tick, fields) for step, tick, (_, _, tag, fields) in script]
    assert [tuple(record) for record in trace.records] == want
    assert len(trace.records) == len(script)
    assert trace.render() == "".join(line + "\n" for line in trace.lines())


def test_render_is_the_joined_lines_each_ended():
    trace = Trace()
    assert trace.render() == ""
    for tick in range(1, 4):
        trace.at(1, tick)
        trace.topics([topics_tail("E", ("/V0/ego",) * tick)])
        trace.repeat(1)
    assert len(trace.lines()) == 6
    assert trace.render() == "\n".join(trace.lines()) + "\n"


def test_lines_keep_their_fixed_format():
    trace = Trace()
    assert trace.render() == ""
    trace.at(3, 7)
    trace.ledger_state("conn-S-E", (), ())
    trace.instance_action("svc-a", "deploy", ["i-0001"], ["E"])
    trace.instance_action("svc-a", "replace", ["i-0002"], ["E"], replaced=("i-0001",))
    trace.error("manager", "request-rejected", "req-1:bad input V0:radar, want a=b")
    assert trace.render() == (
        "LEDGER step=3 tick=7 cr=conn-S-E support= config=\n"
        "ACTION step=3 tick=7 cr=svc-a action=deploy instances=i-0001 nodes=E\n"
        "ACTION step=3 tick=7 cr=svc-a action=replace instances=i-0002 nodes=E "
        "replaced=i-0001\n"
        "ERROR step=3 tick=7 source=manager kind=request-rejected "
        "detail=req-1:bad input V0:radar, want a=b\n"
    )
    ledger, deploy, replace, error = trace.records
    assert ledger.fields == (("cr", "conn-S-E"), ("support", ""), ("config", ""))
    assert ledger.values("support") == ()
    assert deploy.get("replaced") == ""
    assert replace.values("replaced") == ("i-0001",)
    assert error.get("detail") == "req-1:bad input V0:radar, want a=b"


def test_a_topics_batch_writes_one_line_per_node_at_one_position():
    trace = Trace()
    trace.at(4, 9)
    trace.topics(
        topics_tail(node, topics)
        for node, topics in (("A", ("/A/ego",)), ("C", ()), ("E", ("/S/points", "/V0/ego")))
    )
    trace.at(5, 10)
    trace.topics([])  # an empty batch writes nothing
    assert trace.render() == (
        "TOPICS step=4 tick=9 node=A topics=/A/ego\n"
        "TOPICS step=4 tick=9 node=C topics=\n"
        "TOPICS step=4 tick=9 node=E topics=/S/points,/V0/ego\n"
    )
    assert [r.values("topics") for r in trace.records] == [
        ("/A/ego",), (), ("/S/points", "/V0/ego"),
    ]


def test_records_is_a_read_only_view_of_the_lines():
    trace = Trace()
    records = trace.records
    assert len(records) == 0
    trace.topics([topics_tail("E", ["/S/points", "/V0/ego"])])
    trace.at(1, 2)
    trace.topics([topics_tail("V0", ())])
    # taken before the appends, the view still sees them, in order
    assert len(records) == 2
    assert [(r.get("node"), r.tick) for r in records] == [("E", 0), ("V0", 2)]
    assert records[-1] == records[1] != records[-2] == records[0]
    assert records[0].values("topics") == ("/S/points", "/V0/ego")
    with pytest.raises(IndexError):
        records[2]
    with pytest.raises(AttributeError):
        trace.records = []


# -- a TOPICS batch stored as one string, against one string per line -------


class LineTrace(Trace):
    """The reference: a TOPICS batch stored as one string per line."""

    def topics(self, tails):
        prefix = f"{TAG_TOPICS} {self._at} "
        self._stored.extend([prefix + tail for tail in tails])


def assert_same_trace(trace, reference):
    """Same lines, text, length and records; and the lines are the text's."""
    lines = reference.lines()
    assert trace.lines() == lines == trace.render().split("\n")[:-1]
    assert trace.render() == reference.render()
    assert len(trace.records) == len(lines) == trace.render().count("\n")
    assert list(trace.records) == list(reference.records)


def twin_calls(script, *traces):
    """Make each (step, tick, method, args) call on every trace."""
    for step, tick, method, args in script:
        for trace in traces:
            trace.at(step, tick)
            if method == "topics_generator":
                trace.topics(tail for tail in args[0])
            else:
                getattr(trace, method)(*args)


tails = st.builds(topics_tail, tokens, csvs)
batch_calls = st.one_of(
    records_to_make.map(lambda made: (made[0], made[1])),
    st.tuples(st.sampled_from(["topics", "topics_generator"]),
              st.lists(tails, max_size=4).map(lambda batch: (batch,))),
    st.tuples(st.just("repeat"), st.integers(0, 3).map(lambda count: (count,))),
)


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), batch_calls)
        .map(lambda call: (call[0], call[1], *call[2])),
        max_size=12,
    )
)
def test_a_batch_trace_reads_as_its_per_line_twin(script):
    trace, reference, alone = Trace(), LineTrace(), Trace()
    for call in script:
        method, args = call[2:]
        # A repeat reaches back no further than the trace goes.
        if method != "repeat" or args[0] <= len(alone._stored):
            twin_calls([call], alone)
        # After a deliver the records repeated are single lines; a batch
        # of several repeats whole on one side, in part on the other.
        stored = trace._stored
        if method == "repeat" and (args[0] > len(stored) or any(
            "\n" in s for s in stored[len(stored) - args[0]:]
        )):
            continue
        twin_calls([call], trace, reference)
    assert_same_trace(trace, reference)
    # repeated whole, a batch still counts all its lines
    lines = alone.lines()
    assert lines == alone.render().split("\n")[:-1]
    assert len(alone.records) == len(lines) == alone.render().count("\n")


def test_batch_twin_cases():
    batch = [topics_tail("A", ["/A/ego"]), topics_tail("E", ["/A/ego", "/E/ego"])]
    script = [
        (1, 1, "topics", ([],)),  # an empty batch writes nothing
        (1, 2, "topics_generator", (batch,)),
        (1, 3, "error", ("manager", "request-rejected", "r1:no such app")),
        (1, 3, "repeat", (1,)),
        (2, 4, "topics", ([topics_tail("V0", [])],)),  # one tail, then repeated
        (2, 4, "repeat", (1,)),
        (2, 5, "topics_generator", ([],)),
    ]
    trace, reference = Trace(), LineTrace()
    twin_calls(script, trace, reference)
    assert_same_trace(trace, reference)
    assert len(trace.lines()) == 6


def test_a_batch_traces_view_is_live_like_its_twins():
    trace, reference = Trace(), LineTrace()
    views = trace.records, reference.records
    batch = [topics_tail(node, [f"/{node}/ego"]) for node in "ABC"]
    for at, calls in enumerate(([("topics", (batch,))], [("repeat", (0,))],
                                [("topics", (batch[:1],)), ("repeat", (1,))])):
        twin_calls([(1, at, method, args) for method, args in calls], trace, reference)
        assert len(views[0]) == len(views[1])
        assert list(views[0]) == list(views[1])
        assert views[0][-1] == views[1][-1] and views[0][0] == views[1][0]
    assert [r.get("node") for r in views[0]] == ["A", "B", "C", "A", "A"]
    with pytest.raises(IndexError):
        views[0][5]


def test_a_batch_is_one_stored_string_whatever_its_size():
    for size in (1, 10, 1000):
        trace = Trace()
        trace.topics(topics_tail(f"N{i}", ["/t"]) for i in range(size))
        assert len(trace._stored) == 1
        assert len(trace.records) == size
        trace.repeat(1)
        assert len(trace.records) == 2 * size == trace.render().count("\n")


def test_write_streams_what_render_gives(tmp_path):
    trace = Trace()
    path = tmp_path / "trace.txt"
    trace.write(path)
    assert path.read_bytes() == b""
    trace.topics([topics_tail("E", ["/V0/ego"]), topics_tail("V0", [])])
    trace.error("manager", "request-rejected", "r1:bad input, want a=b")
    trace.write(path)
    assert path.read_text(encoding="utf-8") == trace.render()
