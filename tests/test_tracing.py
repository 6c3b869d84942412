"""Golden trace diffing: what a divergence report says."""

from demandflow.tracing import diff_trace_lines

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
