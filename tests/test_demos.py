"""Golden outputs of the demos, through the command line.

The texts pin the monitor's diagnostics byte for byte, including the move
positions a violation reports, which count from the pending requests of the
monitor state where the refused round began.
"""

from pathlib import Path

import pytest

from gosyn.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"

NESTED_CALL = """\
status: Deadlock (cycle 5)
cycles: 5
monitor[m]: Serial violation at move 5 (Q0): that request is still pending; re-issuing it must wait
pending: m:Q'2, m:Q'0, m:Q0, m:Q2, m:Q'1
  cycle   1: GO Q'0
  cycle   2: Q0
  cycle   3: Q0
  cycle   4: A'0
"""

CONCURRENT_CALLS = """\
status: Race (cycle 1)
cycles: 1
raced:  Q'1, Q'2
  cycle   1: q1
"""

SHARED_TWICE = """\
status: Completed
cycles: 6
  cycle   1: q1 q2
  cycle   2: q3 a3
  cycle   3: a2 q2
  cycle   4: q3 a3
  cycle   5: a2 a1
"""

NESTED_CALL_TRACE = """\
illegal: Serial violation at move 5 (Q'0): that request is still pending; re-issuing it must wait
"""

SHARED_TWICE_TRACE = """\
legal
  round   1: Q'2 Q'0
  round   2: Q0 Q2 A2 A0
  round   3: A'0 A'2 Q'1 Q'0
  round   4: Q0 Q1 A1 A0
  round   5: A'0 A'1
"""


def _cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("demo, want", [
    ("nested_call", NESTED_CALL),
    ("concurrent_calls", CONCURRENT_CALLS),
])
def test_wired_demo_simulation_golden(capsys, demo, want):
    code, out = _cli(capsys, "sim", str(DEMOS / f"{demo}.wire"),
                     "--stimulus", str(DEMOS / f"{demo}.stim"), "--unsafe-wire")
    assert (code, out) == (0, want)


def test_shared_twice_simulation_golden(capsys):
    code, out = _cli(capsys, "sim", str(DEMOS / "shared_twice.sci"),
                     "--stimulus", str(DEMOS / "shared_twice.stim"))
    assert (code, out) == (0, SHARED_TWICE)


@pytest.mark.parametrize("trace, want, code", [
    ("nested_call", NESTED_CALL_TRACE, 1),
    ("shared_twice", SHARED_TWICE_TRACE, 0),
])
def test_call_manager_trace_verdict_golden(capsys, trace, want, code):
    got = _cli(capsys, "monitor", str(DEMOS / f"{trace}.trace"), "--share", "com -> com")
    assert got == (code, want)

