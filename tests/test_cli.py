"""Exit codes of the command line beyond the demo goldens.

``main`` returns 0 on success and 1 on a domain error, which it reports on
stderr as ``error[<type>]: ...``; argparse exits 2 on a usage error.  The
``sim`` and ``monitor`` goldens in ``test_demos`` cover exits 0 and 1 on
good input.
"""

from pathlib import Path

import pytest

from helpers import chain
from gosyn import design
from gosyn.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().err


def _check(tmp_path, capsys, source: str) -> tuple[int, str]:
    path = tmp_path / "prog.sci"
    path.write_text(source + "\n")
    return _run(capsys, "check", str(path))


def test_check_reports_a_parse_error(tmp_path, capsys):
    code, err = _check(tmp_path, capsys, "fn x : com -> (x ;")
    assert code == 1
    assert err.startswith("error[ParseError]")


def test_check_reports_a_type_error(tmp_path, capsys):
    code, err = _check(tmp_path, capsys, "fn x : com -> x x")
    assert code == 1
    assert err.startswith("error[SciTypeError]")


def test_check_reports_a_missing_file(tmp_path, capsys):
    code, err = _run(capsys, "check", str(tmp_path / "missing.sci"))
    assert code == 1
    assert err.startswith("error[FileNotFoundError]")


@pytest.mark.parametrize("argv", [
    [], ["check"], ["check", "x.sci", "--bogus"], ["build"],
    ["sim", "x.sci", "--stimulus", "x.stim", "--max-cycles", "-3"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: gosyn" in capsys.readouterr().err


def test_sim_refuses_a_stimulus_for_another_interface(capsys):
    code, err = _run(capsys, "sim", str(DEMOS / "shared_twice.sci"),
                     "--stimulus", str(DEMOS / "nested_call.stim"))
    assert code == 1
    assert err.startswith("error[SimError]") and "not a boundary input" in err


def test_monitor_needs_exactly_one_interface(capsys):
    code, err = _run(capsys, "monitor", str(DEMOS / "nested_call.trace"))
    assert code == 1
    assert err.startswith("error[SimError]")


def test_compile_takes_more_than_twelve_inputs(tmp_path, capsys):
    # seq12 has 13 input ports, past the 12 that rounds were once capped at
    path = tmp_path / "seq12.sci"
    path.write_text(chain(12, ";") + "\n")
    assert main(["compile", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("module seq12") and out.rstrip().endswith("endmodule")
    assert not err


@pytest.mark.parametrize("extra", [[], ["--json"], ["--dot"]])
def test_compile_synthesizes_each_instance_once(tmp_path, capsys, monkeypatch, extra):
    calls = []

    def counted(machine, name="top"):
        calls.append(name)
        return netlist_of(machine, name)

    netlist_of = design.netlist_of
    monkeypatch.setattr(design, "netlist_of", counted)
    argv = ["compile", str(DEMOS / "shared_twice.sci"), "-o", str(tmp_path / "out.v")]
    argv += [a for flag in extra for a in (flag, str(tmp_path / "dump"))]
    assert main(argv) == 0
    assert sorted(calls) == ["shared_twice_body", "shared_twice_mgr_f"]
