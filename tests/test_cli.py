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
    ["ir", "--async", "x.sci"],
    ["ir"], ["ir", "x.sci", "--arena", "com"],
    ["ir", "--sync", "x.sci", "--min", "plain"],
    ["ir", "--sync", "x.sci", "--min", "protocol"],
    ["compile", "x.sci", "--min", "plain"],
    ["compile", "x.sci", "--min", "protocol"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: gosyn" in capsys.readouterr().err


def test_ir_usage_shows_that_it_takes_a_file_or_an_arena(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ir", "-h"])
    assert exc.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert usage == ("usage: gosyn ir [-h] (file | --arena TYPE) [--sync] [--no-minimize] "
                     "[--json PATH] [--dot PATH]")


def test_sim_refuses_a_stimulus_for_another_interface(capsys):
    code, err = _run(capsys, "sim", str(DEMOS / "shared_twice.sci"),
                     "--stimulus", str(DEMOS / "nested_call.stim"))
    assert code == 1
    assert err.startswith("error[SimError]") and "not a boundary input" in err


def test_monitor_needs_exactly_one_interface(capsys):
    trace = str(DEMOS / "nested_call.trace")
    for extra in ([], ["--arena", "com", "--share", "com"]):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", trace, *extra])
        assert exc.value.code == 2
        assert "usage: gosyn monitor" in capsys.readouterr().err


def test_monitor_names_an_unknown_port_without_quotes(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("q1\nzz\n")
    code, err = _run(capsys, "monitor", str(trace), "--arena", "com -> com")
    assert code == 1
    assert err == "error[KeyError]: no port named 'zz'; ports are q1, a1, q2, a2\n"


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


def test_compile_names_the_module_after_the_file(tmp_path, capsys):
    # q2 is also a port of the flattened block; the module keeps the file's name
    path = tmp_path / "q2.sci"
    path.write_text("fn x : com -> fn y : com -> x ; y\n")
    assert main(["compile", str(path)]) == 0
    assert capsys.readouterr().out.startswith("module q2 (")


@pytest.mark.parametrize("demo, stem, top, bad", [
    ("seq", "my-seq", None, "my-seq"), ("shared_twice", "shared_twice", "2top", "2top_body"),
])
def test_compile_refuses_a_module_name_verilog_cannot_declare(tmp_path, capsys, demo, stem, top,
                                                               bad):
    path = tmp_path / f"{stem}.sci"
    path.write_text((DEMOS / f"{demo}.sci").read_text())
    code, err = _run(capsys, "compile", str(path), *(["--top", top] if top else []))
    assert code == 1
    assert err.startswith(f"error[ValueError]: module name '{bad}' is not a Verilog identifier")
    assert "--top" in err
    assert main(["compile", str(path), "--top", "my_seq"]) == 0
    assert "\nmodule my_seq (" in "\n" + capsys.readouterr().out
