"""Programs the compiler cannot handle fail with a typed error, which the
command line reports as a domain error (exit code 1) instead of a traceback."""

from pathlib import Path

import pytest

from gosyn.cli import main
from gosyn.denote import interpret
from gosyn.design import DesignError, manager_machine, parse_wire_file
from gosyn.syncmin import round_abstract
from gosyn.syntax import parse_type

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(tmp_path, capsys, stage: str, source: str) -> tuple[int, str]:
    path = tmp_path / "prog.sci"
    path.write_text(source + "\n")
    code = main([stage, str(path)])
    return code, capsys.readouterr().err


def test_sharing_a_product_typed_parameter_is_a_design_error(tmp_path, capsys):
    code, err = _run(tmp_path, capsys, "compile", "fn p : com * com -> (fst p ; snd p)")
    assert code == 1
    assert err.startswith("error[DesignError]") and "com * com" in err


def test_projecting_from_a_pair_with_a_cell_is_a_composition_stall(tmp_path, capsys):
    code, err = _run(tmp_path, capsys, "ir", "fn p : com * cell -> snd p")
    assert code == 1
    assert err.startswith("error[CompositionStall]") and "projection" in err


def test_projecting_the_cell_of_a_cell_exp_pair_stalls_quickly(tmp_path, capsys, criterion):
    # the benchmark's cell_fst case; its relay once built a 54,801-state automaton
    with criterion(5, "fn p : cell * exp -> fst p fails with CompositionStall", 1):
        code, err = _run(tmp_path, capsys, "ir", "fn p : cell * exp -> fst p")
    assert code == 1
    assert err.startswith("error[CompositionStall]") and "projection" in err


def test_sharing_a_cell_exp_pair_is_refused_before_clocking(criterion):
    # four opening requests per client; clocking its duplicator first took 20 s
    with criterion(10, "manager_machine(cell * exp) refuses with DesignError", 1):
        with pytest.raises(DesignError, match="serves one opening request per client"):
            manager_machine(parse_type("cell * exp"))


@pytest.mark.parametrize("extra", ["input q1", "output a1", "output q1", "share m com",
                                   "inst par par_pair.sci"])
def test_a_wire_file_name_declared_twice_is_a_design_error(extra):
    # a second port would be declared twice in the top module's Verilog,
    # a second instance would silently replace the first
    text = (DEMOS / "concurrent_calls.wire").read_text() + extra + "\n"
    load = lambda rel: round_abstract(interpret((DEMOS / rel).read_text()))
    line = len(text.splitlines())
    with pytest.raises(DesignError, match=f"line {line}: {extra.split()[1]} is declared twice"):
        parse_wire_file(text, load=load)
