"""Command-line front door: ``gosyn check|ir|compile|sim|monitor``.

Exit codes: 0 success, 1 domain error (bad program, illegal trace, broken
wiring), 2 usage error.  ``sim`` exits 0 whenever a report was produced;
the verdict lives in the report's status field, because a deadlock run is
a successful simulation of a deadlocking circuit.  All outputs are
byte-deterministic for a given input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .arena import Arena, arena_of_type, sharing_arena
from .automata import CompositionStall, DivergenceDetected
from .denote import interpret
from .design import (
    DesignError, clock_block, compile_design, design_verilog, netlists_of_design,
    parse_wire_file,
)
from .plays import check_sync_trace
from .serialize import emit_dot, emit_json, to_dict
from .sim import SimError, parse_stimulus, simulate
from .syncmin import NonConfluent
from .syntax import ParseError, functional_form, parse, parse_type, type_to_str
from .typecheck import SciTypeError, typecheck

_DOMAIN_ERRORS = (
    ParseError, SciTypeError, DesignError, SimError, DivergenceDetected,
    CompositionStall, NonConfluent, OSError, KeyError, ValueError,
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except _DOMAIN_ERRORS as e:
        # str() of a KeyError is the repr of its argument; print the message
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error[{type(e).__name__}]: {message}", file=sys.stderr)
        return 1


def _positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gosyn",
        description="Compile affine imperative programs to synchronous "
                    "handshake circuits; simulate and monitor them.",
    )
    p.add_argument("--version", action="version", version=f"gosyn {__version__}")
    sub = p.add_subparsers(dest="stage", required=True, metavar="stage")

    c = sub.add_parser("check", help="parse and typecheck a .sci program")
    c.add_argument("file", help="program source")
    c.add_argument("--dump-ast", action="store_true",
                   help="print the functional-form term")
    c.set_defaults(run=_run_check)

    # argparse leaves a group that mixes a positional and an option out of
    # the usage line, so it is written out here
    i = sub.add_parser("ir", help="dump the compiler's view of a program or type",
                       usage="%(prog)s [-h] (file | --arena TYPE) [--sync] [--no-minimize] "
                             "[--json PATH] [--dot PATH]")
    what = i.add_mutually_exclusive_group(required=True)
    what.add_argument("file", nargs="?", help="program source (omit with --arena)")
    what.add_argument("--arena", metavar="TYPE",
                      help="describe the interface of a type instead of a program")
    i.add_argument("--sync", action="store_true",
                   help="dump the clocked machine instead of the event automaton")
    i.add_argument("--no-minimize", action="store_true",
                   help="with --sync, keep the raw round-abstracted machine")
    i.add_argument("--json", metavar="PATH", help="write JSON here instead of stdout")
    i.add_argument("--dot", metavar="PATH", help="write DOT here instead of stdout")
    i.set_defaults(run=_run_ir)

    co = sub.add_parser("compile", help="compile a .sci program to Verilog")
    co.add_argument("file", help="program source")
    co.add_argument("-o", "--output", metavar="PATH", help="Verilog output (default stdout)")
    co.add_argument("--top", metavar="NAME", help="top module name (default: file stem)")
    co.add_argument("--no-minimize", action="store_true",
                    help="keep each block's raw round-abstracted machine")
    co.add_argument("--json", metavar="PATH", help="also dump the netlists as JSON")
    co.add_argument("--dot", metavar="PATH", help="also dump the netlists as DOT")
    co.set_defaults(run=_run_compile)

    s = sub.add_parser("sim", help="simulate a compiled program or a wiring file")
    s.add_argument("design", help="a .sci program or (with --unsafe-wire) a wiring file")
    s.add_argument("--stimulus", required=True, metavar="PATH",
                   help="one round per line; '.' is a quiet cycle")
    s.add_argument("--max-cycles", type=_positive, default=200, metavar="N",
                   help="stop after N cycles (at least 1)")
    s.add_argument("--vcd", metavar="PATH", help="write waveforms here")
    s.add_argument("--unsafe-wire", action="store_true",
                   help="treat the design as a raw wiring file and force the "
                        "stimulus rounds verbatim")
    s.add_argument("--json", metavar="PATH", help="write the report as JSON")
    s.set_defaults(run=_run_sim)

    m = sub.add_parser("monitor", help="check a recorded round trace for legality")
    m.add_argument("trace", help="trace file, one round per line")
    face = m.add_mutually_exclusive_group(required=True)
    face.add_argument("--arena", metavar="TYPE", help="interface of a type")
    face.add_argument("--share", metavar="TYPE",
                      help="interface of a call manager over a type")
    m.add_argument("--json", metavar="PATH", help="write the verdict as JSON")
    m.set_defaults(run=_run_monitor)
    return p


def _write_or_print(text: str, path) -> None:
    if path and path != "-":
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _run_check(args) -> int:
    src = Path(args.file).read_text()
    term = parse(src)
    if args.dump_ast:
        print(functional_form(term))
    typed = typecheck(term)
    print(f"ok: {type_to_str(typed.ty)}")
    return 0


def _run_ir(args) -> int:
    if args.arena is not None:
        a = arena_of_type(parse_type(args.arena))
        print(_arena_table(a))
        _dump(a, args, "arena")
        return 0
    src = Path(args.file).read_text()
    stem = Path(args.file).stem
    if args.sync:
        x = clock_block(interpret(src), not args.no_minimize)
        print(f"{x.n_states} states, clocked rounds:")
        print(x.describe())
    else:
        x = interpret(src)
        print(f"{x.n_states} states over {', '.join(x.arena.port_names())}")
    _dump(x, args, stem)
    return 0


def _dump(x, args, name: str) -> None:
    if args.json:
        _write_or_print(emit_json(x), args.json)
    if args.dot:
        _write_or_print(emit_dot(x, name), args.dot)
    if not args.json and not args.dot:
        sys.stdout.write(emit_json(x))
        sys.stdout.write(emit_dot(x, name))


def _arena_table(a: Arena) -> str:
    rows = [("port", "face", "dir", "kind", "enabled by")]
    for m in a.moves:
        rows.append((
            a.name(m), m.face,
            "in" if a.is_input(m) else "out",
            "question" if a.is_question(m) else "answer",
            ", ".join(sorted(a.name(e) for e in a.enablers_of(m))) or "(initial)",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows
    )


def _run_compile(args) -> int:
    src = Path(args.file).read_text()
    name = args.top or Path(args.file).stem
    design = compile_design(src, name=name, minimize=not args.no_minimize)
    mods = netlists_of_design(design)
    _write_or_print(design_verilog(design, mods), args.output)
    if args.json:
        doc = {"kind": "design", "name": design.name,
               "modules": [to_dict(m) for m in mods]}
        _write_or_print(json.dumps(doc, indent=2) + "\n", args.json)
    if args.dot:
        _write_or_print("".join(emit_dot(m, m.name) for m in mods), args.dot)
    return 0


def _load_block(wire_path: Path):
    def load(rel: str):
        src = (wire_path.parent / rel).read_text()
        return clock_block(interpret(src))
    return load


def _run_sim(args) -> int:
    path = Path(args.design)
    stimulus = parse_stimulus(Path(args.stimulus).read_text())
    if args.unsafe_wire:
        design = parse_wire_file(path.read_text(), name=path.stem,
                                 load=_load_block(path))
        report = simulate(design, stimulus, max_cycles=args.max_cycles,
                          unsafe=True, vcd=args.vcd)
    else:
        design = compile_design(path.read_text(), name=path.stem)
        report = simulate(design, stimulus, max_cycles=args.max_cycles,
                          vcd=args.vcd)
    print(report.describe())
    if args.json:
        _write_or_print(json.dumps(report.as_dict(), indent=2) + "\n", args.json)
    return 0


def _run_monitor(args) -> int:
    a = (arena_of_type(parse_type(args.arena)) if args.arena is not None
         else sharing_arena(parse_type(args.share)))
    rounds = parse_stimulus(Path(args.trace).read_text())
    ok, lin, viol = check_sync_trace(a, rounds)
    doc: dict = {"legal": ok}
    if ok:
        print("legal")
        for i, r in enumerate(lin, 1):
            print(f"  round {i:3d}: " + " ".join(r))
        doc["linearization"] = lin
    else:
        print(f"illegal: {viol}")
        doc["violation"] = dataclasses.asdict(viol)
    if args.json:
        _write_or_print(json.dumps(doc, indent=2) + "\n", args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
