"""gosyn: an affine imperative language compiled to synchronous circuits.

The pipeline runs source text through a fixed sequence of representations:

    parse        text -> Term                  (syntax)
    typecheck    Term -> Typed                 (typecheck)
    denote       Typed -> StrategyAutomaton    (denote, over arena/plays)
    round_abstract / minimize_under_protocol   (syncmin)
    netlist_of / emit_verilog                  (netlist)

``interpret`` bundles the first three stages.  Multi-block devices are wired
together with ``design`` and exercised cycle by cycle with ``sim``.
"""

from .syntax import (
    Arrow,
    Cell,
    Com,
    Exp,
    ParseError,
    Prod,
    Term,
    Type,
    functional_form,
    parse,
    parse_type,
    type_to_str,
)
from .typecheck import SciTypeError, Typed, typecheck
from .arena import Arena, Face, Move, arena_of_type, sharing_arena, term_arena
from .plays import (
    LimitExceeded,
    PlayMonitor,
    ProtocolAutomaton,
    Violation,
    check_play,
    check_sync_trace,
    decide_round,
    enumerate_plays,
    linearize_round,
)
from .automata import (
    CompositionStall,
    DivergenceDetected,
    StrategyAutomaton,
    glue_pair,
    synchronize_and_hide,
)
from .denote import const_automaton, denote, diagonal, interpret
from .syncmin import (
    NonConfluent,
    SyncMachine,
    equivalent_under_protocol,
    minimize,
    minimize_under_protocol,
    prune_inadmissible,
    round_abstract,
)
from .netlist import NetModule, emit_verilog, netlist_of, synthesis_view
from .design import (
    Design,
    DesignError,
    Instance,
    compile_design,
    design_verilog,
    manager_machine,
    netlists_of_design,
    parse_wire_file,
)
from .serialize import emit_dot, emit_json, from_dict, parse_json, to_dict
from .sim import SimError, SimReport, parse_stimulus, simulate

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "Arrow",
    "Cell",
    "Com",
    "CompositionStall",
    "Design",
    "DesignError",
    "DivergenceDetected",
    "Exp",
    "Face",
    "Instance",
    "LimitExceeded",
    "Move",
    "NetModule",
    "NonConfluent",
    "ParseError",
    "PlayMonitor",
    "Prod",
    "ProtocolAutomaton",
    "SciTypeError",
    "SimError",
    "SimReport",
    "StrategyAutomaton",
    "SyncMachine",
    "Term",
    "Type",
    "Typed",
    "Violation",
    "arena_of_type",
    "check_play",
    "check_sync_trace",
    "compile_design",
    "const_automaton",
    "decide_round",
    "denote",
    "design_verilog",
    "diagonal",
    "emit_dot",
    "emit_json",
    "emit_verilog",
    "enumerate_plays",
    "equivalent_under_protocol",
    "from_dict",
    "functional_form",
    "glue_pair",
    "interpret",
    "linearize_round",
    "manager_machine",
    "minimize",
    "minimize_under_protocol",
    "netlist_of",
    "netlists_of_design",
    "parse",
    "parse_json",
    "parse_stimulus",
    "parse_type",
    "parse_wire_file",
    "prune_inadmissible",
    "round_abstract",
    "sharing_arena",
    "simulate",
    "synchronize_and_hide",
    "synthesis_view",
    "term_arena",
    "to_dict",
    "type_to_str",
    "typecheck",
]
