"""The simulation side of the benchmark: design-level, gate-level and monitor.

``prepare`` compiles what is simulated; ``measure`` runs rounds of the three
parts and checks every output against hand-written expectations in
``demos/`` (never against output captured from the compiler under test):

* design level: ``shared_twice`` (body block, call manager, three monitors)
  driven by ``demos/shared_twice.stim`` once per session; the call
  manager's trace must equal ``demos/shared_twice.trace`` in every session;
* gate level: the ``loop.sci`` block as a ``SyncMachine`` and as its
  ``netlist_of`` netlist on one seeded stimulus; the two traces must agree
  cycle for cycle;
* monitor: ``check_sync_trace`` over the manager trace of the design run,
  which must be legal.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time
from pathlib import Path

from case import verilog_ops, verilog_regs

SESSIONS = 20           # shared_twice sessions per design-level round
LOOP_SESSIONS = 12      # loop.sci sessions per gate-level round
LOOP_ITERATIONS = 30    # loop bodies per gate-level round, split across sessions by the seed
MAX_CYCLES = 100_000


def _mods():
    return {m: importlib.import_module(f"gosyn.{m}")
            for m in ("syntax", "typecheck", "denote", "syncmin", "netlist", "design",
                      "sim", "plays", "arena")}


def loop_stimulus(seed: int) -> list[tuple[str, ...]]:
    """``LOOP_SESSIONS`` runs of the loop whose iteration counts the seed draws.

    The counts always sum to ``LOOP_ITERATIONS``, so every seed simulates the
    same number of cycles and the traced counts repeat exactly.
    """
    rng = random.Random(seed)
    cuts = sorted(rng.randint(0, LOOP_ITERATIONS) for _ in range(LOOP_SESSIONS - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [LOOP_ITERATIONS])]
    stim: list[tuple[str, ...]] = []
    for k in counts:
        stim += [("q1",)] + [("t3",), ("a2",)] * k + [("f3",)]
    return stim


def _block(mods, source: str):
    """The single-block pipeline a wire file's ``inst`` line compiles."""
    typed = mods["typecheck"].typecheck(mods["syntax"].parse(source))
    m = mods["syncmin"].round_abstract(mods["denote"].denote(typed))
    return mods["syncmin"].minimize_under_protocol(m)


def prepare(demos: Path, seed: int) -> dict:
    """Load stimuli and compile the simulated designs; returns them with compile times."""
    mods = _mods()
    sim = mods["sim"]
    read = lambda name: (demos / name).read_text()
    p = {
        "mods": mods,
        "stim": sim.parse_stimulus(read("shared_twice.stim")),
        "golden": [tuple(r) for r in sim.parse_stimulus(read("shared_twice.trace"))],
        "nested_trace": sim.parse_stimulus(read("nested_call.trace")),
        "loop_stim": loop_stimulus(seed),
        "share_arena": mods["arena"].sharing_arena(mods["syntax"].parse_type("com -> com")),
        "compile_s": {},
    }
    t = time.perf_counter()
    p["design"] = mods["design"].compile_design(read("shared_twice.sci"), name="shared_twice")
    p["compile_s"]["shared_twice"] = time.perf_counter() - t
    t = time.perf_counter()
    p["machine"] = _block(mods, read("loop.sci"))
    p["netlist"] = mods["netlist"].netlist_of(p["machine"], "loop")
    text = mods["netlist"].emit_verilog(p["netlist"])
    p["compile_s"]["loop"] = time.perf_counter() - t
    p["verilog_ops"] = verilog_ops(text)
    p["state_bits"] = verilog_regs(text)
    return p


class Checks:
    """Output checks: each one attempted, each failure kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _one_round(p: dict, checks: Checks) -> dict:
    mods = p["mods"]
    simulate = lambda *a, **k: mods["sim"].simulate(*a, **k)
    out = {}

    t = time.perf_counter()
    rep = simulate(p["design"], p["stim"] * SESSIONS, max_cycles=MAX_CYCLES)
    out["design_s"] = time.perf_counter() - t
    out["design_cycles"] = rep.cycles
    busy = [k for k, r in enumerate(rep.trace) if r]
    out["session_cycles"] = (busy[-1] + 1) / SESSIONS if busy else 0.0
    checks.check(rep.status == "Completed", f"shared_twice ended {rep.status}")
    mgr = [r for r in rep.instance_traces.get("mgr_f", ()) if r]
    g = len(p["golden"])
    for k in range(SESSIONS):
        checks.check(tuple(mgr[k * g:(k + 1) * g]) == tuple(p["golden"]),
                     f"mgr_f trace of session {k + 1} differs from shared_twice.trace")
    checks.check(len(mgr) == g * SESSIONS, "mgr_f trace has extra rounds")

    t = time.perf_counter()
    ok, _, viol = mods["plays"].check_sync_trace(p["share_arena"], mgr)
    out["monitor_s"] = time.perf_counter() - t
    out["monitor_moves"] = sum(len(r) for r in mgr)
    checks.check(ok, f"manager trace judged illegal: {viol}")

    t = time.perf_counter()
    gate = simulate(p["netlist"], p["loop_stim"], max_cycles=MAX_CYCLES, arena=p["machine"].arena)
    out["gate_s"] = time.perf_counter() - t
    out["gate_cycles"] = gate.cycles
    t = time.perf_counter()
    ref = simulate(p["machine"], p["loop_stim"], max_cycles=MAX_CYCLES)
    out["machine_s"] = time.perf_counter() - t
    checks.check(gate.status == ref.status == "Completed",
                 f"loop ended {ref.status} (machine) / {gate.status} (gates)")
    checks.check(gate.trace == ref.trace, "loop gate-level trace differs from machine-level trace")
    return out


def fixed_checks(p: dict, demos: Path, checks: Checks) -> None:
    """Verdicts the demos document: a monitor rejection, a race and a deadlock."""
    mods = p["mods"]
    ok, _, viol = mods["plays"].check_sync_trace(p["share_arena"], p["nested_trace"])
    checks.check(not ok and viol is not None and viol.rule == "Serial" and viol.index == 5,
                 f"nested_call.trace: expected a Serial violation at move 5, got {viol}")
    for wire, status, ports in (("concurrent_calls", "Race", ("Q'1", "Q'2")),
                                ("nested_call", "Deadlock", ())):
        path = demos / f"{wire}.wire"
        d = mods["design"].parse_wire_file(
            path.read_text(), name=wire, load=lambda rel: _block(mods, (demos / rel).read_text()))
        stim = mods["sim"].parse_stimulus((demos / f"{wire}.stim").read_text())
        rep = mods["sim"].simulate(d, stim, unsafe=True)
        checks.check(rep.status == status and tuple(rep.race_ports) == ports,
                     f"{wire}.wire: expected {status} {ports}, got {rep.status} {rep.race_ports}")


class Rounds:
    """Rounds of the three parts; rates are taken over all rounds run so far."""

    def __init__(self, p: dict, checks: Checks):
        self.p, self.checks = p, checks
        self.samples: list[dict] = []
        self.busy_s = 0.0

    def run(self, seconds: float = 0.0) -> None:
        """One round, and more until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            self.samples.append(_one_round(self.p, self.checks))
            if time.perf_counter() - start >= seconds:
                break
        self.busy_s += time.perf_counter() - start

    def summary(self) -> dict:
        # The host's cores run at full speed or at about half speed, in stretches
        # from a tenth of a second to many seconds, as other tenants' load comes
        # and goes.  A median rate follows how busy the neighbours were; the best
        # of many short rounds follows the code, as ``timeit`` reports the best
        # of its repeats.
        fast = lambda f: max(f(s) for s in self.samples)
        return {
            "sim_cycles_per_s": fast(lambda s: s["design_cycles"] / s["design_s"]),
            "gate_sim_cycles_per_s": fast(lambda s: s["gate_cycles"] / s["gate_s"]),
            "machine_sim_cycles_per_s": fast(lambda s: s["gate_cycles"] / s["machine_s"]),
            "cycles_per_session": statistics.median(s["session_cycles"] for s in self.samples),
            "monitor_moves_per_s": fast(lambda s: s["monitor_moves"] / s["monitor_s"]),
            "rounds": len(self.samples),
            "wall_s": self.busy_s,
        }


def measure(p: dict, checks: Checks, rounds: int) -> dict:
    """Exactly ``rounds`` rounds of the three parts."""
    r = Rounds(p, checks)
    for _ in range(rounds):
        r.run()
    return r.summary()
