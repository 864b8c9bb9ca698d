"""Per-layer spans recorded from outside ``gosyn``.

The tracer replaces public functions at the module attributes their callers
look them up through (``gosyn.design.netlist_of``, ``gosyn.sim.linearize_round``
and so on), records one span per call (name, start, end, parent) in memory,
and puts the original functions back when its ``with`` block ends.  Nothing
under ``src/`` changes.  A layer's self time is its spans' duration minus the part covered
by their child spans; counts come from the calls and their results.
"""

from __future__ import annotations

import importlib
import time

# span name -> (module attributes to wrap, record spans?); ``restore_monitor``
# is counted, not timed
TARGETS = {
    "syntax.parse": (["gosyn.syntax:parse", "gosyn.design:parse"], True),
    "typecheck.typecheck": (["gosyn.typecheck:typecheck", "gosyn.design:typecheck"], True),
    "denote.denote": (["gosyn.denote:denote", "gosyn.design:denote"], True),
    "denote.relay": (["gosyn.denote:relay"], True),
    "denote.synchronize_and_hide": (["gosyn.denote:synchronize_and_hide"], True),
    "syncmin.round_abstract": (["gosyn.syncmin:round_abstract", "gosyn.design:round_abstract"], True),
    "syncmin.minimize_under_protocol": (
        ["gosyn.syncmin:minimize_under_protocol", "gosyn.design:minimize_under_protocol"], True),
    "syncmin.prune_inadmissible": (["gosyn.netlist:prune_inadmissible"], True),
    "plays.linearize_round": (
        ["gosyn.plays:linearize_round", "gosyn.syncmin:linearize_round", "gosyn.sim:linearize_round"],
        True),
    "plays.restore_monitor": (["gosyn.syncmin:restore_monitor", "gosyn.sim:restore_monitor"], False),
    "plays.check_sync_trace": (["gosyn.plays:check_sync_trace"], True),
    "netlist.netlist_of": (["gosyn.netlist:netlist_of", "gosyn.design:netlist_of"], True),
    "netlist.synthesis_view": (["gosyn.netlist:synthesis_view"], True),
    "netlist.emit_verilog": (["gosyn.netlist:emit_verilog", "gosyn.design:emit_verilog"], True),
    "design.compile_design": (["gosyn.design:compile_design"], True),
    "design.design_verilog": (["gosyn.design:design_verilog"], True),
    "design.manager_machine": (["gosyn.design:manager_machine"], True),
    "sim.simulate": (["gosyn.sim:simulate"], True),
}

# per_layer metric -> span name; "_ms" is the span's self time
TIMED = {
    "syntax.parse_ms": "syntax.parse",
    "typecheck.typecheck_ms": "typecheck.typecheck",
    "denote.denote_ms": "denote.denote",
    "denote.relay_ms": "denote.relay",
    "denote.synchronize_and_hide_ms": "denote.synchronize_and_hide",
    "syncmin.round_abstract_ms": "syncmin.round_abstract",
    "syncmin.minimize_under_protocol_ms": "syncmin.minimize_under_protocol",
    "syncmin.prune_inadmissible_ms": "syncmin.prune_inadmissible",
    "plays.linearize_round_ms": "plays.linearize_round",
    "plays.check_sync_trace_ms": "plays.check_sync_trace",
    "netlist.netlist_of_ms": "netlist.netlist_of",
    "netlist.synthesis_view_ms": "netlist.synthesis_view",
    "netlist.emit_verilog_ms": "netlist.emit_verilog",
    "design.compile_design_ms": "design.compile_design",
    "design.design_verilog_ms": "design.design_verilog",
    "design.manager_machine_ms": "design.manager_machine",
    "sim.design_simulate_ms": "sim.design_simulate",
    "sim.gate_simulate_ms": "sim.gate_simulate",
    "sim.machine_simulate_ms": "sim.machine_simulate",
}
CALLS = {
    "denote.relay_calls": "denote.relay",
    "denote.synchronize_and_hide_calls": "denote.synchronize_and_hide",
    "syncmin.prune_inadmissible_calls": "syncmin.prune_inadmissible",
    "plays.linearize_round_calls": "plays.linearize_round",
    "plays.restore_monitor_calls": "plays.restore_monitor",
    "netlist.netlist_of_calls": "netlist.netlist_of",
    "design.manager_machine_calls": "design.manager_machine",
}
COUNTS = (
    "denote.automaton_states", "syncmin.clocked_states", "syncmin.round_rows_defined",
    "syncmin.round_rows_tried", "syncmin.minimized_states", "plays.linearize_round_accepted",
    "sim.cycles",
)


def _sim_span(device) -> str:
    kind = type(device).__name__
    return {"Design": "sim.design_simulate", "NetModule": "sim.gate_simulate"}.get(
        kind, "sim.machine_simulate")


class Tracer:
    """Wraps the layer functions of one process; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {c: 0 for c in COUNTS}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, (where, spans) in TARGETS.items():
            for spec in where:
                modname, attr = spec.split(":")
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, spans))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn, keep_span: bool):
        clock = time.perf_counter
        spans, stack, calls = self.spans, self._stack, self.calls
        on_result = getattr(self, "_on_" + name.replace(".", "_"), None)

        if not keep_span:
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            span_name = _sim_span(args[0]) if name == "sim.simulate" else name
            # a recursive call through a second wrapped attribute stays in its span
            if stack and spans[stack[-1]][0] == span_name:
                return fn(*args, **kwargs)
            calls[span_name] = calls.get(span_name, 0) + 1
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    # counts read off results, at the boundary where the work happens

    def _on_denote_denote(self, auto) -> None:
        self.counts["denote.automaton_states"] += auto.n_states

    def _on_syncmin_round_abstract(self, m) -> None:
        n_inputs = sum(1 for x in m.arena.moves if m.arena.is_input(x))
        self.counts["syncmin.clocked_states"] += m.n_states
        self.counts["syncmin.round_rows_defined"] += sum(len(r) for r in m.transitions.values())
        self.counts["syncmin.round_rows_tried"] += m.n_states * 2 ** n_inputs

    def _on_syncmin_minimize_under_protocol(self, m) -> None:
        self.counts["syncmin.minimized_states"] += m.n_states

    def _on_plays_linearize_round(self, order) -> None:
        if order is not None:
            self.counts["plays.linearize_round_accepted"] += 1

    def _on_sim_simulate(self, report) -> None:
        self.counts["sim.cycles"] += report.cycles

    def totals(self) -> dict:
        """Self time per span name (ms), calls, counts and linearize calls under sim."""
        self_s: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            d = end - start
            self_s[name] = self_s.get(name, 0.0) + d
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - d
        in_sim = 0
        for name, _, _, parent in self.spans:
            if name != "plays.linearize_round":
                continue
            while parent >= 0 and not self.spans[parent][0].startswith("sim."):
                parent = self.spans[parent][3]
            in_sim += parent >= 0
        return {"self_ms": {k: v * 1e3 for k, v in self_s.items()},
                "calls": dict(self.calls), "counts": dict(self.counts),
                "linearize_in_sim": in_sim, "spans": len(self.spans)}


def merge(totals: list[dict]) -> dict:
    """Sum the totals of several processes."""
    out = {"self_ms": {}, "calls": {}, "counts": {c: 0 for c in COUNTS},
           "linearize_in_sim": 0, "spans": 0}
    for t in totals:
        for part in ("self_ms", "calls", "counts"):
            for k, v in t[part].items():
                out[part][k] = out[part].get(k, 0) + v
        out["linearize_in_sim"] += t["linearize_in_sim"]
        out["spans"] += t["spans"]
    return out


def layer_metrics(t: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from merged totals."""
    out: dict[str, tuple[float, str]] = {}
    for metric, span in TIMED.items():
        out[metric] = (t["self_ms"].get(span, 0.0), "ms")
    for metric, span in CALLS.items():
        out[metric] = (t["calls"].get(span, 0), "count")
    c = t["counts"]
    for name in ("denote.automaton_states", "syncmin.clocked_states", "syncmin.round_rows_defined",
                 "syncmin.round_rows_tried", "syncmin.minimized_states"):
        out[name] = (c[name], "count")
    out["syncmin.round_rows_useful_share"] = (
        c["syncmin.round_rows_defined"] / c["syncmin.round_rows_tried"]
        if c["syncmin.round_rows_tried"] else 0.0, "ratio")
    lin = t["calls"].get("plays.linearize_round", 0)
    out["plays.linearize_round_accept_share"] = (
        c["plays.linearize_round_accepted"] / lin if lin else 0.0, "ratio")
    out["sim.linearize_round_calls_per_cycle"] = (
        t["linearize_in_sim"] / c["sim.cycles"] if c["sim.cycles"] else 0.0, "calls/cycle")
    out["trace.spans"] = (t["spans"], "count")
    return out
