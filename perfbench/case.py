"""Compile one corpus case in this process and print one JSON line about it.

Run by ``run.py``, one process per case, with the job as JSON on stdin:

    {"kind": "design" | "stages", "name": ..., "source": ..., "trace": bool}

or ``{"kind": "import"}``, which only times ``import gosyn``.

``design`` runs ``compile_design`` then ``design_verilog``, which is what
``gosyn compile`` does.  ``stages`` runs the single-block pipeline stage by
stage, which is what a wire file's ``inst`` line compiles.  Every call goes
through a module attribute, so a traced run sees it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

STAGES = ("parse", "typecheck", "denote", "round_abstract", "minimize_under_protocol",
          "netlist_of", "emit_verilog")
EQUIVALENCE_ROUNDS = 64


def verilog_ops(text: str) -> int:
    """``&`` and ``|`` operators in emitted Verilog."""
    return text.count("&") + text.count("|")


def verilog_regs(text: str) -> int:
    """State registers declared in emitted Verilog."""
    return len(re.findall(r"^\s*reg\s", text, re.M))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set since its exec (``VmHWM``) of process ``pid``, or of this one.

    ``ru_maxrss`` would also count the pages of the parent it was forked from.
    """
    for line in Path(f"/proc/{pid or 'self'}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    if pid is not None:
        raise OSError(f"no VmHWM for process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _where(exc: BaseException) -> str:
    """``module.function`` of the innermost gosyn frame that raised."""
    found = "?"
    for frame in traceback.extract_tb(exc.__traceback__):
        parts = Path(frame.filename).parts
        if "gosyn" in parts:
            found = f"{Path(frame.filename).stem}.{frame.name}"
    return found


def _run_design(job, mods, row) -> str:
    design = mods["design"]
    t = time.perf_counter()
    row["stage"] = "compile_design"
    d = design.compile_design(job["source"], name=job["name"])
    row["stage_ms"]["compile_design"] = (time.perf_counter() - t) * 1e3
    row["minimized_states"] = sum(i.machine.n_states for i in d.instances.values())
    t = time.perf_counter()
    row["stage"] = "design_verilog"
    text = design.design_verilog(d)
    row["stage_ms"]["design_verilog"] = (time.perf_counter() - t) * 1e3
    return text


def _run_stages(job, mods, row) -> str:
    calls = {
        "parse": lambda x: mods["syntax"].parse(x),
        "typecheck": lambda x: mods["typecheck"].typecheck(x),
        "denote": lambda x: mods["denote"].denote(x),
        "round_abstract": lambda x: mods["syncmin"].round_abstract(x),
        "minimize_under_protocol": lambda x: mods["syncmin"].minimize_under_protocol(x),
        "netlist_of": lambda x: mods["netlist"].netlist_of(x, job["name"]),
        "emit_verilog": lambda x: mods["netlist"].emit_verilog(x),
    }
    x = job["source"]
    out = {}
    for stage in STAGES:
        row["stage"] = stage
        t = time.perf_counter()
        x = calls[stage](x)
        row["stage_ms"][stage] = (time.perf_counter() - t) * 1e3
        out[stage] = x
    row["automaton_states"] = out["denote"].n_states
    row["clocked_states"] = out["round_abstract"].n_states
    row["minimized_states"] = out["minimize_under_protocol"].n_states
    row["_machines"] = (out["round_abstract"], out["minimize_under_protocol"])
    return x


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import gosyn
    import_s = time.perf_counter() - t
    mods = {m: importlib.import_module(f"gosyn.{m}")
            for m in ("syntax", "typecheck", "denote", "syncmin", "netlist", "design")}
    if job["kind"] == "import":
        print(json.dumps({"import_s": import_s}))
        return 0
    typed_errors = tuple(
        v for v in (getattr(gosyn, n) for n in gosyn.__all__)
        if isinstance(v, type) and issubclass(v, Exception))

    row = {"case": job["name"], "kind": job["kind"], "import_s": import_s, "stage_ms": {},
           "verdict": "ok"}
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    run = _run_design if job["kind"] == "design" else _run_stages
    start = time.perf_counter()
    try:
        if tracer is not None:
            with tracer:
                text = run(job, mods, row)
        else:
            text = run(job, mods, row)
    except Exception as e:  # the verdict of a failing case is the result
        row["time_s"] = time.perf_counter() - start
        row["verdict"] = f"{type(e).__name__}@{row['stage']}"
        row["raised_in"] = _where(e)
        row["untyped"] = not isinstance(e, typed_errors)
    else:
        row["time_s"] = time.perf_counter() - start
        row["digest"] = hashlib.sha256(text.encode()).hexdigest()[:16]
        row["verilog_ops"] = verilog_ops(text)
        row["state_bits"] = verilog_regs(text)
        row["untyped"] = False
        machines = row.pop("_machines", None)
        if machines is not None:
            raw, small = machines
            eq = mods["syncmin"].equivalent_under_protocol(raw, small, EQUIVALENCE_ROUNDS)
            row["equivalent"] = eq.equivalent
    del row["stage"]
    row["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        row["trace"] = tracer.totals()
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
