"""gosyn benchmark: ``compile``, ``cliffs`` and ``sim`` workloads.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Earlier stdout lines hold one JSON row per
case and one ``run`` line; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import simpart
import tracer
from case import peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMOS = ROOT / "demos"

CASE_LIMIT_S = 60.0      # one case's time to verdict before it is killed as a timeout
CASE_BUDGET_S = 150.0    # all cases of a run; keeps a run under the 180 s a run may take
SIM_PROBE_S = 4.0        # simulation measured on the compile and cliffs workloads
SETUP_REPEATS = 25       # set-ups timed on the sim workload; the median is reported
IMPORT_SAMPLES = 5       # fresh processes that time `import gosyn` on the sim workload
TRACED_SIM_ROUNDS = 3    # fixed work of a traced sim run, so its counts repeat
HASH_SEED = "0"

UNITS = {
    "setup_s": "s", "compile_total_s": "s", "compile_geomean_ms": "ms", "compile_max_s": "s",
    "ok_share": "ratio", "verilog_ops": "count", "state_bits": "count", "peak_rss_mb": "MB",
    "sim_cycles_per_s": "cycles/s", "gate_sim_cycles_per_s": "cycles/s",
    "cycles_per_session": "cycles", "monitor_moves_per_s": "moves/s",
}


def _chain(n: int, op: str) -> str:
    params = " ".join(f"fn c{i} : com ->" for i in range(n))
    return f"{params} " + f" {op} ".join(f"c{i}" for i in range(n))


def corpus(workload: str) -> list[dict]:
    """The cases of a compile-side workload, in run order."""
    if workload == "compile":
        cases = [(p.stem, p.read_text()) for p in sorted(DEMOS.glob("*.sci"))]
        cases += [(f"seq{n}", _chain(n, ";")) for n in (2, 3, 4)]
        cases += [(f"par{n}", _chain(n, "||")) for n in (2, 3)]
        cases += [
            ("if", "fn b : exp -> fn c : com -> fn d : com -> if b then c else d"),
            ("newloop", "fn c : com -> new x in (x := 1 ; while !x do (c ; x := 0))"),
            ("pair_seq", "fn p : com * com -> (fst p ; snd p)"),
            ("and3", "fn v : exp -> (v and v) and v"),
        ]
        return [{"kind": "design", "name": n, "source": s} for n, s in cases]
    cases = [
        ("seq5", _chain(5, ";")),
        ("par4", _chain(4, "||")),
        ("and4", "fn v : exp -> ((v and v) and v) and v"),
        ("cell_fst", "fn p : cell * exp -> fst p"),
    ]
    return [{"kind": "stages", "name": n, "source": s} for n, s in cases]


def run_case(job: dict, trace: bool, limit: float, hash_seed: str = HASH_SEED) -> dict:
    """One case in its own process; a case still running after ``limit`` is a timeout."""
    payload = json.dumps({**job, "trace": trace})
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "case.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONHASHSEED": hash_seed})
    try:
        out, err = proc.communicate(payload, timeout=limit)
    except subprocess.TimeoutExpired:
        row = {"case": job["name"], "kind": job["kind"], "verdict": "timeout",
               "time_s": time.perf_counter() - t, "untyped": False}
        try:  # a killed case still counts towards peak_rss_mb
            row["rss_mb"] = peak_rss_mb(proc.pid)
        except OSError:
            pass
        proc.kill()
        proc.communicate()
        return row
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"case": job["name"], "kind": job["kind"], "verdict": "crash",
                "time_s": time.perf_counter() - t, "untyped": False,
                "stderr": err.strip().splitlines()[-1:]}
    return json.loads(lines[-1])


def run_pass(jobs: list[dict], trace: bool, deadline: float, between=None,
             hash_seed: str = HASH_SEED) -> list[dict]:
    rows = []
    for job in jobs:
        limit = max(1.0, min(CASE_LIMIT_S, deadline - time.perf_counter()))
        rows.append(dict(run_case(job, trace, limit, hash_seed), hash_seed=hash_seed))
        if between is not None:
            between()
    return rows


def failed_check(row: dict, first: dict):
    """The output check a compiled case run failed, if any; ``first`` is the
    case's first run that compiled."""
    if row.get("equivalent") is False:
        return "not equivalent after minimization"
    if row["digest"] != first["digest"]:
        return "Verilog differs between compiles"
    return None


def compile_side(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, rows, attempted, failed, correct, notes)."""
    start = time.perf_counter()
    jobs = corpus(workload)
    corpus_s = time.perf_counter() - start
    deadline = start + CASE_BUDGET_S
    checks = simpart.Checks()
    probe = None
    if not trace:
        # simulation rounds run between the cases, so that they sample the
        # host's speed over the whole run and not over one stretch of it
        p = simpart.prepare(DEMOS, seed)
        simpart.fixed_checks(p, DEMOS, checks)
        probe = simpart.Rounds(p, checks)
    passes: list[list[dict]] = []
    # compile takes the median of three passes per case
    min_passes = 2 if trace else 3 if workload == "compile" else 1
    gap_s = SIM_PROBE_S / (len(jobs) * min_passes)
    while len(passes) < min_passes or (not trace and time.perf_counter() - start < seconds):
        traced_pass = trace and len(passes) == 1
        passes.append(run_pass(jobs, traced_pass, deadline, probe and (lambda: probe.run(gap_s))))
        if time.perf_counter() > deadline:
            break

    # One more compile of each case, untimed, under another hash seed: the
    # Verilog must not depend on the order the compiler's searches visit moves.
    rehash = []
    if workload == "compile":
        rehash = run_pass(jobs, False, deadline, hash_seed=str(1 + seed % (2**32 - 1)))

    for r in (r for rows_k in passes for r in rows_k if "trace" in r):
        r["automaton_states"] = r["trace"]["counts"]["denote.automaton_states"]
        r["clocked_states"] = r["trace"]["counts"]["syncmin.clocked_states"]
    timed = [dict(r, pass_=k + 1) for k, rows_k in enumerate(passes) for r in rows_k]
    rows = timed + rehash
    first = {}
    for r in rows:
        if r["verdict"] == "ok":
            first.setdefault(r["case"], r)
    # a case run fails on an exception, a timeout or a failed output check
    check_failures = [f"{r['case']} (pass {r.get('pass_', 'rehash')}): {why}" for r in rows
                      if r["verdict"] == "ok" and (why := failed_check(r, first[r["case"]]))]
    failed = sum(r["verdict"] != "ok" for r in rows) + len(check_failures)
    notes = {"passes": len(passes), "fail_share": failed / len(rows),
             "check_failures": check_failures}

    if trace:
        plain, traced = passes[0], passes[1]
        totals = tracer.merge([r["trace"] for r in traced if "trace" in r])
        metrics = tracer.layer_metrics(totals)
        metrics["cli.untyped_errors"] = (sum(r["untyped"] for r in traced), "count")
        metrics["trace.overhead_share"] = (
            sum(r["time_s"] for r in traced) / sum(r["time_s"] for r in plain) - 1, "ratio")
        return metrics, rows, len(rows), failed, not check_failures, notes

    # A case's passes are a few long samples, each spanning several of the host's
    # fast and slow stretches, so their median is steadier than their best.
    per_case = {j["name"]: statistics.median(r["time_s"] for r in timed if r["case"] == j["name"])
                for j in jobs}
    compiled = [r for r in passes[0] if r["verdict"] == "ok"]
    imports = [r["import_s"] for r in timed if "import_s" in r]
    if probe.busy_s < SIM_PROBE_S:
        probe.run(SIM_PROBE_S - probe.busy_s)
    sim = probe.summary()
    notes["sim_check_failures"] = checks.failures
    metrics = {
        "setup_s": corpus_s + (statistics.median(imports) if imports else 0.0),
        "compile_total_s": sum(per_case.values()),
        "compile_geomean_ms": _geomean([t * 1e3 for t in per_case.values()]),
        "compile_max_s": max(per_case.values()),
        "ok_share": (len(rows) - failed) / len(rows),
        "verilog_ops": sum(r["verilog_ops"] for r in compiled),
        "state_bits": sum(r["state_bits"] for r in compiled),
        "peak_rss_mb": max(r["rss_mb"] for r in rows if "rss_mb" in r),
        **{k: sim[k] for k in ("sim_cycles_per_s", "gate_sim_cycles_per_s",
                               "cycles_per_session", "monitor_moves_per_s")},
    }
    correct = not check_failures and not checks.failures
    return ({k: (v, UNITS[k]) for k, v in metrics.items()}, rows, len(rows), failed,
            correct, notes)


def sim_side(seed: int, seconds: float, trace: bool):
    """Returns (metrics, rows, attempted, failed, correct, notes)."""
    import gosyn  # noqa: F401
    imports = [json.loads(subprocess.run(
        [sys.executable, str(HERE / "case.py")], cwd=ROOT, input='{"kind": "import"}',
        capture_output=True, text=True, check=True, timeout=60).stdout)["import_s"]
        for _ in range(IMPORT_SAMPLES)]
    setups = []

    def set_up() -> dict:
        t = time.perf_counter()
        p = simpart.prepare(DEMOS, seed)
        setups.append((time.perf_counter() - t, p["compile_s"]))
        return p

    p = set_up()
    checks = simpart.Checks()
    simpart.fixed_checks(p, DEMOS, checks)
    notes: dict = {}

    if trace:
        plain = simpart.measure(p, checks, TRACED_SIM_ROUNDS)
        tr = tracer.Tracer()
        with tr:
            traced = simpart.measure(p, checks, TRACED_SIM_ROUNDS)
        metrics = tracer.layer_metrics(tr.totals())
        metrics["cli.untyped_errors"] = (0, "count")
        metrics["trace.overhead_share"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    else:
        # the set-ups alternate with the rounds, so that the best set-up compile
        # samples the host over the whole run and not over one stretch of it
        rounds = simpart.Rounds(p, checks)
        for _ in range(SETUP_REPEATS - 1):
            rounds.run(seconds / SETUP_REPEATS)
            set_up()
        rounds.run(seconds / SETUP_REPEATS)
        sim = rounds.summary()
        # many short samples: the best of them, as for the rates (simpart.Rounds)
        compile_s = {k: min(c[k] for _, c in setups) for k in setups[0][1]}
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(s for s, _ in setups),
            "compile_total_s": sum(compile_s.values()),
            "compile_geomean_ms": _geomean([v * 1e3 for v in compile_s.values()]),
            "compile_max_s": max(compile_s.values()),
            "ok_share": (checks.attempted - len(checks.failures)) / checks.attempted,
            "verilog_ops": p["verilog_ops"],
            "state_bits": p["state_bits"],
            "peak_rss_mb": peak_rss_mb(),
            **{k: sim[k] for k in ("sim_cycles_per_s", "gate_sim_cycles_per_s",
                                   "cycles_per_session", "monitor_moves_per_s")},
        }
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
        notes.update(rounds=sim["rounds"],
                     machine_sim_cycles_per_s=sim["machine_sim_cycles_per_s"],
                     compile_s=compile_s)
    notes["check_failures"] = checks.failures
    failed = len(checks.failures)
    return metrics, [], checks.attempted, failed, not checks.failures, notes


def _geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("compile", "cliffs", "sim"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Set and dict order of strings follows the interpreter's hash seed, and the
    # compiler's searches visit moves in that order: with a random seed the same
    # case does up to twice the work from one process to the next.  A fixed seed
    # makes the work, and every count, repeat.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (ROOT / "src" / "gosyn" / "__init__.py").is_file() or not DEMOS.is_dir():
        print(f"no gosyn sources under {ROOT}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "sim":
        metrics, rows, attempted, failed, correct, notes = sim_side(
            args.seed, args.seconds, bool(args.trace))
    else:
        metrics, rows, attempted, failed, correct, notes = compile_side(
            args.workload, args.seed, args.seconds, bool(args.trace))

    for r in rows:
        r.pop("trace", None)
        print(json.dumps({"row": r}))
    print(json.dumps({"run": {"workload": args.workload, "seed": args.seed,
                              "trace": args.trace, **notes}}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
