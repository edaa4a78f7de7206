"""End-to-end and per-layer benchmark of jetlaw.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (why each exists is in BENCHMARK.json):

  symmetries-kdv    cold CLI `symmetries` solve of KdV, one fresh
                    interpreter per repetition
  multipliers-kdv5  cold CLI `multipliers` solve of fifth-order KdV
  queries-mix       seeded closed loop of library queries in one
                    long-lived process (see mix.py)

Untraced (--trace 0), the run measures for --seconds and reports the
end-to-end metrics.  An operation is one CLI command on a solve workload
(from ready to the printed report, the time to basis) and one query on
queries-mix (parse the inputs, make the call, format the result):

  setup_s           process start until the inputs are ready: the
                    interpreter, `import jetlaw`, the parsed arguments and
                    session or the PDE objects; median over SETUP_SAMPLES
                    workers that stop there
  latency_p50_ms    median operation latency
  throughput_per_s  operations completed per second of operating time
  peak_rss_mb       peak resident set of the worker doing the operations

The three times are scaled to a fixed machine speed: each worker times a
fixed calibration chunk (calibrate.py) between its operations, and its
times are multiplied by calibrate.REFERENCE_S over the chunk's mean time.
Where the machine's speed drifts (by up to 2x within seconds on the
virtual machine the bounds were tuned on, which spread the raw figures
by 20-46 % between runs), the scaled ones stay steady; the chunk shares
no code with jetlaw, so a change to jetlaw moves the scaled times as it
moves the raw ones.  The raw figures are in the context line.

The latency tail (p99 of the queries; the maximum of the few solve
repetitions) and the operation count are printed and recorded in the
context line but not gated: the maximum of three or four solves spreads
too widely from run to run to carry a bound.

Traced (--trace 1), fresh workers repeat a fixed amount of work, once
untraced and twice with tracer.py's wrappers, and the run reports the
per-layer metrics: calls, self and total seconds of layer functions,
exact work counters, and the tracing overhead.  The two traced runs must
agree on every count, or the result is marked incorrect.

Every answer is checked: solve reports byte for byte against data/, and
queries by linearity against frozen per-item tables (plus byte-exact
digests for the first queries of the default seed).  The last line of
stdout is the result object; the line before it gives the run context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import mix
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SOLVES = {
    "symmetries-kdv": {
        "argv": "-s perfbench/data/kdv.session symmetries --order 2 --jet-degree 3 --t-degree 1 --x-degree 1".split(),
        "reference": os.path.join(HERE, "data", "symmetries-kdv.txt"),
    },
    "multipliers-kdv5": {
        "argv": "-s perfbench/data/kdv5.session multipliers --order 4 --jet-degree 3 --t-degree 1 --x-degree 1".split(),
        "reference": os.path.join(HERE, "data", "multipliers-kdv5.txt"),
    },
}
WORKLOADS = (*SOLVES, "queries-mix")

MIN_SOLVE_REPS = 3
# A run starts no worker after this many seconds, and kills one still
# running then (its operation counts as failed), so that it ends within
# its time limit.
RUN_LIMIT = 150
_deadline = time.monotonic() + RUN_LIMIT
# Set-up-only workers started per run; setup_s is the median of theirs.
SETUP_SAMPLES = 12
# Queries per worker in a traced run of queries-mix.
TRACE_QUERIES = 1000

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: "<function>.<calls|self_s|total_s>", a work counter,
# a layer's summed self time, or a property of the trace itself.
_FUNCTION_METRICS = """
ratlin.QMatrix.calls ratlin.QMatrix.self_s ratlin.nullspace.self_s
kernel.rref.calls kernel.rref.self_s conslaw.solve_determining_system.self_s
soln.restrict.calls soln.restrict.self_s
soln.extract_operator.calls soln.extract_operator.self_s
diffops.euler.total_s diffops.frechet.self_s diffops.frechet_adjoint.self_s
diffops.boundary_current.self_s diffops.invert_divergence.self_s
kernel.mul.calls kernel.mul.self_s kernel.total_x.calls kernel.total_x.self_s
kernel.total_t.self_s kernel.add.self_s kernel.diff_jet.self_s kernel.pow_.self_s
ratlin.charpoly.self_s ratlin.rational_roots.self_s ratlin.rank.total_s
ratlin.solve.total_s symmetry.action_matrix.self_s
symmetry.act_on_multiplier.self_s symmetry.classify.self_s symmetry.psi_current.self_s
conslaw.check_multiplier.total_s conslaw.current_from_multiplier.self_s
conslaw.multiplier_from_current.self_s expr.DiffExpr.__mul__.self_s
grammar.parse_expr.calls grammar.parse_expr.self_s grammar.format_expr.self_s
cli.build_parser.total_s cli.load_session.total_s
""".split()
COUNTERS = [
    "ratlin.QMatrix.cells",
    "conslaw.system.rows",
    "conslaw.system.cols",
    "conslaw.system.nnz",
    "conslaw.system.nullity",
    "conslaw.ansatz.size",
]
LAYERS = [tracer.metric_prefix(layer) for layer in tracer.TARGETS]
PER_LAYER = (
    {m: ("count" if m.endswith(".calls") else "s") for m in _FUNCTION_METRICS}
    | {m: "count" for m in COUNTERS}
    | {f"layer.{layer}.self_s": "s" for layer in LAYERS}
    | {"trace.wall_s": "s", "trace.overhead_ratio": "ratio"}
)
_ALIASES = {"ratlin.QMatrix": "ratlin.QMatrix.__init__"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- workers -----------------------------------------------------------------


def _time_left() -> float:
    return _deadline - time.monotonic()


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _split(out: str):
    """A worker's stdout is its output followed by one JSON meta line."""
    body, _, last = out.rstrip("\n").rpartition("\n")
    try:
        return body, json.loads(last)
    except ValueError:
        return out, None


def _scale(chunks: list[float]) -> float:
    """The factor that takes a worker's times to the reference speed."""
    return calibrate.REFERENCE_S / statistics.mean(chunks)


def run_solve(root: str, name: str, kind: str = "solve", trace: bool = False) -> dict:
    """One fresh worker running a solve workload's CLI command.  "ok" says
    whether the worker ran; "error" what is wrong with its report."""
    wl = SOLVES[name]
    job = {"kind": kind, "argv": wl["argv"], "trace": trace}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(job)],
            cwd=root, env=_worker_env(root), capture_output=True, text=True,
            timeout=max(_time_left(), 1),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"worker killed at the run's {RUN_LIMIT} s limit"}
    report, meta = _split(proc.stdout)
    if proc.returncode != 0 or meta is None:
        return {"ok": False, "why": f"worker exit {proc.returncode}: {proc.stderr[-400:]}"}
    rec = {
        "ok": True,
        "setup": meta["ready"] - spawned,
        "scale": _scale(meta["chunks"]),
        "backend": meta["backend"],
        "rss_mb": meta["rss_kb"] / 1024,
        "trace": meta.get("trace"),
    }
    if kind == "solve":
        rec["wall"] = meta["done"] - meta["ready"] - meta["spent"]
        rec["error"] = check_report(name, report, meta.get("code"))
    return rec


def run_queries(root: str, records, kind: str = "queries", seconds=None, trace=False) -> dict:
    """One worker answering the query stream `records` until `seconds` of
    operating time have passed or the stream ends.  A worker that crashes
    or is killed returns "ok" false, with the answers it gave and the
    number of queries it was sent."""
    job = {"kind": kind, "seconds": seconds, "trace": trace}
    sent: list[dict] = []
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(job)],
        cwd=root, env=_worker_env(root), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )

    def feed():
        try:
            for rec in records:
                proc.stdin.write(mix.program_input(rec) + "\n")
                sent.append(rec)
            proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass  # the worker stopped reading at its deadline

    err: list[str] = []
    threads = [
        threading.Thread(target=feed),
        threading.Thread(target=lambda: err.append(proc.stderr.read())),
    ]
    for th in threads:
        th.start()
    watchdog = threading.Timer(max(_time_left(), 1), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        for th in threads:
            th.join()
    body, meta = _split(out)
    lines = []
    for line in body.split("\n"):
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass  # blank, or cut short by a crash
    answers = [d for d in lines if "out" in d]
    chunks = [d["chunk"] for d in lines if "chunk" in d]
    rec = {
        "ok": proc.returncode == 0 and meta is not None,
        "answers": answers,
        "records": sent[: len(answers)],
        "sent": len(sent),
        "scale": _scale(chunks) if chunks else 1.0,
    }
    if not rec["ok"]:
        rec["why"] = f"worker exit {proc.returncode}: {''.join(err)[-400:]}"
        return rec
    if kind == "setup-queries":
        rec["scale"] = _scale(meta["chunks"])
    rec.update(
        setup=meta["ready"] - spawned,
        backend=meta["backend"],
        rss_mb=meta["rss_kb"] / 1024,
        trace=meta.get("trace"),
        wall=meta["done"] - meta["ready"] - meta["spent"],
    )
    return rec


# -- checks ------------------------------------------------------------------


def check_report(name: str, report: str, code) -> str | None:
    """Why a solve's report or exit code is wrong, or None."""
    reference = SOLVES[name]["reference"]
    with open(reference, encoding="utf-8") as fh:
        expected = fh.read()
    if code != 0:
        return f"exit code {code}"
    if report != expected:
        return f"report differs from {os.path.basename(reference)}"
    return None


class QueryCheck:
    """Checks every answer of a query run; the default seed's first
    answers must also match their frozen digests byte for byte."""

    def __init__(self, seed: int):
        self.frozen = mix.load_frozen()
        self.checker = mix.Checker(self.frozen)
        self.digests = mix.load_digests() if seed == mix.DEFAULT_SEED else []

    def failures(self, records: list[dict], answers: list[dict]) -> list[str]:
        out = []
        for i, (rec, ans) in enumerate(zip(records, answers)):
            reason = ans["error"]
            if reason is None:
                reason = self.checker.check(rec, ans["out"])
            if reason is None and i < len(self.digests) and mix.digest(ans["out"]) != self.digests[i]:
                reason = "differs from the frozen answer"
            if reason is not None:
                out.append(f"query {i} ({rec['pde']} {rec['cmd']}): {reason}")
        return out


# -- metrics -----------------------------------------------------------------


class Outcome:
    """What a run measured: metrics, operations attempted, the operations
    that failed, run-level problems, and context for the report."""

    def __init__(self):
        self.metrics: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.backends: set[str] = set()
        self.context: dict = {}


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99 and p90 with at least ten samples beyond it, or
    the maximum when there is none.  p99.9 is left out on purpose: a
    faster program would reach it and the metric would change meaning."""
    s = sorted(values)
    n = len(s)
    for p in (99, 90):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return f"p{p}", s[rank - 1]
    return "max", s[-1]


def _setup_samples(root: str, workload: str, out: Outcome) -> list[tuple[float, float]]:
    """(raw seconds, scale) of SETUP_SAMPLES set-up-only workers."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        if _time_left() <= 0:
            break
        if workload in SOLVES:
            rec = run_solve(root, workload, kind="setup-solve")
        else:
            rec = run_queries(root, iter(()), kind="setup-queries")
        if not rec["ok"]:
            out.problems.append(f"set-up worker failed: {rec['why']}")
            continue
        setups.append((rec["setup"], rec["scale"]))
        out.backends.add(rec["backend"])
    if not setups:
        raise BenchError(out.problems[0])
    return setups


def measure(root: str, workload: str, seed: int, seconds: float) -> Outcome:
    """The untraced run: operate for `seconds`, report end-to-end metrics.
    Times are scaled to the reference machine speed (calibrate.py); the
    context keeps the raw figures."""
    out = Outcome()
    setups = _setup_samples(root, workload, out)
    if workload in SOLVES:
        reps = []
        start = time.monotonic()
        while True:
            rec = run_solve(root, workload)
            reps.append(rec)
            why = rec["error"] if rec["ok"] else rec["why"]
            if why:
                out.failures.append(why)
            elapsed = time.monotonic() - start
            # stop when one more repetition would overrun the measuring time
            if len(reps) >= MIN_SOLVE_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
                break
            if _time_left() <= 0:
                break
        done = [r for r in reps if r["ok"]]
        if not done:
            raise BenchError(f"no repetition completed: {out.failures[0]}")
        raw = [r["wall"] for r in done]
        lat = [r["wall"] * r["scale"] for r in done]
        scales = [r["scale"] for r in done]
        out.backends |= {r["backend"] for r in done}
        rss = statistics.median(r["rss_mb"] for r in done)
        raw_busy, busy = sum(raw), sum(lat)
        out.attempted = len(reps)
    else:
        check = QueryCheck(seed)
        run = run_queries(root, mix.generate(seed, check.frozen), seconds=seconds)
        out.failures += check.failures(run["records"], run["answers"])
        out.attempted = max(run["sent"], 1) if not run["ok"] else len(run["answers"])
        if not run["ok"]:
            # the queries sent and not answered failed with the worker
            unanswered = max(run["sent"] - len(run["answers"]), 1)
            out.failures.append(f"query {len(run['answers'])}: {run['why']}")
            out.failures += ["no answer"] * (unanswered - 1)
            if not run["answers"]:
                raise BenchError(f"no query answered: {run['why']}")
        raw = [a["lat"] for a in run["answers"]]
        scale = run["scale"]
        lat = [x * scale for x in raw]
        scales = [scale]
        if run["ok"]:
            out.backends.add(run["backend"])
            rss, raw_busy = run["rss_mb"], run["wall"]
        else:
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            raw_busy = sum(raw)
        busy = raw_busy * scale
        out.context.update(_mix_shares(run["records"]))
    label, tail_value = tail(lat)
    raw_setup = statistics.median(s for s, _ in setups)
    out.context.update(
        operations=len(lat),
        latency_tail_ms=tail_value * 1000,
        tail=f"{label} of {len(lat)}",
        setup_samples=len(setups),
        raw_setup_s=raw_setup,
        raw_latency_p50_ms=statistics.median(raw) * 1000,
        raw_throughput_per_s=len(raw) / raw_busy,
        speed_scale=statistics.median(scales),
    )
    out.metrics = {
        "setup_s": statistics.median(s * k for s, k in setups),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "throughput_per_s": len(lat) / busy,
        "peak_rss_mb": rss,
    }
    return out


def _mix_shares(records: list[dict]) -> dict:
    """A query reuses a PDE when an earlier query used the same PDE object;
    a duplicate repeats an earlier query exactly."""
    keys = [mix.program_input(r) for r in records]
    n = max(len(records), 1)
    return {
        "pde_reuse_share": (len(records) - len({r["pde"] for r in records})) / n,
        "duplicate_share": (len(keys) - len(set(keys))) / n,
    }


def trace_run(root: str, workload: str, seed: int) -> Outcome:
    """The traced run: the same fixed work once untraced and twice traced,
    each in a fresh worker; report per-layer metrics.  A worker that fails
    counts as failed operations; the run needs the untraced worker and at
    least one traced one to report anything."""
    out = Outcome()
    if workload in SOLVES:
        reps = [run_solve(root, workload, trace=t) for t in (False, True, True)]
        for r in reps:
            why = r["error"] if r["ok"] else r["why"]
            if why:
                out.failures.append(why)
        out.attempted = len(reps)
    else:
        check = QueryCheck(seed)
        stream = mix.generate(seed, check.frozen)
        records = [next(stream) for _ in range(TRACE_QUERIES)]
        reps = [run_queries(root, iter(records), trace=t) for t in (False, True, True)]
        for r in reps:
            missing = len(records) - len(r["answers"])
            if not r["ok"]:
                out.failures.append(f"query {len(r['answers'])}: {r['why']}")
                missing -= 1
            out.failures += ["no answer"] * max(missing, 0)
            out.failures += check.failures(r["records"], r["answers"])
            out.attempted += len(records)
    plain, traced = reps[0], [r for r in reps[1:] if r["ok"]]
    if not plain["ok"] or not traced:
        raise BenchError("no untraced and traced pair of workers completed: "
                         + next(r["why"] for r in reps if not r["ok"]))
    out.backends |= {r["backend"] for r in [plain, *traced]}
    if len(traced) == 2:
        mismatch = _count_mismatch(traced[0]["trace"], traced[1]["trace"])
    else:
        mismatch = "a traced worker failed"
    if mismatch:
        out.problems.append(f"the traced runs do not repeat the exact counts: {mismatch}")
    out.metrics = {
        name: statistics.mean(_layer_value(name, r) for r in traced)
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    out.metrics["trace.overhead_ratio"] = (
        statistics.mean(r["wall"] * r["scale"] for r in traced) / (plain["wall"] * plain["scale"])
    )
    out.context.update(operations=out.attempted, counts_repeat=not mismatch)
    return out


def _layer_value(name: str, rep: dict) -> float:
    trace = rep["trace"]
    if name == "trace.wall_s":
        return rep["wall"]
    if name in COUNTERS:
        return trace["counters"].get(name, 0)
    if name.startswith("layer."):
        return trace["layers"][name.split(".")[1]]
    fn, _, field = name.rpartition(".")
    return trace["functions"][_ALIASES.get(fn, fn)][field]


def _count_mismatch(a: dict, b: dict) -> str:
    """The exact counts (calls of every traced function and the work
    counters) on which two traced runs differ."""
    counts = lambda t: {**{f: v["calls"] for f, v in t["functions"].items()}, **t["counters"]}
    ca, cb = counts(a), counts(b)
    diff = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
    return ", ".join(f"{k} {ca.get(k)} != {cb.get(k)}" for k in diff[:5])


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=mix.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jetlaw", "__init__.py")):
        print("error: run from the root of a jetlaw checkout (src/jetlaw is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    try:
        if args.trace:
            out, units = trace_run(root, args.workload, args.seed), PER_LAYER
        else:
            out, units = measure(root, args.workload, args.seed, args.seconds), END_TO_END
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if len(out.backends) != 1:
        out.problems.append(f"workers ran different kernel backends: {sorted(out.backends)}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": ",".join(sorted(out.backends)),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        **out.context,
    }
    repeats: dict[str, int] = {}
    for line in out.failures:
        repeats[line] = repeats.get(line, 0) + 1
    for line, n in list(repeats.items())[:20]:
        print(f"FAILED {line}" + (f" ({n} times)" if n > 1 else ""), file=sys.stderr)
    for line in out.problems:
        print(f"FAILED {line}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {out.metrics[name]:.6g} {unit}")
    if "tail" in context:
        print(f"latency_tail_ms = {context['latency_tail_ms']:.6g} ms ({context['tail']} operations)")
    print(f"fail_rate = {len(out.failures)}/{out.attempted} = {len(out.failures) / out.attempted:.6g}")
    print(json.dumps({"context": context}))
    result = {
        "correct": not out.failures and not out.problems,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {name: {"value": out.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
