"""One process doing the work of one repetition; started by run.py.

    python3 perfbench/worker.py '<job json>'

The job names a kind: "solve" runs one CLI command through
jetlaw.cli.main, "queries" answers the query lines arriving on stdin
until the deadline or the end of input, and "setup-solve" /
"setup-queries" stop as soon as the inputs are ready (the parsed
arguments and session, or the PDE objects).  With "trace" set the worker
installs the layer wrappers of tracer.py right after the imports.

Every worker also times calibration chunks (calibrate.py) so that the
parent can scale its times to a fixed machine speed: a solve samples
them from a timer while cli.main runs (after it, when traced), a query
worker between queries, a set-up worker once its inputs are ready.
Time spent in chunks is reported so that it can be taken out of the
measured span.

Everything the worker produces goes to stdout: a solve writes its
report, a query worker one JSON line per answer or chunk, and the last
line is always a JSON object with the timestamps (time.monotonic, shared
with the parent) and the peak RSS.
"""

import json
import resource
import sys
import time

import calibrate

SETUP_CHUNKS = 4
TRACED_CHUNKS = 20
# Seconds of queries between two calibration chunks.
QUERY_CHUNK_INTERVAL = 0.2


def main() -> None:
    job = json.loads(sys.argv[1])
    kind = job["kind"]
    import jetlaw
    import jetlaw.cli as cli

    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    meta = {"backend": jetlaw.BACKEND, "spent": 0.0}

    if kind == "setup-solve":
        args = cli.build_parser().parse_args(cli._join_dash_values(job["argv"]))
        cli.load_session(args.session)
        meta["ready"] = time.monotonic()
        meta["chunks"] = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    elif kind == "solve":
        meta["ready"] = time.monotonic()
        if tracer is None:
            with calibrate.Sampler() as sampler:
                meta["code"] = cli.main(job["argv"])
            meta["chunks"], meta["spent"] = sampler.samples, sampler.spent
        else:
            meta["code"] = cli.main(job["argv"])
        sys.stdout.flush()
    else:
        import mix

        pdes = mix.build_pdes(mix.load_frozen())
        meta["ready"] = time.monotonic()
        if kind == "queries":
            meta["spent"] = _answer_queries(pdes, job["seconds"])
        else:
            meta["chunks"] = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    meta["done"] = time.monotonic()
    if tracer is not None:
        meta["trace"] = tracer.report()
        if kind == "solve":
            meta["chunks"] = [calibrate.chunk() for _ in range(TRACED_CHUNKS)]
    meta["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + json.dumps(meta) + "\n")
    sys.stdout.flush()


def _answer_queries(pdes, seconds) -> float:
    """Answer queries; return the seconds spent in calibration chunks."""
    import mix

    write = sys.stdout.write
    perf = time.perf_counter
    end = perf() + seconds if seconds is not None else None
    next_chunk = perf()
    spent = 0.0
    for line in sys.stdin:
        if end is not None and perf() >= end:
            break
        if perf() >= next_chunk:
            dt = calibrate.chunk()
            spent += dt
            write(json.dumps({"chunk": dt}) + "\n")
            next_chunk = perf() + QUERY_CHUNK_INTERVAL
        query = json.loads(line)
        t0 = perf()
        try:
            text = mix.render_lines(mix.execute(query, pdes))
            error = None
        except Exception as ex:  # counted as a failed query by the parent
            text, error = None, f"{type(ex).__name__}: {ex}"
        lat = perf() - t0
        write(json.dumps({"out": text, "error": error, "lat": lat}) + "\n")
    return spent


if __name__ == "__main__":
    main()
