"""Show that the benchmark's checks pass correct answers and fail wrong ones.

    PYTHONPATH=src python3 perfbench/selftest.py

Each frozen solve report passes check_report, and a
copy with one coefficient changed, a line dropped, or a nonzero exit
code fails it.  For queries, the first answers of the default seed and
of another seed are computed in this process and pass the checks; each
answer corrupted in two ways (a term added to its last line, the sign of
its first value flipped) must fail the linearity checker alone, without
the help of the default seed's digests, so a run that printed it would
report fail_rate above 0.  Exits 1 if any check
lets a corrupted answer through or rejects a correct one.
"""

from __future__ import annotations

import sys

import mix
import run

QUERIES = 300


def _corruptions(text: str) -> list[str]:
    lines = text.split("\n")
    key, value = lines[0].split(" = ", 1)
    flipped = value[1:] if value.startswith("-") else "-" + value
    return [
        text + " + 1",
        "\n".join([f"{key} = {flipped}", *lines[1:]]),
    ]


def check_solves() -> int:
    bad = 0
    for name, wl in run.SOLVES.items():
        with open(wl["reference"], encoding="utf-8") as fh:
            report = fh.read()
        if run.check_report(name, report, 0) is not None:
            print(f"FAIL {name}: the frozen report is rejected")
            bad += 1
        lines = report.splitlines(keepends=True)
        wrong = {
            "changed coefficient": report.replace("1", "2", 1),
            "dropped line": "".join(lines[:-1]),
            "exit code 1": None,
        }
        for what, text in wrong.items():
            code = 1 if text is None else 0
            if run.check_report(name, report if text is None else text, code) is None:
                print(f"FAIL {name}: {what} passes the check")
                bad += 1
    print(f"solves: {'ok' if not bad else 'FAILED'}")
    return bad


def check_queries(seed: int) -> int:
    frozen = mix.load_frozen()
    pdes = mix.build_pdes(frozen)
    check = run.QueryCheck(seed)
    stream = mix.generate(seed, frozen)
    records = [next(stream) for _ in range(QUERIES)]
    answers = [
        {"out": mix.render_lines(mix.execute(r, pdes)), "error": None} for r in records
    ]
    bad = len(check.failures(records, answers))
    if bad:
        print(f"FAIL seed {seed}: {bad} correct answers rejected")
    caught = 0
    for rec, ans in zip(records, answers):
        for text in _corruptions(ans["out"]):
            caught += check.checker.check(rec, text) is not None
    missed = 2 * len(records) - caught
    if missed:
        print(f"FAIL seed {seed}: {missed} corrupted answers pass the checks")
    print(f"queries seed {seed}: {len(records)} answers pass, {caught} corrupted answers fail")
    return bad + missed


def main() -> None:
    bad = check_solves()
    bad += check_queries(mix.DEFAULT_SEED)
    bad += check_queries(mix.DEFAULT_SEED + 1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
