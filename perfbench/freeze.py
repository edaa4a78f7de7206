"""Regenerate the frozen inputs and references in perfbench/data.

    PYTHONPATH=src python3 perfbench/freeze.py

Writes data/frozen.json (the four PDEs, their multiplier, current and
symmetry bases, and the per-item answer tables the checker sums by
linearity), the byte-exact reports of the two solve workloads, and the
answer digests of the first queries of the default seed.  Run
validate.py afterwards: it proves the frozen items with the sympy
oracle.  Rerun this only when a report format changes on purpose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import mix
import run

# name: (lead, rhs, multiplier ansatz, symmetry ansatz)
PDES = {
    "kdv": ((1, 0), "-u*u_x - u_xxx", (2, 2, 1, 1), (1, 1, 1, 1)),
    "kdv5": ((1, 0), "-u_xxxxx - 10*u*u_xxx - 25*u_x*u_xx - 20*u^2*u_x", (4, 3, 1, 1), (1, 1, 1, 1)),
    "burgers": ((1, 0), "u_xx - u*u_x", (1, 2, 1, 2), (1, 2, 2, 2)),
    "wave": ((2, 0), "u_xx - u^3", (1, 2, 1, 1), (1, 1, 1, 1)),
}
N_DIGESTS = 20000


def freeze_items() -> dict:
    from jetlaw import format_expr, parse_expr
    from jetlaw.conslaw import Ansatz, current_from_multiplier, multiplier_from_current, solve_multipliers
    from jetlaw.soln import make_pde, restrict
    from jetlaw.symmetry import act_on_multiplier, action_matrix, psi_current, solve_symmetries

    out = {}
    for name, (lead, rhs, am, asym) in PDES.items():
        pde = make_pde(lead, parse_expr(rhs))
        mults = solve_multipliers(pde, Ansatz(*am))
        syms = solve_symmetries(pde, Ansatz(*asym))
        currents = [current_from_multiplier(q, pde) for q in mults]
        acts = [[act_on_multiplier(p, q, pde) for q in mults] for p in syms]
        psis = [[psi_current(p, q, pde) for q in mults] for p in syms]
        f = format_expr
        out[name] = {
            "lead": list(lead),
            "rhs": rhs,
            "multiplier_ansatz": list(am),
            "symmetry_ansatz": list(asym),
            "multipliers": [f(q) for q in mults],
            "symmetries": [f(p) for p in syms],
            "currents": [[f(c.T), f(c.X)] for c in currents],
            "mult_of_current": [f(multiplier_from_current(c, pde)) for c in currents],
            "restricted": [f(restrict(q, pde)) for q in mults],
            "act": [[f(a) for a in row] for row in acts],
            "act_restricted": [[f(restrict(a, pde)) for a in row] for row in acts],
            "psi": [[[f(c.T), f(c.X)] for c in row] for row in psis],
            "action_matrices": [
                [[str(v) for v in r] for r in action_matrix(p, mults, pde).matrix.rows]
                for p in syms
            ],
        }
    return {"pdes": out}


def main() -> None:
    frozen = freeze_items()
    with open(mix.FROZEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")

    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for wl in run.SOLVES.values():
        proc = subprocess.run(
            [sys.executable, "-m", "jetlaw.cli", *wl["argv"]],
            env=env, capture_output=True, text=True, check=True,
        )
        with open(wl["reference"], "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)

    pdes = mix.build_pdes(frozen)
    checker = mix.Checker(frozen)
    digests = []
    for _, rec in zip(range(N_DIGESTS), mix.generate(mix.DEFAULT_SEED, frozen)):
        text = mix.render_lines(mix.execute(json.loads(mix.program_input(rec)), pdes))
        reason = checker.check(rec, text)
        if reason:
            sys.exit(f"freeze: query {len(digests)} fails its check: {reason}")
        digests.append(mix.digest(text))
    with open(mix.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join(digests) + "\n")


if __name__ == "__main__":
    main()
