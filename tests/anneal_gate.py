"""The paper's check as a stated bound: noisy anneals of a coupling program
against the analytic ground set of the tile Hamiltonian it programs.

gate(program, trials, seed) runs run_trials(..., canonical=True, n_bits=6)
and returns, as fractions of all trials, the readouts that lie in the
program's tile ground set, those of odd logical parity and the unsettled
trials, each with an exact Clopper-Pearson band. A change to the anneal's
numerics runs it at 10**5 trials on each of the five gate programs (the
even and alternating programs and three random-phase ones), from the repo
root:

    PYTHONPATH=src python tests/anneal_gate.py --trials 100000 --seed 1

which prints, as one JSON object, each program's phases, its canonical
six-bit histogram with an "unsettled" bin, and its hit, odd and unsettled
bands.

The paper's check holds for the even and alternating programs, not for
every program. random1 (c_cnst = 2 against fields of about 2) ends in the
odd-parity state 000100 in more than 99.99 % of 10**5 trials, while its
tile's ground set is {000011}. The gate passes on it all the same: it
compares the parent's histograms with the change's, not either with the
ground set.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np

from jpotile.anneal import (
    CouplingProgram,
    alternating_field_program,
    effective_tile_couplings,
    even_parity_program,
    run_trials,
)
from jpotile.tile import ground_set

ALPHA = 1e-3  # each band holds the true rate with probability at least 1 - ALPHA


def clopper_pearson(k: int, n: int, alpha: float = ALPHA) -> tuple[float, float]:
    """The exact two-sided 1 - alpha band on a binomial rate seen k times in
    n: the rates at which Binomial(n, p) puts alpha / 2 on k and beyond, by
    bisection on tail sums of exp(log C(n, i) + i log p + (n - i) log(1 - p))
    with the log binomial coefficients from math.lgamma."""
    i = np.arange(n + 1)
    log_choose = math.lgamma(n + 1) - np.array(
        [math.lgamma(v + 1) + math.lgamma(n - v + 1) for v in range(n + 1)]
    )

    def tail(p: float, rows: slice) -> float:
        return float(np.exp(log_choose[rows] + i[rows] * math.log(p)
                            + (n - i[rows]) * math.log1p(-p)).sum())

    def bisect(too_low) -> tuple[float, float]:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if too_low(mid) else (lo, mid)
        return lo, hi

    # P[X >= k] grows with p and P[X <= k] falls; each end is taken on the
    # side that widens the band
    lower = 0.0 if k == 0 else bisect(lambda p: tail(p, slice(k, None)) < alpha / 2)[0]
    upper = 1.0 if k == n else bisect(lambda p: tail(p, slice(0, k + 1)) > alpha / 2)[1]
    return lower, upper


def gate(program, trials: int, seed: int) -> dict[str, tuple[float, float, float]]:
    """{"hit", "odd", "unsettled"} -> (fraction, band low, band high) over
    trials canonical six-bit readouts of program."""
    return bands(program, run_trials(program, trials, seed=seed, canonical=True, n_bits=6))


def bands(program, hist) -> dict[str, tuple[float, float, float]]:
    """gate's bands over hist, a canonical six-bit histogram of program."""
    _, ground = ground_set(effective_tile_couplings(program))
    labels = {g.label for g in ground}
    counts = {
        "hit": sum(c for label, c in hist.counts.items() if label in labels),
        "odd": sum(c for label, c in hist.counts.items() if label[:4].count("1") % 2),
        "unsettled": hist.unsettled,
    }
    n = hist.trials
    return {name: (k / n, *clopper_pearson(k, n)) for name, k in counts.items()}


def programs() -> dict[str, CouplingProgram]:
    """The five gate programs: even, alternating, and three with uniform
    random phases drawn as perfbench's anneal_ensemble draws them at its
    seed 424243 (j_max = 2, c_cnst = 2)."""
    rng = np.random.default_rng([424243, 1])
    named = {"even": even_parity_program(), "alternating": alternating_field_program()}
    for k in range(3):
        phases = tuple(float(v) for v in rng.uniform(0.0, 2 * math.pi, 6))
        named[f"random{k}"] = CouplingProgram(phases, j_max=2.0, c_cnst=2.0)
    return named


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Run the anneal gate on its five programs.")
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    report = {}
    for name, program in programs().items():
        hist = run_trials(program, args.trials, seed=args.seed, canonical=True, n_bits=6)
        report[name] = {
            "pump_phase": list(program.pump_phase),
            "j_max": program.j_max,
            "c_cnst": program.c_cnst,
            "histogram": {**hist.counts, "unsettled": hist.unsettled},
            "bands": bands(program, hist),
        }
    print(json.dumps({"trials": args.trials, "seed": args.seed, "programs": report}))


if __name__ == "__main__":
    main()
