"""The paper's check as a stated bound: noisy anneals of a coupling program
against the analytic ground set of the tile Hamiltonian it programs.

gate(program, trials, seed) runs run_trials(..., canonical=True, n_bits=6)
and returns, as fractions of all trials, the readouts that lie in the
program's tile ground set, those of odd logical parity and the unsettled
trials, each with an exact Clopper-Pearson band. At 10**5 trials a program,
as a change to the anneal's numerics should run it, with src and tests on
sys.path:

    >>> from jpotile.anneal import even_parity_program
    >>> gate(even_parity_program(), 10**5, seed=1)
"""

from __future__ import annotations

import math

import numpy as np

from jpotile.anneal import effective_tile_couplings, run_trials
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
    _, ground = ground_set(effective_tile_couplings(program))
    labels = {g.label for g in ground}
    hist = run_trials(program, trials, seed=seed, canonical=True, n_bits=6)
    counts = {
        "hit": sum(c for label, c in hist.counts.items() if label in labels),
        "odd": sum(c for label, c in hist.counts.items() if label[:4].count("1") % 2),
        "unsettled": hist.unsettled,
    }
    return {name: (k / trials, *clopper_pearson(k, trials)) for name, k in counts.items()}
