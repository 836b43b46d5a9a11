"""Step timings of the anneal's two step bodies, behind the constants that
choose between them (NARROW_BATCH) and size their batches (TRIAL_CHUNK).

Each cell is one body at one width m and one step count. The command, from
the repo root,

    PYTHONPATH=src python tests/anneal_steps.py --widths 7 8 9 10 --steps 2000 --repeats 21

times _integrate_batch over m trials of even_parity_program's couplings at
the default eta and beta, on Python floats ("floats", _float_steps) and on
numpy rows ("rows", _row_steps), NARROW_BATCH being set per call to pick
the body. It prints one JSON object with the median and the least
microseconds per batch step of each cell over the repeats. Each repeat runs
every cell once, in reverse order on odd repeats, so a swing in the host's
speed reaches every cell alike. Python floats win the widths below the
crossover that NARROW_BATCH marks.

With --trials N a cell times run_trials(even_parity_program(), N,
chunk_size=m) instead, in microseconds per trial-step; TRIAL_CHUNK's table
is

    PYTHONPATH=src python tests/anneal_steps.py --bodies rows --trials 4681 \\
        --widths 128 256 512 768 1024 2048 4681 --steps 1000 5000 --repeats 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from jpotile import anneal
from jpotile.anneal import (
    DEFAULT_BETA,
    DEFAULT_ETA,
    AnnealSchedule,
    effective_tile_couplings,
    even_parity_program,
    run_trials,
)

BODIES = ("floats", "rows")


def seconds(body: str, width: int, steps: int, trials: int | None) -> float:
    """perf_counter seconds of one cell's call."""
    program = even_parity_program()
    schedule = AnnealSchedule(duration=steps * 1e-2, dt=1e-2)
    narrow_batch = anneal.NARROW_BATCH
    anneal.NARROW_BATCH = width + 1 if body == "floats" else 1
    try:
        if trials is None:
            params = effective_tile_couplings(program)
            seeds = np.random.SeedSequence(0).spawn(width)
            start = time.perf_counter()
            anneal._integrate_batch(params, schedule, DEFAULT_ETA, DEFAULT_BETA, seeds)
        else:
            start = time.perf_counter()
            run_trials(program, trials, seed=0, schedule=schedule, chunk_size=width)
        return time.perf_counter() - start
    finally:
        anneal.NARROW_BATCH = narrow_batch


def timings(bodies, widths, steps, repeats: int,
            trials: int | None = None) -> dict[str, dict[str, dict[str, dict[str, float]]]]:
    """{body: {width: {steps: {"median", "min"}}}} in us per batch step, or
    per trial-step when trials is given."""
    cells = [(b, m, s) for b in bodies for m in widths for s in steps]
    runs = {cell: [] for cell in cells}
    seconds(bodies[0], widths[0], 10, None)  # first calls warm numpy's ufunc loops
    for r in range(repeats):
        for cell in cells[::-1] if r % 2 else cells:
            runs[cell].append(seconds(*cell, trials))
    report = {b: {str(m): {} for m in widths} for b in bodies}
    for (b, m, s), values in runs.items():
        us = [1e6 * v / (s if trials is None else s * trials) for v in values]
        report[b][str(m)][str(s)] = {"median": statistics.median(us), "min": min(us)}
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Time the anneal's step bodies.")
    parser.add_argument("--widths", type=int, nargs="+", required=True)
    parser.add_argument("--steps", type=int, nargs="+", default=[2000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--bodies", nargs="+", choices=BODIES, default=list(BODIES))
    parser.add_argument("--trials", type=int)
    args = parser.parse_args(argv)
    report = timings(args.bodies, args.widths, args.steps, args.repeats, args.trials)
    unit = "us per batch step" if args.trials is None else "us per trial-step"
    print(json.dumps({**vars(args), "unit": unit, "timings": report}))


if __name__ == "__main__":
    main()
