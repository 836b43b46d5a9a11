"""Spans around calls into jpotile's public entry points.

The tracer wraps functions by replacing module attributes: every namespace
of the package that binds the same function object (for example
``jpotile.quantum.ground_states`` and ``jpotile.cli.logical_distribution``)
gets the wrapper, so calls made through any module nest as spans. Per-element
helpers such as ``tile_energy`` or ``ising_energy`` are not wrapped; their cost
lands in the self time of the entry point that called them.

Spans are ``[name, start, end, parent, job]`` lists kept in memory and written
out once at the end. Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

# layer -> public entry points wrapped in that layer's module
ENTRY_POINTS = {
    "spins": ("enumerate_ground_states", "load_ising_problem"),
    "lhz": (
        "build_layout", "map_couplings", "encode", "tile_products",
        "decode_readout", "lhz_energy", "layout_to_dict",
    ),
    "tile": ("ground_set",),
    "quantum": (
        "build_hamiltonian", "ground_states", "logical_distribution",
        "sweep_distribution",
    ),
    "circuit": ("flux_sweep", "rsj_iv_curve"),
    "anneal": ("run_trials", "simulate_trial", "readout_bit"),
    "cli": ("main", "emit_histogram", "emit_distribution"),
}
LAYERS = tuple(ENTRY_POINTS)


def _trial_steps(bound, trials):
    from jpotile.anneal import AnnealSchedule

    schedule = bound.arguments.get("schedule") or AnnealSchedule()
    return trials * schedule.n_steps


def _count_run_trials(counts, bound, result, exc):
    trials = bound.arguments["trials"]
    counts["anneal.trials"] += trials
    counts["anneal.trial_steps"] += _trial_steps(bound, trials)
    if result is not None:
        counts["anneal.unsettled"] += result.unsettled


def _count_simulate_trial(counts, bound, result, exc):
    counts["anneal.trials"] += 1
    counts["anneal.trial_steps"] += _trial_steps(bound, 1)
    if result is not None and not result.settled:
        counts["anneal.unsettled"] += 1


def _count_ground_states(counts, bound, result, exc):
    counts["quantum.eigensolves"] += 1


def _count_ground_set(counts, bound, result, exc):
    counts["tile.ground_set_calls"] += 1
    if result is not None:
        counts["tile.ground_degeneracy"] += len(result[1])


def _count_enumerate(counts, bound, result, exc):
    counts["spins.configs_evaluated"] += 1 << bound.arguments["n"]


def _count_flux_sweep(counts, bound, result, exc):
    if result is not None:
        counts["circuit.clipped_points"] += sum(p.clipped for p in result)


def _count_decode(counts, bound, result, exc):
    from jpotile.errors import DecodeError

    if isinstance(exc, DecodeError):
        counts["lhz.decode_rejects"] += 1


def _count_cli_main(counts, bound, result, exc):
    argv = list(bound.arguments.get("argv") or ())
    if "--out" in argv:
        try:
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                counts["cli.bytes_out"] += len(fh.read())
        except (OSError, IndexError):
            pass


COUNTERS = {
    "anneal.run_trials": _count_run_trials,
    "anneal.simulate_trial": _count_simulate_trial,
    "quantum.ground_states": _count_ground_states,
    "tile.ground_set": _count_ground_set,
    "spins.enumerate_ground_states": _count_enumerate,
    "circuit.flux_sweep": _count_flux_sweep,
    "lhz.decode_readout": _count_decode,
    "cli.main": _count_cli_main,
}


class Tracer:
    """Install/uninstall span wrappers; collect spans and counters.

    ``job`` is set by the harness before each job so spans carry its id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        package = importlib.import_module("jpotile")
        modules = [package] + [
            importlib.import_module(f"jpotile.{layer}") for layer in LAYERS
        ]
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"jpotile.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original, wrapper))

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.process_time  # the CPU clock the harness times rounds with

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    counter(self.counts, bound, result, exc)

        return traced

    def take_counts(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        return counts

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Self time per span name over spans[lo:hi]: duration minus the part
    covered by direct children. Children of one span run one after another
    in a single thread, so their coverage is the sum of their durations."""
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index in range(lo, hi):
        name, start, end, _, _ = spans[index]
        out[name] += (end - start) - covered[index]
    return out


def top_level_time(spans: list[list], lo: int, hi: int) -> float:
    """Time covered by spans without a traced parent."""
    return sum(end - start for _, start, end, parent, _ in spans[lo:hi] if parent < lo)
