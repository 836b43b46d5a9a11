"""One workload in its own process: set-up, timed rounds, checks, metrics.

Started by run.py with ``src`` on PYTHONPATH and single-threaded BLAS. Writes
one JSON document to the path given by ``--result``; run.py prints it.

A round runs the workload's fixed job list once, one job after the other
(a closed loop with a single client), then its malformed-input probes.
Rounds repeat until the wall-clock budget is spent. With ``--trace 1`` each
round also runs the smoke job, round 0 is an untraced warm-up, and the later
rounds alternate between traced and untraced, so the tracing overhead is
measured in the same process on warm rounds.

Timings use the CPU time of this single-threaded process (user + system,
``time.process_time``), which leaves out the time the hypervisor runs other
guests on our CPU. A round's time is the sum of its jobs' ``run`` calls and
its probes; the harness's output checks are not part of it. Times are
further divided by the host's slowness over the same interval (see
speed.py); raw CPU and wall-clock round times are kept in the summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import speed

MIN_ROUNDS = 3  # with --trace 1: the warm-up, one traced and one untraced round
SETUP_REPEATS = 9
SETUP_SAMPLES = 4  # host speed samples taken after each set-up repetition
SETUP_SPEED: list[float] = []  # their slowness values
STEP_PROBES = ((1, 1000), (128, 500), (1000, 200))  # (trials = chunk, steps)

clock = time.process_time
PROBE = speed.SpeedProbe()  # samples host speed from here to the end


def import_jpotile() -> list[float]:
    """CPU times of SETUP_REPEATS imports of jpotile. Each drops the package's
    modules first, so it executes all of them again; the first import also
    loads the standard-library modules they need."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "jpotile" or m.startswith("jpotile.")]:
            del sys.modules[name]
        started = clock()
        importlib.import_module("jpotile.cli")
        times.append(clock() - started)
        SETUP_SPEED.extend(PROBE.sample(SETUP_SAMPLES))
    return times


# set-up starts here; everything below binds to the last import's modules
IMPORT_TIMES = import_jpotile()
import jpotile  # noqa: E402
import jpotile.cli  # noqa: E402,F401
import jobs  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer metrics read from span self times: metric -> span names
SPAN_METRICS = {
    "anneal.run_trials_s": ("anneal.run_trials",),
    "anneal.simulate_trial_s": ("anneal.simulate_trial",),
    "anneal.readout_bit_s": ("anneal.readout_bit",),
    "quantum.build_hamiltonian_s": ("quantum.build_hamiltonian",),
    "quantum.ground_states_s": ("quantum.ground_states",),
    "quantum.logical_distribution_s": ("quantum.logical_distribution",),
    "tile.ground_set_s": ("tile.ground_set",),
    "circuit.flux_sweep_s": ("circuit.flux_sweep",),
    "circuit.rsj_iv_curve_s": ("circuit.rsj_iv_curve",),
    "lhz.build_layout_s": ("lhz.build_layout",),
    "lhz.map_couplings_s": ("lhz.map_couplings",),
    "lhz.encode_s": ("lhz.encode",),
    "lhz.tile_products_s": ("lhz.tile_products",),
    "lhz.decode_readout_s": ("lhz.decode_readout",),
    "lhz.lhz_energy_s": ("lhz.lhz_energy",),
    "lhz.layout_to_dict_s": ("lhz.layout_to_dict",),
    "spins.enumerate_ground_states_s": ("spins.enumerate_ground_states",),
    "cli.emit_s": ("cli.emit_histogram", "cli.emit_distribution"),
}
COUNT_METRICS = (
    "anneal.trial_steps", "anneal.unsettled", "quantum.eigensolves",
    "tile.ground_set_calls", "tile.ground_degeneracy", "circuit.clipped_points",
    "lhz.decode_rejects", "spins.configs_evaluated", "cli.bytes_out",
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _input_digest(directory: str) -> str:
    names = sorted(n for n in os.listdir(directory) if "out" not in n)
    blob = b"".join(n.encode() + open(os.path.join(directory, n), "rb").read()
                    for n in names)
    return jobs.digest(blob)


def set_up(name: str, seed: int, directory: str, failures: list):
    """Generate the inputs and run the warm-up job, SETUP_REPEATS times.

    Each repetition writes into a new directory under ``directory``. The time
    counts input generation and the warm-up job's run, not the writing of the
    input files (see jobs.flush_inputs) or the warm-up's output check.
    Returns the last workload and the median set-up CPU time. Inputs that
    differ between repeats, or a failing warm-up, are recorded as failures."""
    times, digests = [], set()
    workload = None
    for repeat in range(SETUP_REPEATS):
        inputs = os.path.join(directory, str(repeat))
        os.makedirs(inputs)
        started = clock()
        workload = WORKLOADS[name](seed, inputs)
        elapsed = clock() - started
        jobs.flush_inputs()
        warm_up = workload.warm_up
        started = clock()
        try:
            output = warm_up.run()
            elapsed += clock() - started
            warm_up.check(output)
        except Exception as exc:  # counted as a failed operation
            failures.append(f"set-up warm-up: {type(exc).__name__}: {exc}")
        times.append(elapsed)
        SETUP_SPEED.extend(PROBE.sample(SETUP_SAMPLES))
        digests.add(_input_digest(inputs))
    if len(digests) != 1:
        failures.append("set-up: the same seed wrote different inputs")
    return workload, _median(times)


class Round:
    """Run one round and keep its timings, tallies and failures."""

    def __init__(self, job_list, probes, digests, failures, tracer=None, index=0):
        self.jobs: dict[str, float] = {}
        self.info: dict[str, dict] = {}
        self.probes: dict[str, str] = {}
        self.attempted = self.failed = 0
        wall_started, mark = time.perf_counter(), PROBE.mark()
        for job_id, job in enumerate(job_list):
            if tracer is not None:
                tracer.job = index * 100000 + job_id
            self.attempted += 1
            t0 = clock()
            try:
                output = job.run()
                self.jobs[job.name] = clock() - t0
                checked = job.check(output)
            except Exception as exc:  # any escape is a failed operation
                self.jobs.setdefault(job.name, clock() - t0)
                self.failed += 1
                failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
                continue
            digest, info = checked if isinstance(checked, tuple) else (checked, None)
            if info:
                self.info[job.name] = info
            if digests.setdefault(job.name, digest) != digest:
                self.failed += 1
                failures.append(f"{job.name}: output differs from the first round")
        probe_s = 0.0
        for probe in probes:
            t0 = clock()
            self.probes[probe.name] = jobs.run_probe(probe)
            probe_s += clock() - t0
        self.cpu = sum(self.jobs.values()) + probe_s
        self.wall = time.perf_counter() - wall_started
        self.slowness = PROBE.slowness((mark, PROBE.mark()))

    def work_per_s(self, workload) -> float:
        """Work per second of the jobs doing it, at nominal host speed. The
        round's slowness is used: short jobs hold too few speed samples."""
        group = [j.name for j in workload.jobs if j.group == workload.work_group]
        seconds = sum(self.jobs[name] for name in group)
        return sum(j.work for j in workload.jobs if j.name in group) / seconds * self.slowness


def layer_metrics(tracer, lo: int, hi: int, rnd: Round, counts) -> dict:
    """Per-layer metrics of one traced round, times at nominal host speed."""
    selfs = {name: t / rnd.slowness
             for name, t in spans.self_times(tracer.spans, lo, hi).items()}
    cpu = rnd.cpu / rnd.slowness
    out = {m: sum(selfs.get(n, 0.0) for n in names) for m, names in SPAN_METRICS.items()}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in selfs.items() if n.startswith(layer + "."))
    out["bench.self_s"] = cpu - spans.top_level_time(tracer.spans, lo, hi) / rnd.slowness
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    steps, trials = counts.get("anneal.trial_steps", 0), counts.get("anneal.trials", 0)
    integrate = selfs.get("anneal.run_trials", 0.0) + selfs.get("anneal.simulate_trial", 0.0)
    out["anneal.us_per_trial_step"] = 1e6 * integrate / steps if steps else 0.0
    out["anneal.settled_frac"] = 1.0 - counts.get("anneal.unsettled", 0) / trials if trials else 0.0
    solves = counts.get("quantum.eigensolves", 0)
    out["quantum.us_per_eigensolve"] = (
        1e6 * selfs.get("quantum.ground_states", 0.0) / solves if solves else 0.0)
    out["trace.spans"] = hi - lo
    return out


def step_probe(trials: int, steps: int) -> float:
    """Microseconds per Euler step of run_trials with trials = chunk_size."""
    import jpotile.anneal as anneal

    schedule = anneal.AnnealSchedule(duration=steps * 0.01)
    program = anneal.even_parity_program()
    times = []
    for seed in range(3):
        t0, mark = clock(), PROBE.mark()
        anneal.run_trials(program, trials, seed=seed, schedule=schedule, chunk_size=trials)
        times.append((clock() - t0) / PROBE.slowness((mark, PROBE.mark())))
    return 1e6 * _median(times) / steps


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jpotile": jpotile.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(jpotile.__file__).startswith(src + os.sep):
        print(f"jpotile imported from {jpotile.__file__}, not from {src}", file=sys.stderr)
        return 2

    failures: list[str] = []
    workload, setup_s = set_up(args.workload, args.seed, args.workdir, failures)
    import_s = _median(IMPORT_TIMES)
    setup_slowness = _median(SETUP_SPEED)
    setup_failures = len(failures)
    tracer = spans.Tracer() if args.trace else None
    # traced runs add the smoke job so every layer's spans are measured on every workload
    job_list = workload.jobs + ([workload.warm_up] if tracer else [])
    digests: dict[str, str] = {}
    rounds: list[Round] = []
    traced: list[dict] = []  # per-layer metrics of each traced round
    started = time.perf_counter()
    while True:
        index = len(rounds)
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            tracer.take_counts()  # start the round's counters from zero
            lo = len(tracer.spans)
            tracer.install()
        try:
            rnd = Round(job_list, workload.probes, digests, failures,
                        tracer if tracing else None, index)
        finally:
            if tracing:
                tracer.uninstall()
        rounds.append(rnd)
        if tracing:
            counts = tracer.take_counts()
            expected = sum(job.rejects for job in job_list)
            if counts.get("lhz.decode_rejects", 0) != expected:
                failures.append(f"trace: {counts.get('lhz.decode_rejects', 0)} decode "
                                f"rejects counted, {expected} corrupted words fed")
            traced.append(layer_metrics(tracer, lo, len(tracer.spans), rnd, counts))
        elapsed = time.perf_counter() - started
        typical = _median([r.wall for r in rounds])
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
            break
        if elapsed > 3 * args.seconds and (tracer is None or len(rounds) >= MIN_ROUNDS):
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + setup_failures
    probe_total = sum(len(r.probes) for r in rounds)
    expect = {p.name: f"exit {p.expect}" for p in workload.probes}
    rejected = sum(outcome == expect[name] for r in rounds for name, outcome in r.probes.items())
    misrouted = {name: f"{outcome}, documented {expect[name]}"
                 for name, outcome in rounds[0].probes.items() if outcome != expect[name]}

    summary = {
        "rounds": len(rounds),
        "setup_import_s": IMPORT_TIMES,
        "setup_inputs_s": setup_s,
        "setup_slowness": setup_slowness,
        "round_cpu_s": [r.cpu for r in rounds],
        "round_slowness": [r.slowness for r in rounds],
        "round_wall_s": [r.wall for r in rounds],
        "wall_s": (_median([r.wall for r in rounds]), "s"),
        "job_median_s": {name: _median([r.jobs[name] for r in rounds if name in r.jobs])
                         for name in rounds[0].jobs},
        workload.work_metric: (_median([r.work_per_s(workload) for r in rounds]),
                               workload.work_unit),
    }
    extras = [workload.extra({"jobs": r.jobs, "info": r.info}) for r in rounds]
    for key, (_, unit) in extras[0].items():
        summary[key] = (_median([e[key][0] for e in extras]), unit)

    if tracer is None:
        metrics = {
            "setup_s": ((import_s + setup_s) / setup_slowness, "s"),
            "cpu_s": (_median([r.cpu / r.slowness for r in rounds]), "s"),
            "work_per_s": (_median([r.work_per_s(workload) for r in rounds]), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "input_reject_frac": (rejected / probe_total, "ratio"),
        }
    else:
        metrics = {name: (_median([m[name] for m in traced]), _unit(name))
                   for name in traced[0]}
        times = [r.cpu / r.slowness for r in rounds]
        metrics["trace.cpu_s"] = (_median(times[1::2]), "s")
        # each traced round minus the untraced round after it, so a drift of
        # the host's speed over the run cancels; round 0 only warms up
        metrics["trace.overhead_s"] = (
            _median([times[i] - times[i + 1] for i in range(1, len(times) - 1, 2)]), "s")
        for trials, steps in STEP_PROBES:
            metrics[f"anneal.us_per_step_m{trials}"] = (step_probe(trials, steps), "us")
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
        layers = {layer: metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS}
        summary["layer_self_s"] = layers
        summary["dominant_layer"] = max(layers, key=layers.get)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "summary": summary,
        "probes": {"run": probe_total, "rejected_as_documented": rejected,
                   "misrouted": misrouted},
        "provenance": provenance(args.seed),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("anneal.us_per") or name == "quantum.us_per_eigensolve":
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name == "cli.bytes_out":
        return "B"
    return "count"


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
