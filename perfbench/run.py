"""jpotile benchmark: one seeded workload per call.

    python3 perfbench/run.py --workload anneal_ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The script byte-compiles ``src/jpotile``
(the build), starts the workload in a fresh child process with single-threaded
BLAS, waits for it, and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from spans. Scratch
files, results and span dumps stay under ``.bench_build/perfbench`` in the
checkout. Without ``src/jpotile`` the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("anneal_ensemble", "anneal_trace", "tile_spectra", "lhz_mapping")
DEADLINE_S = 170.0  # the whole call must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_commit(root: str) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be > 0", 2)

    package = os.path.join(ROOT, "src", "jpotile")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        return fail(f"no jpotile sources under {package}", 2)
    if not compileall.compile_dir(package, quiet=1):
        return fail("byte-compiling src/jpotile failed", 2)

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    result_path = os.path.join(out_dir, f"result-{tag}.json")
    os.makedirs(out_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "JPOTILE_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env.update({name: "1" for name in BLAS_ENV})
    env["TMPDIR"] = workdir
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(workdir, "inputs"), "--result", result_path,
    ]
    if args.trace:
        command += ["--spans", os.path.join(out_dir, f"spans-{tag}.json")]
    if os.path.exists(result_path):
        os.unlink(result_path)
    os.makedirs(workdir)
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = child.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code is None:
        return fail("workload did not finish in time", 3)
    if code != 0 or not os.path.exists(result_path):
        return fail(f"workload process exited with code {code}", 3)

    with open(result_path) as fh:
        result = json.load(fh)
    result["provenance"].update(workload=args.workload, seconds=args.seconds,
                                trace=args.trace, git_commit=git_commit(ROOT))
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['summary']['rounds']}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in result["summary"].items():
        if isinstance(value, list) and len(value) == 2 and isinstance(value[1], str):
            print(f"{args.workload} {name} = {value[0]:.6g} {value[1]}")
    for name, outcome in result["probes"]["misrouted"].items():
        print(f"{args.workload} input probe '{name}': {outcome}")
    for failure in result["failures"]:
        print(f"{args.workload} FAILED {failure}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
