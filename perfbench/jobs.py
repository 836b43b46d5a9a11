"""Job plumbing shared by the workloads: CLI calls, output parsing, checks.

A job is one operation of the closed loop. ``run`` does the work and is
timed; ``check`` validates the output and returns a digest that must repeat
in every round. Library and CLI calls go through module attributes
(``jpotile.cli.main``, ``jpotile.lhz.encode``) so the tracer's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import jpotile.cli

EVEN_LABELS = frozenset(
    {"0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"}
)


class CheckError(Exception):
    """An output failed its correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Job:
    """One operation. ``check`` returns the output's digest, or a
    ``(digest, info)`` pair whose info dict the workload's summary reads.
    ``group`` names the throughput bucket ``work`` counts toward; ``rejects``
    is how many decodes the job expects to fail with DecodeError."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    group: Optional[str] = None
    work: float = 0.0
    rejects: int = 0


@dataclass
class Probe:
    """A malformed-input call expected to exit with a documented code."""

    name: str
    argv: list
    expect: int


# Input files are queued while a workload is generated and written by
# flush_inputs(), so set-up time leaves out the file system's work: on a
# shared disk, creating the same files took from 1 to 3 times as long from
# one repetition to the next.
_pending: list[tuple[str, str]] = []


def write_json(path: str, obj) -> str:
    # allow_nan lets probes carry the NaN/Infinity literals Python's json reads
    return write_text(path, json.dumps(obj, allow_nan=True))


def write_text(path: str, text: str) -> str:
    _pending.append((path, text))
    return path


def flush_inputs() -> None:
    for path, text in _pending:
        with open(path, "w") as fh:
            fh.write(text)
    _pending.clear()


def cli_job(name, argv, out, check, group=None, work=0.0) -> Job:
    """A CLI call writing to ``out``; ``check(bytes)`` validates the file."""
    full = list(argv) + ["--out", out, "--quiet"]

    def run():
        return jpotile.cli.main(full)

    def check_output(code):
        require(code == 0, f"exit code {code}")
        with open(out, "rb") as fh:
            data = fh.read()
        # removed at once, so later rounds never rename over an existing file
        # and the data is dropped before the kernel writes it back
        os.unlink(out)
        return digest(data), check(data)

    return Job(name, run, check_output, group, work)


def run_probe(probe: Probe) -> str:
    """Outcome of a probe as ``exit N`` or ``raised <type>``."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return f"exit {jpotile.cli.main(probe.argv + ['--quiet'])}"
        except Exception as exc:  # a probe records what escapes, it never stops the run
            return f"raised {type(exc).__name__}"


def parse_csv(data: bytes) -> tuple[dict, list, list]:
    """(resolved config, header, rows) of a jpotile CSV document."""
    lines = data.decode().splitlines()
    config = None
    body = []
    for line in lines:
        if line.startswith("# config="):
            config = json.loads(line[len("# config="):])
        elif not line.startswith("#"):
            body.append(line.split(","))
    require(config is not None, "CSV output lacks its '# config=' line")
    require(len(body) >= 1, "CSV output lacks a header")
    return config, body[0], body[1:]


def histogram(data: bytes, trials: int) -> tuple[dict, dict]:
    """Counts by label from an ``anneal`` CSV, with the accounting checked."""
    config, header, rows = parse_csv(data)
    require(header == ["state", "count", "probability"], f"header {header}")
    counts = {r[0]: int(r[1]) for r in rows}
    require(config["trials"] == trials, "trial count not echoed")
    require(
        sum(counts.values()) + config["unsettled"] == trials,
        "counts plus unsettled trials differ from trials",
    )
    return counts, config


# An unsettled trial (an amplitude still inside the settling threshold at the
# end of the ramp) is a documented outcome, counted apart from the states; the
# paper programs leave about one in several thousand trials unsettled. More
# than this share means the dynamics broke.
UNSETTLED_SHARE = 0.05


def binomial_band(p: float, n: int) -> float:
    """Five standard errors of a share p over n trials: the tolerance used
    where the acceptance tests pin a band at a larger trial count."""
    return 5.0 * math.sqrt(p * (1.0 - p) / n)
