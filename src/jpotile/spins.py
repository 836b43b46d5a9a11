"""Classical spin groundwork: Ising energies, exhaustive ground-state
search, and the validating reader behind every input file.

Conventions used everywhere in the package:

* a bit b in {0, 1} maps to a spin sigma = 2*b - 1, so bit 1 is spin +1;
* a state is an integer code whose bits are the spins, the first spin
  most significant (indices_to_spins); its label is that code in binary
  (code_labels), made only where a state is printed or keyed by name;
* Ising energy is E = -sum_i h_i sigma_i - sum_{i<j} J_ij sigma_i sigma_j,
  each unordered pair counted once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass
from inspect import signature
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, EnergyRangeError, ParseError

ENUMERATION_LIMIT = 24
# an energy is degenerate with the minimum when it lies within this share
# of the energy range above it (ground_mask), whatever the energies' units
DEGENERACY_TOL = 1e-9
_ENUMERATION_CHUNK = 1 << 16  # configurations per energy_fn batch
# largest n a problem file may declare: `lhz map` at n = 1000 peaks at
# ~290 MB resident (CSV output) and its memory grows as n**2
MAX_PROBLEM_SPINS = 1000
# 0-d operands: a Python scalar is converted again on every ufunc call
_ONE = np.array(1, dtype=np.int8)
_HALF = np.array(0.5)


def _checked_spins(config: Sequence[int] | np.ndarray) -> np.ndarray:
    """config as a non-empty 1-D array whose values all equal -1 or +1."""
    arr = np.asarray(config)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("spin configuration must be a non-empty 1-D sequence")
    if arr.dtype.kind in "biuf":
        # |x| == 1 is exact in every real dtype (abs keeps int8 -128 at -128):
        # int8 compares in int8, floats hold 1 exactly, and uint64 compares
        # in float64, where only 1 maps to 1.0
        valid = not np.count_nonzero(np.not_equal(np.abs(arr), _ONE))
    else:
        # complex, string and object values: |1j| == 1 but 1j is no spin
        valid = ((arr == 1) | (arr == -1)).all()
    if not valid:
        raise ValueError("spin values must be exactly -1 or +1")
    return arr


def as_spins(config: Sequence[int] | np.ndarray) -> np.ndarray:
    """Validate a +-1 configuration and return it as an int8 array."""
    return _checked_spins(config).astype(np.int8)


def indices_to_spins(indices: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """Spin rows of integer configuration indices over n spins: row r is
    labelled by the binary digits of indices[r], first spin = most
    significant bit."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (np.asarray(indices, dtype=np.int64)[:, None] >> shifts) & 1
    return (2 * bits - 1).astype(np.int8)


def code_labels(codes: Sequence[int] | np.ndarray, n: int) -> list[str]:
    """Bit-string labels of integer state codes over n spins, first spin
    leftmost (most significant bit)."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and not (0 <= codes.min() and codes.max() < 1 << n):
        raise ValueError(f"state codes must lie in [0, {1 << n}) for n={n}")
    return [format(c, f"0{n}b") for c in codes.tolist()]


def _check_enumerable(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_LIMIT:
        raise CapacityError(
            f"n={n} exceeds the exhaustive enumeration bound of {ENUMERATION_LIMIT}"
        )


def all_configs(n: int) -> np.ndarray:
    """All 2**n spin configurations, row r labelled by r's binary digits
    (first spin = most significant bit)."""
    _check_enumerable(n)
    return indices_to_spins(np.arange(2**n), n)


@dataclass(frozen=True)
class IsingProblem:
    """Fields h and symmetric zero-diagonal couplings J over n spins, kept
    as read-only float copies (J in C order) so the caller's arrays stay free.

    The field term's operand is built once here, outside the dataclass
    fields: -h, or None when every field is +-0 (ising_energy then skips
    the field dot, whose value would be +0.0).
    """

    h: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        j = np.array(self.j, dtype=float, order="C")
        if h.ndim != 1:
            raise ValueError("h must be a 1-D array")
        n = h.size
        if j.shape != (n, n):
            raise ValueError(f"J must have shape ({n}, {n}), got {j.shape}")
        if not np.array_equal(j, j.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("J must have a zero diagonal")
        h.setflags(write=False)
        j.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "j", j)
        neg_h = None
        if np.count_nonzero(h):
            neg_h = -h
            neg_h.setflags(write=False)
        object.__setattr__(self, "_neg_h", neg_h)

    @property
    def n(self) -> int:
        return self.h.size


def ising_energy(problem: IsingProblem, config: Sequence[int] | np.ndarray) -> float:
    """E = -h . sigma - 0.5 * sigma . J . sigma for a +-1 configuration.

    These are the BLAS calls of -h @ sigma - 0.5 * sigma @ J @ sigma in its
    order, at a fraction of its cost: the field dot (-h).dot(sigma), then
    (0.5 * sigma).dot(J) and its dot with sigma; the zero diagonal makes
    sigma.J.sigma twice the pair sum. Over one spin np.dot multiplies where
    matmul sums from +0.0, and + 0.0 gives the field term matmul's sign of
    zero. When every field is +-0 that term is +0.0 whatever sigma is, so
    it is taken as 0.0 with no field dot: the same bits.

    Raises ValueError "spin configuration must be a non-empty 1-D sequence"
    or "spin values must be exactly -1 or +1" for a configuration that is
    no spin row, and ValueError when its size is not the problem's n.
    """
    # a contiguous copy even of a float row: BLAS sums a strided vector in
    # another order
    sigma = _checked_spins(config).astype(float)
    n = problem.h.size
    if sigma.size != n:
        raise ValueError(f"configuration has {sigma.size} spins, problem has {n}")
    neg_h = problem._neg_h
    field = 0.0 if neg_h is None else float(neg_h.dot(sigma) + 0.0)
    return field - float(np.multiply(sigma, _HALF).dot(problem.j).dot(sigma))


def ground_mask(energies: np.ndarray, axis=None) -> np.ndarray:
    """Which energies are degenerate with the minimum over axis: those at
    most DEGENERACY_TOL of the energy range above it. The rule does not
    depend on the energies' units; a range that is not finite raises
    EnergyRangeError, a ValueError, whatever numpy's error state."""
    lo = energies.min(axis=axis, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        span = energies.max(axis=axis, keepdims=True) - lo
    if not np.isfinite(span).all():
        raise EnergyRangeError("the energy range is not finite")
    return energies <= lo + DEGENERACY_TOL * span


def enumerate_ground_states(
    energy_fn: Callable[[np.ndarray], float], n: int
) -> tuple[float, set[tuple[int, ...]]]:
    """Exhaustive minimum of energy_fn over all 2**n configurations.

    Returns the minimum energy and the set of configurations that
    ground_mask counts as degenerate with it. Configurations are evaluated
    in chunks into one float64 array of 8 * 2**n bytes; the result is
    independent of the chunk size.

    Raises CapacityError above n = 24 (2**24 is about 17M evaluations),
    ValueError naming the first configuration whose energy is NaN, and
    ValueError when the energy range is not finite.
    """
    _check_enumerable(n)
    total, chunk = 1 << n, _ENUMERATION_CHUNK
    energies = np.empty(total)
    for start in range(0, total, chunk):
        configs = indices_to_spins(np.arange(start, min(start + chunk, total)), n)
        block = energies[start:start + len(configs)]
        block[:] = [energy_fn(c) for c in configs]
        if math.isnan(block.min()):  # min passes on a NaN
            config = tuple(configs[np.flatnonzero(np.isnan(block))[0]].tolist())
            raise ValueError(f"energy is NaN at configuration {config}")
    ground = np.flatnonzero(ground_mask(energies))
    return float(energies.min()), set(map(tuple, indices_to_spins(ground, n).tolist()))


# a field without a default: dataclasses' own marker, so model hands a
# dataclass field's default on as it is
_REQUIRED = dataclasses.MISSING


def _is_finite_number(value: Any) -> bool:
    """A finite JSON number: no bool, string or integer beyond the float range."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _first_non_finite(values: Iterable) -> int:
    return next(k for k, v in enumerate(values) if not _is_finite_number(v))


def _finite_array(rows: list, count: int) -> Optional[np.ndarray]:
    """The count entries of the lists in rows as one float array, or None
    unless each is a finite JSON number."""
    # numpy converts bools and numeric strings, so the types are checked first
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return None
    try:
        out = np.fromiter(chain.from_iterable(rows), dtype=float, count=count)
    except OverflowError:  # an integer beyond the float range
        return None
    return out if np.isfinite(out).all() else None


class JsonObject:
    """One JSON object from an input file, with typed field accessors.

    Numbers must be finite (Python's json reads NaN and Infinity), flags
    must be true or false, and sub-objects must be objects. Every failure
    raises ParseError naming the file and the dotted field path. A field
    that is absent or null takes the accessor's default; without a default
    it is required. model builds an input dataclass from its own fields, so
    its defaults and range rules live only in the dataclass.
    """

    def __init__(self, data: dict, path: str, prefix: str = ""):
        self.data = data
        self.path = path
        self.prefix = prefix

    @classmethod
    def load(cls, path: str) -> "JsonObject":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise ParseError(f"{path}: top level must be an object")
        return cls(data, path)

    def error(self, key: str, message: str) -> ParseError:
        return ParseError(f"{self.path}: field '{self.prefix}{key}': {message}")

    def _absent(self, key: str, default: Any) -> bool:
        """True when the field is absent or null; then it must have a default."""
        if self.data.get(key) is not None:
            return False
        if default is _REQUIRED:
            raise ParseError(
                f"{self.path}: missing required field '{self.prefix}{key}'"
            )
        return True

    def get(self, key: str, default: Any = _REQUIRED) -> Any:
        """The raw value of a field."""
        return default if self._absent(key, default) else self.data[key]

    def number(self, key: str, default: Any = _REQUIRED) -> Optional[float]:
        if self._absent(key, default):
            return default
        value = self.data[key]
        if not _is_finite_number(value):
            raise self.error(key, f"expected a finite number, got {value!r}")
        return float(value)

    def array(self, key: str, count: int) -> np.ndarray:
        """A required list of exactly count finite numbers, as a float array."""
        values = self.get(key)
        if not isinstance(values, list) or len(values) != count:
            raise self.error(key, f"expected a list of {count} numbers")
        out = _finite_array([values], count)
        if out is None:
            k = _first_non_finite(values)
            raise self.error(f"{key} entry {k}", f"expected a finite number, got {values[k]!r}")
        return out

    def numbers(self, key: str, count: int, default: Any = _REQUIRED) -> Any:
        """A list of exactly count finite numbers, as a tuple of floats."""
        return default if self._absent(key, default) else tuple(self.array(key, count).tolist())

    def integer(self, key: str, minimum: int) -> int:
        value = self.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise self.error(key, f"expected an integer >= {minimum}, got {value!r}")
        return value

    def flag(self, key: str, default: bool) -> bool:
        value = self.get(key, default)
        if not isinstance(value, bool):
            raise self.error(key, f"expected true or false, got {value!r}")
        return value

    def section(self, key: str, required: bool = False) -> Optional["JsonObject"]:
        """A nested object, or None when an optional one is absent or null."""
        value = self.get(key, _REQUIRED if required else None)
        if value is None:
            return None
        if not isinstance(value, dict):
            raise self.error(key, f"expected an object, got {value!r}")
        return JsonObject(value, self.path, f"{self.prefix}{key}.")

    def model(self, cls, **given):
        """cls built from the fields given and, for each other field, the
        number of that name: the field's default when absent or null,
        required when it has none. Its range errors name their field."""
        for field in dataclasses.fields(cls):
            if field.name not in given:
                given[field.name] = self.number(field.name, field.default)
        with self.naming(cls):
            return cls(**given)

    @contextlib.contextmanager
    def naming(self, model):
        """Name the field behind a range error of model, a model class or
        function called in the block: every model's own check raises a
        ValueError that begins with the name of the parameter it rejects, and
        that one is raised again naming the file and the dotted field."""
        try:
            yield
        except ValueError as exc:
            name = str(exc).split(" ", 1)[0]
            if isinstance(exc, ParseError) or name not in signature(model).parameters:
                raise
            raise self.error(name, str(exc)) from exc


def load_ising_problem(path: str) -> IsingProblem:
    """Read a problem file: JSON with keys n, h, and J.

    J is either a flat row-major list of n*n numbers or a list of sparse
    [i, j, value] triples with 0-based indices. Malformed input, including
    a non-finite number or n above MAX_PROBLEM_SPINS, raises ParseError
    naming the line or field.
    """
    data = JsonObject.load(path)
    n = data.integer("n", 1)
    if n > MAX_PROBLEM_SPINS:
        raise data.error("n", f"expected at most {MAX_PROBLEM_SPINS} spins, got {n}")
    h = data.array("h", n)
    j_raw = data.get("J")
    if not isinstance(j_raw, list):
        raise data.error("J", "expected a list")
    # json.load builds plain lists, so the types of the entries tell the forms
    # apart; an empty list is the sparse form with no entries, an all-zero J
    types = set(map(type, j_raw))
    if j_raw and list not in types:
        if len(j_raw) != n * n:
            raise data.error(
                "J", f"flat row-major form needs {n * n} numbers, got {len(j_raw)}"
            )
        j = data.array("J", n * n).reshape(n, n)
        if not np.array_equal(j, j.T):
            raise data.error("J", "matrix must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise data.error("J", "diagonal must be zero")
        return IsingProblem(h=h, j=j)
    if types - {list} or set(map(len, j_raw)) - {3}:
        shaped = [isinstance(t, list) and len(t) == 3 for t in j_raw]
        raise data.error(f"J entry {shaped.index(False)}", "expected [i, j, value]")
    triples = _finite_array(j_raw, 3 * len(j_raw))
    if triples is None:
        pos = _first_non_finite(chain.from_iterable(j_raw)) // 3
        raise data.error(f"J entry {pos}", f"expected finite numbers, got {j_raw[pos]!r}")
    a, b, values = triples.reshape(-1, 3).T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # each entry's checks, in the order the error for it reports them
    integral = (np.trunc(lo) == lo) & (np.trunc(hi) == hi)
    in_range = (lo >= 0) & (hi < n)
    off_diagonal = lo != hi
    valid = integral & in_range & off_diagonal
    # a pair repeats at every entry but the first that holds it. A faulty
    # entry's key may equal a valid one's, but that can only flag an entry
    # after the faulty one, which is reported first
    first = np.zeros(a.size, dtype=bool)
    first[np.unique(lo * n + hi, return_index=True)[1]] = True
    bad = np.flatnonzero(~(valid & first))
    if bad.size:
        pos = int(bad[0])
        if not integral[pos]:
            message = "indices must be integers"
        elif not in_range[pos]:
            message = f"index out of range for n={n}"
        elif not off_diagonal[pos]:
            message = "diagonal coupling not allowed"
        else:
            message = f"duplicate pair {(int(lo[pos]), int(hi[pos]))}"
        raise data.error(f"J entry {pos}", message)
    a, b = a.astype(np.int64), b.astype(np.int64)
    j = np.zeros((n, n))
    j[a, b] = values
    j[b, a] = values
    return IsingProblem(h=h, j=j)
