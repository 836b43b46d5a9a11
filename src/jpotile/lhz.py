"""All-to-all to local mapping in the LHZ parity layout.

A fully connected n-spin problem (couplings only, no local fields) is
carried by K = n(n-1)/2 physical bits, one per logical pair (i, j) with
i < j. Physical bit k stands for the product sigma_i * sigma_j; its field
is the logical coupling J_ij. Consistency is enforced by four-body parity
tiles whose spin product is +1 on every valid encoding. The triangular
arrangement has rows of n-1 down to 1 bits plus n-2 fixed +1 spins that
close the boundary tiles.

Logical indices are 0-based throughout. Physical bit order is the
lexicographic pair order (0,1), (0,2), ..., which coincides with row-major
order over the rows (row r holds the pairs (r, r+1) ... (r, n-1)).

Tile parity is read from row slices, with no gather. Tile (i, j)'s west
(i, j) and north (i, j+1) are neighbours in row i, and its south (i+1, j)
and east (i+1, j+1) are neighbours in row i+1; a boundary tile's south is
the fixed +1 spin, so its south-east product is east, the first bit of row
i+1. Let z hold each bit times its left neighbour in its row, and a row's
first bit alone. In tile order the west-north products are then z over
rows 0..n-3 without their first bits, and the south-east products are z
over rows 1..n-2, which is z from bit n-1 on; a tile's product is the
product of the two. ``LhzLayout.tiles`` remains the documented layout: the
layout document and DecodeError's member list read it, and the kernel's
result equals the product over each of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DecodeError, UnsupportedProblemError
from .spins import IsingProblem, as_spins


def physical_count(n: int) -> int:
    """Physical bits needed for n logical spins: n(n-1)/2."""
    if n < 2:
        raise ValueError("the mapping needs at least 2 logical spins")
    return n * (n - 1) // 2


def constraint_count(n: int) -> int:
    """Parity tiles needed for n logical spins: K - n + 1."""
    return physical_count(n) - n + 1


@dataclass(frozen=True)
class LhzLayout:
    """The triangular layout. ``tiles`` is a read-only (T, 4) int64 array of
    physical indices, columns (north, east, south, west); the value
    ``k_physical`` marks a slot carried by a fixed +1 spin of the boundary
    row, so ``np.append(sigma, 1)[tiles]`` gathers every tile's spins.
    ``tiles`` is the transpose of a C-ordered (4, T) array, so each column
    is contiguous. ``pair_ends`` is a read-only (2, K) int64 array of the
    logical ends i and j of every physical bit; ``pairs`` derives from it.
    The private fields are the kernels' read-only row geometry: each row's
    first bit, the mask that drops rows 0..n-3's first bits from bits
    0..K-2, and the strict upper triangle that picks the pairs."""

    n_logical: int
    k_physical: int
    rows: tuple[int, ...]          # row lengths, base (n-1) first
    fixed_row: int                 # count of fixed +1 boundary spins
    tiles: np.ndarray
    pair_ends: np.ndarray
    _row_starts: np.ndarray = field(repr=False, compare=False)
    _keep: np.ndarray = field(repr=False, compare=False)
    _upper: np.ndarray = field(repr=False, compare=False)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Physical k -> logical pair (i, j), as Python ints."""
        return tuple(zip(*self.pair_ends.tolist()))


def build_layout(n: int) -> LhzLayout:
    """Construct the triangular layout for n logical spins.

    Tile (i, j), 0 <= i < j <= n-2, is the diamond over the pairs
    north (i, j+1), east (i+1, j+1), south (i+1, j) and west (i, j). When
    j == i+1 the south pair would be (i+1, i+1), so a fixed +1 spin closes
    the boundary tile instead. Every tile has spin product +1 on every
    encoded configuration. Tile order is row-major in (i, j): for each i
    ascending, the boundary tile first, then its bulk diamonds by j.
    """
    if n < 3:
        raise ValueError("the triangular layout needs at least 3 logical spins")
    k = physical_count(n)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    ends = np.stack(np.nonzero(upper))
    row = np.arange(n - 1)
    starts = row * n - row * (row + 1) // 2  # row r starts at pair (r, r+1)
    keep = np.ones(k - 1, dtype=bool)
    keep[starts[:-1]] = False
    # the row slices of the module docstring: north runs over rows 0..n-3
    # but their first bits, east over rows 1..n-2, and west and south are
    # their left neighbours, south the fixed slot where east starts a row
    north = np.flatnonzero(keep)
    east = np.arange(n - 1, k)
    south = east - 1
    south[starts[1:] - (n - 1)] = k
    columns = np.stack([north, east, south, north - 1])
    for array in (upper, ends, starts, keep, columns):
        array.setflags(write=False)
    assert columns.shape[1] == constraint_count(n)
    return LhzLayout(
        n_logical=n,
        k_physical=k,
        rows=tuple(n - 1 - r for r in range(n - 1)),
        fixed_row=n - 2,
        tiles=columns.T,
        pair_ends=ends,
        _row_starts=starts,
        _keep=keep,
        _upper=upper,
    )


def row_members(layout: LhzLayout) -> tuple[tuple[int, ...], ...]:
    """Physical indices per row, base row first, left to right."""
    starts = layout._row_starts.tolist()
    return tuple(tuple(range(k, k + size)) for k, size in zip(starts, layout.rows))


@dataclass(frozen=True)
class LhzProblem:
    """Per-bit fields J_k plus the uniform tile penalty strength C."""

    j_fields: np.ndarray
    c_penalty: float

    def __post_init__(self):
        j = np.array(self.j_fields, dtype=float)
        if j.ndim != 1:
            raise ValueError("j_fields must be a 1-D array")
        if not np.isfinite(j).all():
            raise ValueError("j_fields must be finite")
        if not 0 < self.c_penalty < np.inf:  # NaN fails too
            raise ValueError("c_penalty must be > 0 and finite")
        j.setflags(write=False)
        object.__setattr__(self, "j_fields", j)


def map_couplings(problem: IsingProblem) -> np.ndarray:
    """Logical couplings J_ij -> physical field vector J_k (pair order).

    The logical energy is -sum J_ij sigma_i sigma_j while the physical
    field term is +sum J_k sigma_k, so the fields carry the negated
    couplings: J_k = -J_ij. Minimizing the physical energy then minimizes
    the logical energy rather than maximizing it.

    Local fields are not representable here; any nonzero h is rejected.
    """
    if problem.n < 3:
        raise ValueError("mapping is defined for n >= 3 logical spins")
    if np.any(problem.h != 0.0):
        raise UnsupportedProblemError(
            "nonzero local fields cannot be carried by the pair mapping; "
            "set h = 0"
        )
    # + 0.0 turns the -0.0 of a negated zero coupling into 0.0
    return -problem.j[np.triu(np.ones((problem.n, problem.n), dtype=bool), 1)] + 0.0


def _checked_word(
    physical: Sequence[int] | np.ndarray, layout: LhzLayout
) -> np.ndarray:
    """A physical readout as an int8 +-1 word of the layout's size."""
    sigma = as_spins(physical)
    if sigma.size != layout.k_physical:
        raise ValueError(
            f"physical configuration has {sigma.size} bits, layout expects "
            f"{layout.k_physical}"
        )
    return sigma


def _tile_parity(layout: LhzLayout, sigma: np.ndarray) -> np.ndarray:
    """Spin product of each tile of a checked word, int8: west-north times
    south-east, each a slice of z, the word times its left neighbour in each
    row (module docstring)."""
    z = np.empty_like(sigma)
    np.multiply(sigma[1:], sigma[:-1], out=z[1:])
    starts = layout._row_starts
    z[starts] = sigma[starts]
    return z[:-1][layout._keep] * z[layout.n_logical - 1:]


def encode(layout: LhzLayout, logical: Sequence[int] | np.ndarray) -> np.ndarray:
    """Physical configuration carrying a logical one: bit (i,j) = sigma_i*sigma_j."""
    sigma = as_spins(logical)
    if sigma.size != layout.n_logical:
        raise ValueError(
            f"logical configuration has {sigma.size} spins, layout expects "
            f"{layout.n_logical}"
        )
    return np.multiply.outer(sigma, sigma)[layout._upper]


def tile_products(layout: LhzLayout, physical: Sequence[int] | np.ndarray) -> np.ndarray:
    """Spin product of each tile as int64; fixed slots contribute +1."""
    return _tile_parity(layout, _checked_word(physical, layout)).astype(np.int64)


def lhz_energy(
    problem: LhzProblem, layout: LhzLayout, physical: Sequence[int] | np.ndarray
) -> float:
    """Field energy plus tile penalties: sum_k J_k sigma_k - C * sum_l prod_l.

    The field products are summed left to right in pair order from +0.0,
    with no BLAS call, so the bits depend on no kernel or thread count."""
    if problem.j_fields.size != layout.k_physical:
        raise ValueError(
            f"j_fields has {problem.j_fields.size} entries, layout expects "
            f"{layout.k_physical}"
        )
    sigma = _checked_word(physical, layout)
    # an int8 sum accumulates in int64, as the int64 products did
    penalty = _tile_parity(layout, sigma).sum()
    # + 0.0 gives the bits of a sum begun at +0.0: an all-zero sum is +0.0
    field_sum = np.add.accumulate(problem.j_fields * sigma)[-1] + 0.0
    return float(field_sum - problem.c_penalty * penalty)


def _members(layout: LhzLayout, tiles: np.ndarray) -> np.ndarray:
    """Tile slots as an object array, None in each fixed slot."""
    return np.where(tiles == layout.k_physical, None, tiles)


def decode_readout(
    physical: Sequence[int] | np.ndarray, layout: LhzLayout
) -> np.ndarray:
    """Logical configuration from a physical readout, canonical form.

    All tiles must check out (product +1); the first violated tile is
    reported otherwise. Logical spin 0 is fixed to +1 and the base-row bits
    (0, j) supply the rest, so the result is canonical up to the global
    flip the encoding cannot distinguish.
    """
    sigma = _checked_word(physical, layout)
    products = _tile_parity(layout, sigma)
    first = int(products.argmin())  # argmin returns the first -1
    if products[first] != 1:
        members = _members(layout, layout.tiles[first]).tolist()
        raise DecodeError(
            first,
            f"parity tile {first} violated (members "
            f"{tuple(members)}); readout is not a valid encoding",
        )
    n = layout.n_logical
    logical = np.empty(n, dtype=np.int8)
    logical[0] = 1
    logical[1:] = sigma[: n - 1]  # base-row bits (0, j) carry sigma_0 * sigma_j
    return logical


def penalty_too_weak(j_fields: np.ndarray | Sequence[float], c_penalty: float) -> bool:
    """True when C fails to dominate the largest field magnitude. A weak
    penalty lets field terms pay for a broken tile; treat as a warning."""
    j = np.asarray(j_fields, dtype=float)
    return bool(c_penalty <= np.max(np.abs(j))) if j.size else False


def layout_document(layout: LhzLayout, j_fields: np.ndarray) -> dict:
    """The layout as a document: its rows, "pairs", the (K, 2) array of each
    bit's logical pair (i, j), "tiles", the (T, 4) array of physical indices
    (north, east, south, west) with None in each fixed slot, and j_fields."""
    return {
        "n_logical": layout.n_logical,
        "k_physical": layout.k_physical,
        "rows": list(layout.rows),
        "row_members": [list(r) for r in row_members(layout)],
        "fixed_row": layout.fixed_row,
        "pairs": layout.pair_ends.T,
        "tiles": _members(layout, layout.tiles),
        "j_fields": np.asarray(j_fields, dtype=float),
    }


def layout_to_dict(layout: LhzLayout, j_fields: np.ndarray) -> dict:
    """JSON-ready layout_document: each of its arrays as nested lists."""
    doc = layout_document(layout, j_fields)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
