"""Scrambled Sobol' points in numpy, one coordinate-major tile at a time.

The generator reproduces ``scipy.stats.qmc.Sobol(d, scramble=True,
seed=s).random_base2(m)`` bit for bit without importing ``scipy.stats``:

- direction numbers of Joe and Kuo (SIAM J. Sci. Comput. 30, 2008), read
  from the table scipy installs (only the rows of the dimensions in use),
  extended by the Bratley-Fox recurrence to BITS = 30 bits;
- Matousek's linear matrix scramble with a digital shift (J. Complexity 14,
  1998), both drawn from ``np.random.default_rng(s)`` in scipy's order;
- point k of the sequence is the shift XOR the scrambled directions picked
  by the bits of gray(k) = k ^ (k >> 1).

Points are 30-bit integer words q; the scipy point is q * 2^-30 exactly.
The generator hands out centred words 4 (q - 2^29), as int32 bit patterns,
so that one multiply maps a word onto a point of a box centred at zero.  A
tile holds one row of words per coordinate, so that a consumer reads each
coordinate of its points as one contiguous vector.
"""

from __future__ import annotations

import importlib.util
import math
import os
import zipfile
from typing import Iterator, Optional, Tuple

import numpy as np

#: Bits per coordinate word, as in scipy's default Sobol' engine.
BITS = 30
#: A centred word 4 (q - 2^29) times CENTRED_UNIT is the point 2u - 1 of
#: [-1, 1), u = q 2^-30, exactly.
CENTRED_UNIT = 2.0 ** -(BITS + 1)
#: Dimensions of the direction-number table.
MAXDIM = 21201
#: Dimensions scrambled per random draw, so that the (dims, BITS, BITS)
#: scramble matrices stay a few MB for any dimension.
_SCRAMBLE_DIMS = 1024


def _table_path() -> str:
    # find_spec of a top-level package does not import it
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("scipy is needed for its Sobol' "
                                  "direction-number table")
    return os.path.join(spec.submodule_search_locations[0], "stats",
                        "_sobol_direction_numbers.npz")


def _leading_rows(member, rows: int,
                  columns: Optional[int] = None) -> np.ndarray:
    """The first ``rows`` rows of the .npy ``member``, a 1-d or F-ordered
    2-d array, and of a 2-d array its first ``columns`` columns (all when
    None), read column by column from its stream: the rest of each column
    is skipped and the stream is left after the last column read, so the
    whole array is never held and the later columns never decompressed."""
    version = np.lib.format.read_magic(member)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, fortran_order, dtype = read_header(member)
    if len(shape) > 1 and not fortran_order:
        raise ValueError("the direction-number table must be F-ordered")
    if columns is not None:
        shape = shape[:1] + (columns,)
    out = np.empty((math.prod(shape[1:]), rows), dtype=dtype)
    skip = (shape[0] - rows) * dtype.itemsize
    for k, column in enumerate(out):
        if k:
            member.seek(skip, os.SEEK_CUR)
        column[:] = np.frombuffer(member.read(rows * dtype.itemsize),
                                  dtype=dtype)
    return out.T.reshape((rows,) + shape[1:])


def _read_directions(dim: int) -> np.ndarray:
    """The (dim, BITS) unscrambled direction words of the first ``dim``
    coordinates; column j carries bit BITS - 1 - j."""
    with zipfile.ZipFile(_table_path()) as table:
        with table.open("poly.npy") as member:
            poly = _leading_rows(member, dim)
        degree = np.array([int(p).bit_length() - 1 for p in poly])
        # column m of vinit starts the polys of degree > m only
        with table.open("vinit.npy") as member:
            vinit = _leading_rows(member, dim, int(degree.max()))
    v = np.zeros((dim, BITS), dtype=np.int64)
    v[0] = 1
    for m in np.unique(degree[1:]):
        rows = np.flatnonzero(degree == m)
        p = poly[rows]
        g = v[rows]
        g[:, :m] = vinit[rows, :m]
        for j in range(m, BITS):
            new = g[:, j - m].copy()
            for k in range(m):
                taps = (p >> (m - 1 - k)) & 1
                new ^= taps * (g[:, j - k - 1] << (k + 1))
            g[:, j] = new
        v[rows] = g
    v <<= np.arange(BITS - 1, -1, -1)
    words = v.astype(np.uint32)
    words.flags.writeable = False
    return words


#: The directions of the most dimensions read so far: row k depends on row
#: k of the table only, so they serve every smaller dimension.
_DIRECTIONS = np.empty((0, BITS), dtype=np.uint32)


def _directions(dim: int) -> np.ndarray:
    """:func:`_read_directions` of ``dim``, read-only, as the leading rows
    of one cached table that grows to the largest ``dim`` asked."""
    global _DIRECTIONS
    if dim > len(_DIRECTIONS):
        _DIRECTIONS = _read_directions(dim)
    return _DIRECTIONS[:dim]


def _parity(words: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each uint32 word, by XOR folding (no
    ``np.bitwise_count``, which needs numpy 2.0)."""
    for shift in (16, 8, 4, 2, 1):
        words ^= words >> shift
    return words & 1


def scramble(dim: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """(shift, directions) of the scramble scipy draws for ``seed``.

    ``shift`` has one word per coordinate; ``directions`` is (dim, BITS),
    column j the scrambled direction of bit j of the Gray index.
    """
    if not 1 <= dim <= MAXDIM:
        raise ValueError(f"Sobol' dimension must be in 1..{MAXDIM}")
    rng = np.random.default_rng(seed)
    powers = np.left_shift(np.uint32(1), np.arange(BITS, dtype=np.uint32))
    shift = rng.integers(2, size=(dim, BITS), dtype=np.uint32) @ powers
    base = _directions(dim)
    msb_first = powers[::-1]
    directions = np.empty((dim, BITS), dtype=np.uint32)
    diagonal = np.eye(BITS, dtype=bool)
    for lo in range(0, dim, _SCRAMBLE_DIMS):
        hi = min(dim, lo + _SCRAMBLE_DIMS)
        ltm = np.tril(rng.integers(2, size=(hi - lo, BITS, BITS),
                                   dtype=np.uint32))
        ltm[:, diagonal] = 1
        rows = ltm @ msb_first              # (dims, BITS): row p as a word
        # bit BITS - 1 - p of direction j is the parity of row p & v_j
        bits = _parity(rows[:, None, :] & base[lo:hi, :, None])
        directions[lo:hi] = bits @ msb_first
    return shift, directions


def _gray_table(directions: np.ndarray, rows: int) -> np.ndarray:
    """(dim, rows) words: column r is the XOR of the directions picked by
    the bits of gray(r); ``rows`` is a power of two."""
    table = np.zeros((directions.shape[0], rows), dtype=np.uint32)
    half = 1
    for b in range(rows.bit_length() - 1):
        # gray(2^b + i) = 2^b | gray(2^b - 1 - i)
        np.bitwise_xor(table[:, half - 1::-1], directions[:, b, None],
                       out=table[:, half:2 * half])
        half *= 2
    return table


def tiles(dim: int, exponent: int, seed: int, tile: int
          ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The 2^exponent points of ``qmc.Sobol(dim, scramble=True,
    seed=seed).random_base2(exponent)`` in order, in tiles of at most
    ``tile`` points (a power of two), each as a pair (table, offset) of
    uint32 arrays of shapes (dim, rows) and (dim,).

    Column r of ``table ^ offset[:, None]``, read as int32, holds the
    centred words 4 (q - 2^29) of the tile's point r, one row per
    coordinate: the word q of a scipy point u = q 2^-30 is stored as
    (q ^ 2^29) << 2, whose int32 value is 4 (q - 2^29) (bit 29 becomes the
    sign bit).  So a consumer XORs only the coordinates and rows it reads.

    Point aT + r of tile a is table[:, r] ^ offset(a): for r < T = 2^t,
    gray(aT + r) = gray(aT) ^ gray(r), so one read-only table of T points
    serves every tile of the scramble and no scramble is held whole.
    """
    if not 0 <= exponent <= BITS:
        raise ValueError(f"at most 2^{BITS} Sobol' points per scramble")
    if tile < 1 or tile & (tile - 1):
        raise ValueError("the tile must be a power of two rows")
    shift, directions = scramble(dim, seed)
    # every word shifted by two bits, and the centring bit in the shift:
    # XOR commutes with both
    directions <<= 2
    centre = (shift ^ np.uint32(1 << (BITS - 1))) << 2
    rows = min(tile, 1 << exponent)
    table = _gray_table(directions, rows)
    table.flags.writeable = False
    for start in range(0, 1 << exponent, rows):
        offset = centre.copy()
        gray = start ^ (start >> 1)
        for b in range(gray.bit_length()):
            if gray >> b & 1:
                offset ^= directions[:, b]
        yield table, offset
