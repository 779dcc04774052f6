"""GF(256) arithmetic and a systematic MDS erasure code over byte symbols.

Codewords are formed across descriptions: a (k, total) code maps k data
bytes to `total` bytes such that any k of them recover the data. Data
symbols are values of the degree<k polynomial through points 0..k-1;
parity symbols are its values at points k..total-1, so the code is MDS
and systematic; field elements double as points, which caps `total` at
255. Evaluating the polynomial through `sources` at `targets` is linear:
one cached Lagrange coefficient matrix C per (sources, targets). Each
evaluation gathers the rows of the product table `MUL` that C names, so
one table pass per source row multiplies that row by all its target
coefficients at once. Encoding is one evaluation.

Recovery works on a stacked (rows, width) byte matrix with one point per
row: `pet_decode` stacks the received descriptions once and passes a
column slice per segment. `recover_rows` takes the k lowest points as
sources and makes one evaluation, at the missing data points and then at
the other rows' points; the latter are compared with those rows in one
vectorized test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_POLY = 0x11D  # AES-style primitive polynomial for GF(2^8)

EXP = [0] * 512
LOG = [0] * 256
_value = 1
for _power in range(255):
    EXP[_power] = _value
    LOG[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= _POLY
for _power in range(255, 512):
    EXP[_power] = EXP[_power - 255]

_EXP_NP = np.array(EXP, dtype=np.uint8)
_LOG_NP = np.array(LOG, dtype=np.int64)

# MUL[a, b] = a * b in GF(256); row and column 0 are the zero products.
MUL = _EXP_NP[_LOG_NP[:, None] + _LOG_NP[None, :]]
MUL[0, :] = MUL[:, 0] = 0


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


# One pass of the benchmark's K=32 PET workload evaluates about 2,000
# distinct (sources, targets) pairs: the cap keeps all of them, and bounds
# the cache of a caller that decodes ever new subsets.
@lru_cache(maxsize=4096)
def _coefficients(sources: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """Matrix C with value(targets[t]) = xor_u C[t, u] * value(sources[u]).

    C[t, u] = prod_{v != u} (x_t - v) / (u - v), summed in the log domain;
    no target may be a source, so every factor is nonzero.
    """
    points = np.array(sources)
    gaps = _LOG_NP[np.array(targets)[:, None] ^ points]  # log(x_t - u)
    spread = _LOG_NP[points[:, None] ^ points].sum(axis=1)  # LOG[0] = 0 on the diagonal
    matrix = _EXP_NP[(gaps.sum(axis=1, keepdims=True) - gaps - spread) % 255]
    matrix.setflags(write=False)
    return matrix


def _evaluate(sources, rows: np.ndarray, targets) -> np.ndarray:
    """Values at `targets` of the polynomial through (sources[u], rows[u])."""
    targets = tuple(targets)
    out = np.zeros((len(targets), rows.shape[1]), dtype=np.uint8)
    if not targets:
        return out
    # tables[u, t] = MUL[C[t, u]], (sources, targets, 256) bytes: one take per
    # source row multiplies it by all its target coefficients. Indices are
    # converted to intp once here, not by every take. They are bytes on a
    # 256-wide axis, so "clip" never clips; it spares the copy of `part`
    # that take makes in its default "raise" mode.
    tables = MUL[_coefficients(tuple(sources), targets).T]
    part = np.empty_like(out)
    for table, row in zip(tables, rows.astype(np.intp)):
        table.take(row, axis=1, out=part, mode="clip")
        out ^= part
    return out


def encode_block(data: np.ndarray, total: int) -> np.ndarray:
    """Extend a (k, width) uint8 block to (total, width) with parity rows."""
    data = np.asarray(data, dtype=np.uint8)
    k, _ = data.shape
    if not 1 <= k <= total <= 255:
        raise ValueError(f"need 1 <= k <= total <= 255, got k={k}, total={total}")
    return np.concatenate([data, _evaluate(range(k), data, range(k, total))])


def recover_rows(points, block: np.ndarray, k: int) -> np.ndarray:
    """Recover the (k, width) data rows from a (rows, width) uint8 block.

    Row i of `block` is the coded row at point `points[i]`. The caller
    passes at least k distinct points, all below 255. The k lowest points
    are the sources; the other rows are checked against the recovered data,
    and a mismatch raises ValueError naming the first inconsistent row in
    the order given.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    chosen, extra = order[:k], sorted(order[k:])
    sources = [points[i] for i in chosen]
    known = set(sources)
    missing = [point for point in range(k) if point not in known]
    rows = block[chosen]
    # one polynomial through the chosen rows gives both the missing data
    # rows and the values the extra rows must hold
    values = _evaluate(sources, rows, missing + [points[i] for i in extra])
    present = k - len(missing)
    data = np.empty_like(rows)
    data[sources[:present]] = rows[:present]
    data[missing] = values[: len(missing)]
    inconsistent = (values[len(missing) :] != block[extra]).any(axis=1)
    if inconsistent.any():
        point = points[extra[int(inconsistent.argmax())]]
        raise ValueError(f"parity row {point} is inconsistent with the recovered data")
    return data

