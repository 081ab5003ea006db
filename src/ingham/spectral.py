"""The spectral kernel: E, its determinant and the eigenvalues of E E^*.

For translates u_1..u_M and translation vectors v_k = 2*pi*n_k the matrix
E[j,k] = exp(2*pi*i*<u_j, n_k>) decides the two-sided estimate: (A2) holds
when E is invertible, and the optimal constants are the extreme eigenvalues
of E E^*.  `_phase_angle` is the only place an exact inner product becomes
an angle: `phase_columns` takes it from the integer rows (a, b) of
`LatticeSpec.form` (one denominator, the translates' one field Q(sqrt d)),
bit for bit alike with the oracle `phase` of `tests/gram_oracle.py`, which
takes it from a QuadNumber.  For points n, phase_columns forms
the exponents P = a.n and Q = b.n in one batched integer matrix product and
takes one np.exp; the integer arrays are int64 while every integer stays
below 2**53, where numpy's true division rounds as Python's does, and
Python ints past that, through the same expressions (`_int_array`).
`spectra` is the only place determinants and eigenvalues of E E^* are
taken.  It takes a point list and
an (N, m) index array into it (`config_index` builds both from a
configuration list) and walks the array in chunks of CHUNK_ROWS
configurations, so its memory does not grow with the survey.

Translating a configuration, or applying one of the tiling's certified
symmetries of the square (`symmetries`), changes neither |det E| nor the
spectrum of E E^*, nor edge connectivity.  `classes`, the only translation
canonicalisation, maps configurations to canonical representatives under
translation and a subgroup of D4: every kernel caller (`ingham_constants`,
the surveys of `search`) passes the tiling's `symmetries` and runs the kernel
on those alone, so a configuration takes its class representative's bits
whatever its batch, order or chunk; `geometry.polyominoes` and
`search.translation_classes` pass the identity alone, `D4[:1]`.  `classes`
takes one of two paths by the batch's size alone.  One row, the single
configuration of `ingham_constants` (and so of `check_a2`,
`gram.frame_bound_check` and the CLI's constants and verify), goes through
`_one_class` on Python tuples: the batch path's fixed cost of numpy
calls, about 0.1 ms, was most of that call.  Every larger batch, each
survey's included, holds configurations by columns, as (m, rows) arrays read from the input
rows as they are, and their symmetry images as (m, G, rows), and sorts each
image's cells in `_sort_cells`: a large batch of at most six cells by
Batcher's odd-even merge network on m wires (`_network`), a fixed sequence
of column-wise minimum/maximum, and a small one, or one of more cells, by
np.sort.  The network needs NETWORK_ROWS_PER_EXCHANGE = 64 rows per
compare-exchange, where it overtook np.sort at 43 to 96 for m = 2 to 6 (a
grid survey has thousands); past six cells it gained nothing on real
batches.  Each integer array of that path is stored in the narrowest of
int16, int32 and int64 that its bound allows (`_int_type`, from the bound
alone): the point codes and their differences, the translation key, by
twice the code bound; the representatives' coordinates by the points' span;
the image cell codes by radix = (box side + 1)**2; each image's word by
radix**m, one int16 or int32 word below 2**31, else int64 words.  `_lex_ids`
folds its key in int32 when the product of its bases is below 2**31, and
`_ranks` takes any of these dtypes.  On a grid survey every one of them is
int16 or int32, which halves the transient memory of the reduction.  Both
paths give the same canonical configuration, bit for bit.
`a2_holds` is
the only place the (A2) verdict is decided: |det E| > A2_DET_TOL in floats, a
heuristic.  `a2_stable` is the only place its stability is judged: a batch is
stable when no |det E| lies between the ends of A2_SWEEP, so no threshold
there moves a verdict; the report gates every grid survey on it.
`_two_square_det` is the only place the closed-form determinant of the
two-square tiling is written, from integer sides over one denominator, on
(re, im) pairs of floats or float arrays in CPython's complex rounding
(`_product`, which `gram` takes too): `two_square_delta` evaluates it for
one pair of sides, `two_square_deltas` for arrays of them, bit for bit
alike.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import NotHermitianError, SizeMismatchError
from .lattice import LatticeSpec, TranslationConfig, _two_square_fractions
from .qfield import Rational

# (A2) verdict: E counts as invertible when |det E| exceeds this.  An absolute
# determinant threshold separates the structurally singular configurations
# from the invertible ones.  Measured over the grid surveys of the report and
# of the survey benchmark (snub square to grid 6, truncated square and
# trihexagonal to grid 4, fifteen two-square side pairs up to 7 at grid 4),
# the largest failing float |det| is 2.5e-14 and the smallest passing one
# 8.5e-4, so there the verdict is stable for thresholds anywhere in
# [1e-12, 1e-4].  At M = 12 it is not: over 50,000 random truncated
# trihexagonal configurations in grid 5 the float |det| of singular E reaches
# 4.8e-10, inside that band (every such case checked is exactly singular in
# 60-digit arithmetic), so the threshold clears the failing end by only 20x.
# A relative eigenvalue-gap test is worse: several invertible two-square
# configurations have kappa1/kappa2 ~ 1e-9.
A2_DET_TOL = 1e-8

A2_SWEEP = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)

TWO_PI = 2.0 * math.pi

# Configurations per chunk of `spectra` and `geometry.connected_rows`.  A
# chunk holds its E's, their conjugates and E E^* (three complex M x M
# matrices, 16 B an entry) plus the eigensolver's workspace: at M = 12 about
# 9 KB per configuration, so 20 MB per chunk whatever the survey's size.
CHUNK_ROWS = 2048

# The symmetries of the square: the eight signed permutation matrices (D4),
# the identity first.
Symmetry = tuple[tuple[int, int], tuple[int, int]]
D4: tuple[Symmetry, ...] = (
    ((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((1, 0), (0, -1)), ((-1, 0), (0, 1)),
    ((0, 1), (1, 0)), ((0, -1), (-1, 0)), ((0, 1), (-1, 0)), ((0, -1), (1, 0)),
)

# Configuration coordinates `classes` accepts lie in (-COORD_LIMIT,
# COORD_LIMIT), so its int64 offsets, moved cells and shifted key columns stay
# below 2**63.
COORD_LIMIT = 2**61

# `_lex_ids` keeps its int64 mixed-radix keys at or below this, and `classes`
# its point codes and int64 image words.
KEY_LIMIT = 2**62

# `_ranks` counts a column whose span (max - min + 1) is at most this many
# times its length, and argsorts any other.  The count's int32 table takes 4 B
# per value of the span (its boolean marks, 1 B, are freed before it is made)
# beside 20 B per entry (the shifted column, its int32 ranks, their intp copy
# and the distinct values), against 41 B per entry for the argsort
# (tracemalloc peaks of random int64 columns of 200,000 entries, numpy 2.4):
# 4 * 5 + 20 = 40 keeps the count's peak no higher than the argsort's even
# when every entry is distinct.
RANK_SPAN_PER_KEY = 5


# `_sort_cells` sorts a batch of m <= 6 cells by the network `_network(m)` when
# it has at least this many rows (configurations, or symmetry images of them)
# per compare-exchange, else by ndarray.sort.  A compare-exchange costs three
# numpy calls, about 1.5 us on a few rows; ndarray.sort along the cells costs
# per row.  Timed on random (m, rows) int64 arrays (2 vCPUs, numpy 2.4), the
# network first won at 96, 192, 256, 384 and 768 rows for m = 2 to 6 (1, 3,
# 5, 9 and 12 compare-exchanges), 43 to 96 rows per compare-exchange; at
# 8,192 rows it took 16 against 302 us at m = 2 and 54 against 318 at m = 4.
# A grid survey's image chunks (up to G * CHUNK_ROWS rows) lie far above the
# threshold, small lists of configurations below it.  Past six cells the
# network gains nothing on real batches, whose codes ndarray.sort orders
# faster than random ones: `classes` took 4.3 against 3.8 ms on truncated
# trihexagonal grid 3 (m = 12), 2.8 against 2.8 ms on the fixed 8-ominoes
# and 206 against 182 ms on the 11-ominoes under that tiling's group (minima
# of 5 to 9 runs).
NETWORK_ROWS_PER_EXCHANGE = 64


@dataclass(frozen=True)
class SpectralResult:
    """Spectral data of E E^* plus the volume-normalized constants."""

    kappa1: float
    kappa2: float
    det_abs: float
    satisfies_a2: bool
    c1_full: float
    c2_full: float


def _int_array(values, bound: int) -> np.ndarray:
    """Integers as int64 when bound, at least every |integer| computed from
    them, lies below 2**53, where numpy's true division of int64 rounds
    correctly as Python's does; else as Python ints in an object array.
    Either goes through the same expressions with the same bits."""
    return np.array(values, dtype=np.int64 if bound < 2**53 else object)


def _int_type(bound: int) -> type:
    """The narrowest of int16, int32 and int64 that holds every integer of
    absolute value below bound (at most 2**63), from the bound alone, as
    `_int_array` picks int64 or Python ints."""
    return np.int16 if bound <= 2**15 else np.int32 if bound <= 2**31 else np.int64


# CPython's complex arithmetic on (re, im) pairs of floats or float arrays.
# numpy's complex multiply may use fused multiply-add and its division another
# formula, so neither keeps the bits of the scalar oracles.  A float y enters
# as (y, 0.0), as Python 3.10-3.13 convert it before they multiply or divide;
# the mixed-mode arithmetic of Python 3.14 does not, and there these pairs
# would no longer have the scalar bits.


def _product(x, y):
    """x * y, as CPython's _Py_c_prod rounds it."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _complex(x) -> np.ndarray:
    """The complex array of an (re, im) pair of one shape, with its bits."""
    z = np.array(x[0], dtype=complex)
    z.imag = x[1]
    return z


def _phase_angle(p, q, r: int, d: int):
    """2*pi*(p + q*sqrt d)/r with the rational part reduced mod 1 exactly,
    for integers p and q or integer arrays of them (`_int_array`).

    Integer true division is correctly rounded, so the float depends only
    on the rationals p/r and q/r, not on how far the fraction is reduced.
    At q = 0 the radical part is 0.0, which leaves the sum's bits alone."""
    return TWO_PI * (p % r / r + (q / r) * math.sqrt(d))


def phase_columns(form: tuple, points: Sequence[tuple[int, int]]) -> np.ndarray:
    """W[j, p] = exp(2*pi*i*<u_j, points[p]>) for the rows u_j of a
    `LatticeSpec.form`, with the bits of the oracle
    `phase(vec_dot(u_j, points[p]))` of `tests/gram_oracle.py`:
    <u, n> = (P + Q*sqrt(d))/den, where P = a.n and Q = b.n are integer
    matrix products of the rows (a, b) and the points, int64 or Python ints
    by their bound (`_int_array`).  np.exp(1j*x) has the bits of
    cmath.exp(1j*x)."""
    den, d, rows = form
    width = max(map(abs, chain.from_iterable(chain.from_iterable(rows))))
    reach = max(map(abs, chain.from_iterable(points)), default=0)
    bound = max(den, 2 * max(width, 1) * max(reach, 1))
    n = _int_array(points, bound).reshape(-1, 2).T
    p, q = _int_array(rows, bound).transpose(2, 0, 1) @ n
    angle = _phase_angle(p, q, den, d)
    return np.exp(1j * np.asarray(angle, dtype=float))


def _check_size(spec: LatticeSpec, m: int) -> None:
    if m != spec.m:
        raise SizeMismatchError(
            f"config has {m} vectors, lattice has {spec.m} translates"
        )


def build_e(spec: LatticeSpec, config: TranslationConfig) -> np.ndarray:
    """The M x M matrix E[j,k] = exp(2*pi*i*<u_j, n_k>)."""
    _check_size(spec, config.m)
    return phase_columns(spec.form, config.ns)


def config_index(
    configs: Sequence[Sequence[tuple[int, int]]],
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Sorted distinct points of equal-size configurations of distinct cells
    and the (N, m) index array into them, the form `spectra` and `classes` take."""
    sizes = {len(cfg) for cfg in configs}
    if len(sizes) > 1:
        raise ValueError("configurations must all have the same number of cells")
    if 0 in sizes:
        raise ValueError("a configuration needs at least one cell")
    if any(len(set(cfg)) != len(cfg) for cfg in configs):
        raise ValueError("translation vectors must be pairwise distinct")
    points = sorted({n for cfg in configs for n in cfg})
    index = {n: i for i, n in enumerate(points)}
    rows = [[index[n] for n in cfg] for cfg in configs]
    return points, np.array(rows, dtype=np.intp).reshape(len(rows), len(rows[0]) if rows else 0)


def chunks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most CHUNK_ROWS rows covering range(n)."""
    return (slice(k, k + CHUNK_ROWS) for k in range(0, n, CHUNK_ROWS))


@lru_cache(maxsize=32)
def symmetries(spec: LatticeSpec) -> tuple[Symmetry, ...]:
    """The elements A of D4 that are spectral symmetries of the tiling, in D4's order.

    A is certified when a permutation sigma, one sign s and one vector c
    give A^T u_j = s*u_sigma(j) + c (mod Z^2) for every j: with sigma(0) = t,
    c = A^T u_0 - s*u_t and each A^T u_j - A^T u_0 is some s*(u_i - u_t) mod
    Z^2, decided on the integer rows of `LatticeSpec.form` (residues:
    numerators mod den, radical parts kept).  Those M residues are distinct,
    as the translates are mod Z^2, so sigma is then a permutation.

    Proof that such an A keeps the spectrum: with e(t) = exp(2*pi*i*t),

        E(A n)[j,k] = e(<u_j, A n_k>) = e(<A^T u_j, n_k>)
                    = e(s <u_sigma(j), n_k>) e(<c, n_k>),

    since the integer vector A^T u_j - s u_sigma(j) - c contributes an integer
    to the exponent.  So E(A n) = P E(n) D for s = 1 and P conj(E(n)) D for
    s = -1, with P the permutation matrix of sigma and D = diag(e(<c, n_k>))
    unitary.  Then |det E(A n)| = |det E(n)|, and E(A n) E(A n)^* equals
    P (E E^*) P^T or P conj(E E^*) P^T, which has the spectrum of the
    Hermitian E E^*.  Likewise a translation t gives E(n + t) = D' E(n) with
    D' = diag(e(<u_j, t>)), and reordering the n_k permutes the columns of E.
    D4 and translations map the unit steps (+-1, 0), (0, +-1) to unit steps,
    so they keep edge (4-neighbour) adjacency too.  The certified elements
    form a group, since B^T maps Z^2 to Z^2: A and B certified with (sigma,
    s, c) and (tau, t, d) certify AB with (tau sigma, s t, s d + B^T c).
    -I (sigma the identity, s = -1, c = 0) is always in it.
    """
    den, _, rows = spec.form

    def image(a, u) -> tuple:  # A^T u: its k-th coordinate is A[0][k] u_0 + A[1][k] u_1
        return tuple(tuple(a[0][k] * x + a[1][k] * y for x, y in zip(*u)) for k in range(2))

    def residue(u, v) -> tuple:  # of u - v mod Z^2
        return tuple(((p - r) % den, q - s) for (p, q), (r, s) in zip(u, v))

    def certified(a) -> bool:
        moved = [image(a, u) for u in rows]
        keys = {residue(u, moved[0]) for u in moved}
        for s in (1, -1):
            signed = [image(((s, 0), (0, s)), u) for u in rows]
            if any(keys <= {residue(u, t) for u in signed} for t in signed):
                return True
        return False

    return tuple(a for a in D4 if certified(a))


def _ranks(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of an int16, int32 or int64 column and each
    entry's index among them: np.unique(column, return_inverse=True), the
    values in the column's dtype and the ranks intp.

    A dense column, of span at most RANK_SPAN_PER_KEY times its length,
    is counted: a boolean table over the span marks the values present, the
    positions of the marks are the distinct values in order, and an int32
    table over the span, written at those positions only, numbers them
    (exact below 2**31 entries, as `_lex_ids` is).  The column is shifted
    to minimum 0 in intp, which holds any span and is the index type the
    tables are read with.  Any other is ranked through one stable argsort,
    which touches fewer numpy kernels than np.unique (resident memory)."""
    n = len(column)
    lo, hi = (int(column.min()), int(column.max())) if n else (0, 0)
    if hi - lo < RANK_SPAN_PER_KEY * n:
        shifted = np.subtract(column, lo, dtype=np.intp)
        present = np.zeros(hi - lo + 1, dtype=bool)
        present[shifted] = True
        uniq = np.flatnonzero(present)
        del present  # before the int32 table, as RANK_SPAN_PER_KEY assumes
        table = np.empty(hi - lo + 1, dtype=np.int32)
        table[uniq] = np.arange(len(uniq), dtype=np.int32)
        rank = table[shifted]
        del table, shifted  # before the intp copy, as RANK_SPAN_PER_KEY assumes
        uniq += lo
        return uniq.astype(column.dtype, copy=False), rank.astype(np.intp)
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(len(ordered), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return ordered[new], rank


def _lex_ids(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the rows of an (n, k) int16, int32 or int64 array,
    numbered in the rows' lexicographic order, and the index of one row of
    each id.

    Exact for columns whose span (max - min) the array's dtype holds and n
    below 2**31: each column is shifted to minimum 0 in that dtype, and the
    columns are folded into one key in mixed radix.  The key is int32 when
    the product of the bases (span + 1) is below 2**31, so it stays below
    2**31 with no rank taken; else it is int64, kept at most KEY_LIMIT:
    before a column would pass it, the key, and if need be that column, is
    replaced by its rank (`_ranks`), which keeps the order; so no key
    collides or wraps.
    """
    n, k = cols.shape
    if n <= 1:  # no two rows to tell apart
        return np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    cols = np.array(cols, order="F")  # a copy by columns, whose reductions are fast
    cols -= cols.min(axis=0)
    bases = [top + 1 for top in cols.max(axis=0).tolist()]
    key = np.zeros(n, dtype=np.int32 if math.prod(bases) < 2**31 else np.int64)
    bound = 1
    for c in range(k):
        if bound * bases[c] > KEY_LIMIT:
            uniq, key = _ranks(key)
            bound = len(uniq)
        if bound * bases[c] > KEY_LIMIT:
            uniq, cols[:, c] = _ranks(cols[:, c])
            bases[c] = len(uniq)
        key *= bases[c]
        key += cols[:, c]
        bound *= bases[c]
    uniq, ids = _ranks(key)
    first = np.empty(len(uniq), dtype=np.intp)
    first[ids] = np.arange(n)
    return ids, first


@lru_cache(maxsize=None)
def _network(m: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sorting network on m wires (Batcher, AFIPS
    SJCC 1968; Knuth, TAOCP 3, 5.3.4): the compare-exchanges (a, b), a < b,
    of the network on the next power of two, without those that touch a wire
    past m.  Those wires would carry +infinity, which no compare-exchange
    moves, so what is left sorts m wires."""
    n = 1 << (m - 1).bit_length()
    pairs, p = [], 1
    while p < n:
        k = p
        while k:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, j + min(k, n - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < m:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _sort_cells(cells: np.ndarray) -> None:
    """Sort an (m, ...) integer array along its first axis, in place: the
    cells of each configuration, stored by columns.

    A batch of at most six cells with at least NETWORK_ROWS_PER_EXCHANGE rows
    per compare-exchange of `_network(m)` goes through the network, three
    elementwise numpy calls per compare-exchange; any other through
    ndarray.sort."""
    m = len(cells)
    if m > 6 or cells[0].size < NETWORK_ROWS_PER_EXCHANGE * len(_network(m)):
        cells.sort(axis=0)
        return
    wires, spare = list(cells), np.empty_like(cells[0])
    for a, b in _network(m):
        np.minimum(wires[a], wires[b], out=spare)
        np.maximum(wires[a], wires[b], out=wires[b])
        np.copyto(wires[a], spare)


@dataclass(frozen=True, eq=False)
class Classes:
    """Configurations grouped into classes under translation and a group of
    symmetries (`classes`): each class's canonical configuration, as sorted
    distinct points and a (K, m) index array into them, numbered in
    lexicographic order, and the class of each input row."""

    points: list[tuple[int, int]]
    idx: np.ndarray  # (K, m) canonical configurations, cells sorted
    of: np.ndarray  # (N,) class of each input row


@lru_cache(maxsize=None)
def _picks(group: tuple[Symmetry, ...]) -> tuple[tuple[int, int], ...]:
    """Where each A in `group` takes the coordinates of A n among (x, w - x,
    y, h - y) for cells n at minimum 0: a coordinate that A negates is moved
    to minimum 0 by the box width w or height h."""
    return tuple(tuple(2 * (s != 0) + (r + s < 0) for r, s in a) for a in group)


def _one_class(group: Sequence[Symmetry], cells: list[tuple[int, int]]) -> Classes:
    """`classes` of the one configuration `cells`, on Python tuples: with the
    cells at minimum 0 in a box of width w and height h, each A n at minimum
    0 takes its coordinates from (x, w - x, y, h - y) (`_picks`), and the
    least of the sorted images is the canonical configuration."""
    xs, ys = zip(*cells)
    x0, y0 = min(xs), min(ys)
    x = [v - x0 for v in xs]
    y = [v - y0 for v in ys]
    w, h = max(x), max(y)
    coords = (x, [w - v for v in x], y, [h - v for v in y])
    best = min(sorted(zip(coords[i], coords[j])) for i, j in _picks(tuple(group)))
    rank = {cell: k for k, cell in enumerate(dict.fromkeys(best))}  # best is sorted
    return Classes(
        list(rank), np.array([[rank[cell] for cell in best]], dtype=np.intp),
        np.zeros(1, dtype=np.intp),
    )


def classes(
    group: Sequence[Symmetry], points: Sequence[tuple[int, int]], idx: np.ndarray
) -> Classes:
    """The classes of the configurations points[idx[i]] under translation and
    `group`, a subgroup of D4.  Under a tiling's `symmetries(spec)` each class
    has one value of |det E|, of the spectrum of E E^* and of edge
    connectivity; under `D4[:1]`, the identity alone, the classes are the
    translation classes.

    A class's canonical configuration is the lexicographically least, over
    the A in `group`, of A n translated to minimum 0 with its cells sorted
    (compared as the sequence x_1, y_1, x_2, y_2, ...).  It depends on the
    class alone, not on the batch.  Translation classes come first: a row's
    offsets from its first cell fix it up to translation, so translates
    listed with their cells in the same order share the key.  A grid
    survey's rows all increase over sorted points, so there every translate
    does; rows in other orders (a polyomino list's) may split a translation
    class, and the image stage, which sorts every image's cells, merges the
    parts, so the classes do not depend on the order of a row's cells.
    With the points moved to minimum 0 and spans sx, sy, the code
    x*(2*sy + 1) + y of a point shifts by the same amount for every cell
    under a translation, and a difference of codes fixes the offset
    (dx, dy), as |dy| <= sy; so the m - 1 code differences are the key when
    the codes stay below KEY_LIMIT, and the 2(m - 1) coordinate offsets
    otherwise.  The codes (or coordinates) lie in [0, bound), bound =
    (sx + 1)(2*sy + 1) (or max(sx, sy) + 1), so the key lies in (-bound,
    bound), and `_lex_ids` shifts it to [0, 2*bound - 1) in its own dtype:
    codes and key are stored in `_int_type(2 * bound)`, int16 while bound is
    at most 2**14 (every grid survey's up to a grid of 89) and int32 up to
    2**30.  The group then acts on one configuration per translation class.

    A batch of one row takes `_one_class`, which builds that configuration's
    canonical form on Python tuples: the path below makes a few dozen numpy
    calls, about 0.1 ms whatever the batch's size, which was most of an
    `ingham_constants` call.  The choice reads the batch's size alone, and
    both paths give the same points, idx and of, dtypes included, and
    refuse the same coordinates.  Any larger batch takes the path below.

    Rows are held by columns: the cells of the n rows as idx.T, an (m, n)
    array read as it is (C-contiguous for `search.combination_table`), and
    the images of the translation classes' representatives as (m, G, rows)
    per chunk, each sorted over its first axis by `_sort_cells`: by a
    compare-exchange network when a batch of at most six cells has at least
    NETWORK_ROWS_PER_EXCHANGE rows per compare-exchange (the measured
    crossover), else by np.sort.  The representatives' coordinates, at most
    max(sx, sy), are stored in `_int_type(max(sx, sy) + 1)`.  Each image
    cell gets one code x*base + y, base = box side + 1, below radix =
    base**2 and stored in `_int_type(radix)`, int16 up to base 181; codes
    order as the cells (x, y) do, so sorting a row's codes, in that dtype,
    sorts its cells.  Folding the m sorted codes in radix `radix` by Horner's
    rule (column multiply-adds) keeps the order of the sequences.  While
    radix**m is below 2**31 (base up to 46340, 215, 35, 14, 8 and 5 for
    m = 1 to 6, every grid survey's m = 4 up to a grid of 13) all m codes
    make one word of `_int_type(radix**m)`, int16 or int32; past it, as many
    codes as fit at most KEY_LIMIT make each int64 word.  The words compare
    lexicographically as the images do, and the least words, taken over the
    G images column by column (the word of an image no longer tied is
    masked by its dtype's maximum, above every word), are the class's key.
    A box too wide for one code per cell (base**2 past KEY_LIMIT) has its
    coordinates replaced by their ranks among all the image coordinates
    first, which keeps every comparison (exact for fewer than 2**31
    distinct coordinates).  All keys are exact (`_lex_ids`), and the
    representatives are decoded from their keys.  No dtype above reaches
    the result: the points are Python ints and idx and of intp.
    """
    if not all(-COORD_LIMIT < c < COORD_LIMIT for p in points for c in p):
        raise ValueError(f"configuration coordinates must lie in (-{COORD_LIMIT}, {COORD_LIMIT})")
    n, m = idx.shape
    if n == 1:
        return _one_class(group, [points[k] for k in idx[0].tolist()])
    pts = np.array(points, dtype=np.int64).reshape(-1, 2)
    if len(pts):
        pts = pts - pts.min(axis=0)
    sx, sy = pts.max(axis=0, initial=0).tolist()
    # one code per point while the codes fit a key column, else both coordinates
    # (half the gather of the coordinate offsets: on a grid survey the class
    # reduction takes about a quarter less time and a third less memory); the
    # codes lie in [0, bound), their differences, the key, in (-bound, bound),
    # which `_lex_ids` shifts to [0, 2 * bound - 1) in the key's dtype
    if (sx + 1) * (2 * sy + 1) <= KEY_LIMIT:
        codes, bound = pts[:, 0] * (2 * sy + 1) + pts[:, 1], (sx + 1) * (2 * sy + 1)
    else:
        codes, bound = pts, max(sx, sy) + 1
    key = codes.astype(_int_type(2 * bound))[idx.T]  # (m, n): the rows' point codes by columns
    key = (key[1:] - key[0]).swapaxes(0, 1).reshape(n, (m - 1) * codes.ndim)
    translation_class, first = _lex_ids(key)
    del key  # before the image work
    # one configuration per translation class, at minimum 0, by columns,
    # gathered by chunks, so no index array of them all is held
    pts = pts.astype(_int_type(max(sx, sy) + 1))
    x = np.empty((m, len(first)), dtype=pts.dtype)
    y = np.empty_like(x)
    for part in chunks(len(first)):
        reps = idx[first[part]].T
        x[:, part], y[:, part] = pts[reps, 0], pts[reps, 1]
    x -= x.min(axis=0)
    y -= y.min(axis=0)
    w, h = x.max(axis=0), y.max(axis=0)
    base, values = max(int(w.max(initial=0)), int(h.max(initial=0))) + 1, None
    if base * base > KEY_LIMIT:
        values = np.unique(np.concatenate([x, y, w - x, h - y], axis=None))
        base = len(values)
    radix = base * base
    code_type = _int_type(radix)  # of the image cell codes, below radix
    word_type = _int_type(radix**m)  # of the image words: one word per image below 2**31
    per_word = m if word_type != np.int64 else max(k for k in range(1, m + 1) if radix**k <= KEY_LIMIT)
    words = [(lo, min(lo + per_word, m)) for lo in range(0, m, per_word)]
    pick = np.array(_picks(tuple(group)))
    keys = np.empty((len(words), len(first)), dtype=word_type)
    for part in chunks(len(first)):
        cx, cy = x[:, part], y[:, part]
        coords = np.stack([cx, w[part] - cx, cy, h[part] - cy], axis=1)  # (m, 4, rows)
        if values is not None:
            coords = np.searchsorted(values, coords)
        coords = coords.astype(code_type, copy=False)
        code = coords[:, pick[:, 0]]  # (m, G, rows) cell codes of A n for every A at once
        code *= base
        code += coords[:, pick[:, 1]]
        _sort_cells(code)
        # the lexicographic least image: the least first word, then the
        # least next word among the images tied so far
        for k, (lo, hi) in enumerate(words):
            word = code[lo].astype(word_type)  # of codes lo..hi - 1, by Horner's rule
            for c in range(lo + 1, hi):
                word *= radix
                word += code[c]
            if k:
                word[~tie] = np.iinfo(word_type).max
            keys[k, part] = least = word.min(axis=0)
            if hi < m:  # a next word: keep the images tied with the least so far
                tie = word == least if k == 0 else tie & (word == least)
    klass, rep = _lex_ids(keys.T)
    cell_codes = np.concatenate(
        [keys[k, rep, None] // radix ** np.arange(hi - lo - 1, -1, -1) % radix
         for k, (lo, hi) in enumerate(words)], axis=1
    )
    uniq, cell = _ranks(cell_codes.ravel())
    cx, cy = uniq // base, uniq % base
    if values is not None:
        cx, cy = values[cx], values[cy]
    canon = list(zip(cx.tolist(), cy.tolist()))
    return Classes(canon, cell.reshape(-1, m), klass[translation_class])


def spectra(
    spec: LatticeSpec, points: Sequence[tuple[int, int]], idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|det E|, kappa1 and kappa2 of the configurations points[idx[i]].

    kappa1 and kappa2 are the extreme eigenvalues of E E^*, kappa1 clamped
    at 0.  Phases are computed once per point; the stacked E's of one chunk
    of CHUNK_ROWS configurations at a time go to the batched LAPACK
    determinant and Hermitian eigensolver, which treat each matrix alone, so
    the bits of a configuration do not depend on its batch or chunk.  For a
    configuration list, `spectra(spec, *config_index(configs))`.
    """
    _check_size(spec, idx.shape[-1])
    w = phase_columns(spec.form, points)
    det = np.empty(len(idx))
    lo = np.empty(len(idx))
    hi = np.empty(len(idx))
    for rows in chunks(len(idx)):
        es = w[:, idx[rows]].transpose(1, 0, 2)  # (chunk, M, m)
        hs = es @ es.conj().transpose(0, 2, 1)
        det[rows] = np.abs(np.linalg.det(es))
        eigs = np.linalg.eigvalsh(hs)
        lo[rows] = eigs[:, 0]
        hi[rows] = eigs[:, -1]
    return det, np.where(0.0 > lo, 0.0, lo), hi


def a2_holds(det_abs):
    """The (A2) verdict |det E| > A2_DET_TOL, elementwise for a batch; the only
    place the rule is written."""
    return det_abs > A2_DET_TOL


def a2_stable(det_abs) -> bool:
    """Whether no |det E| lies in (min(A2_SWEEP), max(A2_SWEEP)]: the thresholds
    nest, so exactly when every one gives the same failing count (NaN fails at all)."""
    return not np.any((det_abs > min(A2_SWEEP)) & (det_abs <= max(A2_SWEEP)))


def hermitian_extremes(h: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of a Hermitian matrix (full symmetric eigensolve).

    A matrix whose asymmetry exceeds 1e-10 is refused.  Any other goes to
    eigvalsh as it is, which solves the Hermitian matrix of its lower
    triangle and the real part of its diagonal; for the exactly Hermitian
    matrices `gram._assemble` builds, that is h itself."""
    h = np.asarray(h, dtype=complex)
    asym = np.max(np.abs(h - h.conj().T))
    if asym > 1e-10:
        raise NotHermitianError(f"asymmetry {asym:.2e} exceeds 1e-10")
    w = np.linalg.eigvalsh(h)
    return float(w[0]), float(w[-1])


def check_a2(spec: LatticeSpec, config: TranslationConfig) -> bool:
    """Whether E is invertible, by `a2_holds`."""
    return ingham_constants(spec, config).satisfies_a2


def ingham_constants(spec: LatticeSpec, config: TranslationConfig) -> SpectralResult:
    """Optimal constants: kappas are the extreme eigenvalues of E E^*.

    c1_full/c2_full carry the (2*pi)^2 / |det L| volume factor, turning the
    kappas into the frame bounds of the exponentials over the domain.
    """
    cls = classes(symmetries(spec), *config_index([config.ns]))
    dets, k1s, k2s = spectra(spec, cls.points, cls.idx)
    k1 = float(k1s[0])
    k2 = float(k2s[0])
    scale = TWO_PI**2 / spec.det_l()
    return SpectralResult(
        kappa1=k1,
        kappa2=k2,
        det_abs=float(dets[0]),
        satisfies_a2=bool(a2_holds(dets[0])),
        c1_full=k1 * scale,
        c2_full=k2 * scale,
    )


# -- two-square (Pythagorean) tiling ----------------------------------------


def _two_square_det(p, P, n):
    """The one closed form of det E for the canonical 2x2-block configuration
    of the two-square tiling with sides r = p/n and R = P/n, for integers p,
    P and n (or int64 arrays of them), as an (re, im) pair.  r*R, r*r and
    s = R^2 + r^2 are each one true division of an integer by n*n, which is
    correctly rounded and so depends on the rational alone, as
    float(Fraction) does.

    With C = exp(2*pi*i*A*cos(alpha)) and D = exp(2*pi*i*A*sin(alpha)), where
    A*cos(alpha) = rR/(sqrt2 s) and A*sin(alpha) = r^2/(sqrt2 s), the
    determinant factors as (C^2-1)(D^2-1)(C^2 D^2 - 4CD + C^2 + D^2 + 1).
    It is evaluated in CPython's complex rounding (`_product`), term by term
    in the order the Python expression takes them, an integer k entering as
    (k, 0.0); np.exp(1j*x) has the bits of cmath.exp(1j*x), which Python
    floats take, so the scalar form stays in Python floats."""
    n2 = n * n
    rR, rr, s = p * P / n2, p * p / n2, (P * P + p * p) / n2
    root2, exp = math.sqrt(2.0), cmath.exp if isinstance(s, float) else np.exp
    c, d = ((z.real, z.imag) for z in (exp(1j * (TWO_PI * (x / (root2 * s)))) for x in (rR, rr)))
    cc, dd = _product(c, c), _product(d, d)
    terms = (_product(_product(cc, d), d), _product(_product((4.0, 0.0), c), d), cc, dd, (1.0, 0.0))
    last = tuple(a - b + e + f + g for a, b, e, f, g in zip(*terms))
    return _product(_product((cc[0] - 1.0, cc[1] - 0.0), (dd[0] - 1.0, dd[1] - 0.0)), last)


def two_square_delta(r: Rational, R: Rational) -> complex:
    """Closed-form det E for the canonical 2x2-block configuration
    (`_two_square_det`); the modulus agrees with |det(build_e(...))| to
    machine precision."""
    r, R = _two_square_fractions(r, R)
    n = r.denominator * R.denominator
    re, im = _two_square_det(r.numerator * R.denominator, R.numerator * r.denominator, n)
    return complex(re, im)


def two_square_deltas(p, P, n) -> np.ndarray:
    """two_square_delta(p/n, P/n) elementwise, with its bits, for integer
    arrays (or integers) 0 < p < P < 2**26 and 0 < n < 2**26.

    Every integer formed from them is then below 2**53, so numpy's true
    division of int64 gives the correctly rounded quotients that the true
    division of Python ints gives the scalar form.  Other sides, Fractions and
    floats among them, are refused (ValueError)."""
    sides = np.broadcast_arrays(*map(np.asarray, (p, P, n)))
    if all(v.dtype.kind in "iu" for v in sides):
        p, P, n = (v.astype(np.int64) for v in sides)
        if np.all((0 < p) & (p < P) & (P < 2**26) & (0 < n) & (n < 2**26)):
            return _complex(_two_square_det(p, P, n))
    raise ValueError("two-square sides need integers 0 < p < P < 2**26 over 0 < n < 2**26")

