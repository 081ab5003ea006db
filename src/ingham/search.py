"""Exhaustive surveys of translation configurations.

A survey is columnar from enumeration to CSV.  classify_all enumerates the
m-subsets of an integer grid as an (N, m) index array into `grid_points`,
built in numpy one block of rows at a time and stored by columns
(`combination_table`), so its transpose is the C-contiguous (m, N) array
`spectral.classes` reads, with no copy, and its rows' cells increase, so
translates share their translation key; `spectral.classes` maps each row
to the canonical configuration of its class under translation and the
tiling's certified symmetries, on integer keys (see `spectral.classes`),
and the spectral kernel (`spectral.spectra`) and `geometry.connected_rows`
run on those representatives alone, in chunks of `spectral.CHUNK_ROWS`.  So
a survey is two parts.  The spec-free `Reduction` (`grid_reduction`, or
`_reduce` of any index table) holds the points, the index table, the
classes under the group and each class's connectivity; it depends on the
group, the grid and m alone.  The spec pass (`classify_reduction`) runs
`spectra` and the (A2) verdict.  Specs of one group, such as the two-square
tiling at every side ratio, can share one reduction; `classify_all` and
`connected_survey` compose the two.  The result holds numpy columns
(`SurveyRecords`): each value once per class and each row's class, with no
per-row copy of a value; a `SurveyRecord` is built only when one is indexed
or iterated.  Every configuration carries its class representative's
values, so its bits do not depend on the survey, the grid or the list it
came in.  Counts, rankings and CSV rows read the class
columns, gathered through each row's class where they need rows.  The CSV
formats each class's fields once, as one tail tuple (`_class_tails`), and
each point's label once, as fixed-width byte strings; a chunk of rows is
gathered from those tables into one packed record array and taken as one
bytes object (`_row_chunks`).  `survey_csv_rows` decodes and splits each
chunk's configuration strings once, gathers the chunk's tails through each
row's class, and makes each row its configuration's 1-tuple plus its tail,
one new tuple per row; `write_survey_csv` writes each chunk's bytes, with
no per-row string.
Surveys larger than MAX_SURVEY_CONFIGS are refused before enumeration.
This module owns enumeration, columns, grouping and ranking; phases,
symmetries, determinants, eigenvalues, the (A2) verdict and its thresholds
belong to the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import connected_rows, polyominoes
from .lattice import LatticeSpec
from .spectral import (
    D4, Classes, Symmetry, a2_holds, chunks, classes, config_index, spectra, symmetries,
)

Config = tuple[tuple[int, int], ...]

# Largest grid survey grid_reduction, and so classify_all, enumerates.  A
# configuration costs its m indices (8 B each, at most 12) plus its 8 B class
# index, at most 104 B, so the result of 2M configurations is at most 208 MB,
# beside 26 B of values per class.  The index table is written in place, so
# enumerating needs no memory beyond it (tracemalloc peak 8m B per
# configuration).  While the survey runs, the class reduction adds about 40 B
# per configuration (tracemalloc peak, snub square at grid 6; 38 B at grid 7,
# m = 4: int16 codes and int32 words beside its intp class indices) and the
# kernel one chunk of working memory.  write_survey_csv holds one chunk of
# rows as a packed record array and its bytes, beside byte tables of the point
# labels and one tail per class: its tracemalloc peak beyond the result is 2.2
# MB at snub square grid 6 and 5.4 MB at grid 7, mostly the per-class tuples
# and strings.  The full list of survey_csv_rows costs about 166 B per
# configuration more (a 6-tuple, its list slot and its configuration string),
# as rows share their class's tail: the survey benchmark (snub square at grid
# 6, 211,876 configurations, its largest) peaks at about 93 MB resident.  Snub
# square (M = 4) at grid 8 is 1.66M.
MAX_SURVEY_CONFIGS = 2_000_000


@dataclass(frozen=True)
class SurveyRecord:
    config: Config
    connected: bool
    a2: bool
    kappa1: float
    kappa2: float
    det_abs: float


class ClassColumns(NamedTuple):
    """Values of each symmetry class, shared by all its configurations; the
    fields follow SurveyRecord's after config."""

    connected: np.ndarray  # (K,) bool
    a2: np.ndarray  # (K,) bool
    kappa1: np.ndarray  # (K,) float
    kappa2: np.ndarray  # (K,) float
    det_abs: np.ndarray  # (K,) float


@dataclass(frozen=True, eq=False)
class SurveyRecords(Sequence[SurveyRecord]):
    """Survey records as numpy columns: row i is the configuration
    points[idx[i]] of class klass[i], whose values are row klass[i] of the
    class columns.  Every class has a row, so an extreme or a set of values
    over the classes is that over the rows, and a count over the rows
    gathers through klass.  A SurveyRecord is built only when one is
    indexed or iterated."""

    points: tuple[tuple[int, int], ...]
    idx: np.ndarray  # (N, m) indices into points
    klass: np.ndarray  # (N,) class of each row
    classes: ClassColumns

    @classmethod
    def of(cls, records: Sequence[SurveyRecord]) -> SurveyRecords:
        """Columns of a sequence of records, in their order, each its own class."""
        points, idx = config_index([r.config for r in records])
        column = lambda name: np.array([getattr(r, name) for r in records],
                                       dtype=bool if name in ("connected", "a2") else float)
        columns = ClassColumns(*map(column, ClassColumns._fields))
        return cls(tuple(points), idx, np.arange(len(idx)), columns)

    def __len__(self) -> int:
        return len(self.idx)

    def __iter__(self) -> Iterator[SurveyRecord]:
        configs = (tuple(self.points[k] for k in row) for row in self.idx.tolist())
        return map(SurveyRecord, configs, *(col[self.klass].tolist() for col in self.classes))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        k = self.klass[i]
        config = tuple(self.points[p] for p in self.idx[i].tolist())
        return SurveyRecord(config, *(col[k].item() for col in self.classes))


@dataclass(frozen=True)
class SurveyResult:
    """Survey counts and columnar records; records given as any sequence of
    SurveyRecord are stored as SurveyRecords."""

    total: int
    passing: int
    failing: int
    records: SurveyRecords

    def __post_init__(self) -> None:
        if not isinstance(self.records, SurveyRecords):
            object.__setattr__(self, "records", SurveyRecords.of(self.records))


@dataclass(frozen=True)
class TranslationClass:
    representative: Config
    members: int


def grid_points(grid_max: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(grid_max + 1) for b in range(grid_max + 1)]


def enumerate_configs(grid_max: int, m: int) -> Iterator[Config]:
    """All m-subsets of {0..grid_max}^2 in lexicographic order."""
    yield from combinations(grid_points(grid_max), m)


def config_count(grid_max: int, m: int) -> int:
    return math.comb((grid_max + 1) ** 2, m)


def combination_table(size: int, m: int) -> np.ndarray:
    """The m-subsets of range(size) as a (C(size, m), m) intp array, in
    lexicographic order: `np.array(list(combinations(range(size), m)))`,
    stored by columns (order="F"), so its transpose, the (m, N) cells that
    `spectral.classes` reads, is C-contiguous without a copy.

    Built in place, one block of rows per first element.  The table
    T(size, j) is, for i = 0, 1, ..., i followed by the last C(size-1-i, j-1)
    rows of T(size-1, j-1) plus 1: those rows are the (j-1)-subsets of
    range(size-1) whose first element is at least i.  So out[:C(size-k, m-k),
    k:] holds T(size-k, m-k) + k, built for k = m-1 down to 0; its block
    i = 0 is already in place, and the block of each i > 0 is a copy of rows
    above it, one contiguous column at a time."""
    out = np.empty((math.comb(size, m), m), dtype=np.intp, order="F")
    for k in range(m - 1, -1, -1):
        width = m - k  # T(size - k, width) + k goes into columns k:
        tail = math.comb(size - k - 1, width - 1)  # rows of T(size-k-1, width-1)
        top = 0
        for i in range(size - m + 1):
            rows = math.comb(size - k - 1 - i, width - 1)
            out[top:top + rows, k] = k + i
            if i:  # a column at a time, whose two blocks numpy sees do not overlap
                for c in range(k + 1, m):
                    out[top:top + rows, c] = out[tail - rows:tail, c]
            top += rows
    return out


@dataclass(frozen=True, eq=False)
class Reduction:
    """The spec-free part of a survey: the configurations points[idx[i]],
    their classes under translation and a group of symmetries
    (`spectral.classes`) and each class's edge connectivity
    (`geometry.connected_rows` of its canonical configuration).  It depends
    on the group, the points and idx alone, so every spec whose
    `symmetries` is that group can share it (`classify_reduction`)."""

    points: tuple[tuple[int, int], ...]
    idx: np.ndarray  # (N, m) indices into points
    classes: Classes
    connected: np.ndarray  # (K,) bool, per class


def _reduce(
    group: Sequence[Symmetry], points: Sequence[tuple[int, int]], idx: np.ndarray
) -> Reduction:
    """The classes of the configurations points[idx[i]] under `group` and the
    connectivity of each class's canonical configuration."""
    cls = classes(group, points, idx)
    return Reduction(tuple(points), idx, cls, connected_rows(cls.points, cls.idx))


def grid_reduction(group: Sequence[Symmetry], grid_max: int, m: int) -> Reduction:
    """`_reduce` of every m-subset of {0..grid_max}^2, rows in lexicographic
    order; a grid of fewer than m points, or of more than MAX_SURVEY_CONFIGS
    m-subsets, is refused (ValueError) before enumeration."""
    if grid_max < 0 or (grid_max + 1) ** 2 < m:
        raise ValueError(f"grid [0,{grid_max}]^2 has fewer than m = {m} points")
    count = config_count(grid_max, m)
    if count > MAX_SURVEY_CONFIGS:
        raise ValueError(
            f"survey of {count} configurations exceeds {MAX_SURVEY_CONFIGS}"
        )
    points = grid_points(grid_max)
    return _reduce(group, points, combination_table(len(points), m))


def classify_reduction(spec: LatticeSpec, red: Reduction) -> SurveyRecords:
    """The spec pass of a survey: the kernel on each class's canonical
    configuration and the (A2) verdict, beside the reduction's connectivity.
    The reduction must be under `symmetries(spec)`, so each class has one
    value of each column."""
    cls = red.classes
    det, kappa1, kappa2 = spectra(spec, cls.points, cls.idx)
    columns = ClassColumns(red.connected, a2_holds(det), kappa1, kappa2, det)
    return SurveyRecords(red.points, red.idx, cls.of, columns)


def _classify(
    spec: LatticeSpec, points: Sequence[tuple[int, int]], idx: np.ndarray
) -> SurveyRecords:
    """The reduction under the tiling's symmetries and its spec pass."""
    return classify_reduction(spec, _reduce(symmetries(spec), points, idx))


def classify_configs(spec: LatticeSpec, configs: list[Config]) -> SurveyRecords:
    """Batched spectral classification of an explicit configuration list; an
    empty list gives no rows, and a configuration that repeats a cell, or
    has none, is refused (`config_index`)."""
    points, idx = config_index(configs)
    return _classify(spec, points, idx if configs else idx.reshape(0, spec.m))


def as_result(records: SurveyRecords) -> SurveyResult:
    passing = int(np.count_nonzero(records.classes.a2[records.klass]))
    return SurveyResult(
        total=len(records),
        passing=passing,
        failing=len(records) - passing,
        records=records,
    )


def classify_all(spec: LatticeSpec, grid_max: int, m: int) -> SurveyResult:
    """Classify every m-subset of {0..grid_max}^2; records in lexicographic
    order.  The grid's reduction under `symmetries(spec)` and its spec pass;
    m other than spec.m is refused before either."""
    if m != spec.m:
        raise ValueError(f"survey needs m = {spec.m} for {spec.name}, got {m}")
    return as_result(classify_reduction(spec, grid_reduction(symmetries(spec), grid_max, m)))


def connected_survey(spec: LatticeSpec) -> SurveyResult:
    """Survey of the edge-connected configurations, `geometry.polyominoes`."""
    shapes = polyominoes(spec.m)
    return as_result(_classify(spec, shapes.points, shapes.idx))


def _ratios(cols: ClassColumns) -> tuple[np.ndarray, np.ndarray]:
    """kappa2/kappa1 where it is defined (a passing class with kappa1 > 0), and that mask."""
    ok = cols.a2 & (cols.kappa1 > 0)
    return np.divide(cols.kappa2, cols.kappa1, out=np.zeros(len(ok)), where=ok), ok


def rank_by_conditioning(result: SurveyResult) -> list[SurveyRecord]:
    """Passing records sorted by ascending kappa2/kappa1, ties lexicographic.

    idx rows compare as their configurations do, because points is sorted."""
    rec = result.records
    ratio, ok = _ratios(rec.classes)
    rows = np.flatnonzero(ok[rec.klass])
    order = np.lexsort((*rec.idx[rows].T[::-1], ratio[rec.klass[rows]]))
    return [rec[i] for i in rows[order].tolist()]


def translation_classes(configs: Iterable[Config]) -> list[TranslationClass]:
    """Translation classes (`spectral.classes` under `D4[:1]`): representatives
    at minimum 0, cells sorted, in lexicographic order, with member counts.
    An empty input gives []; a ragged list, a configuration with no cells, a
    repeated cell or a coordinate outside (-COORD_LIMIT, COORD_LIMIT) is
    refused (ValueError)."""
    configs = list(configs)
    if not configs:
        return []
    cls = classes(D4[:1], *config_index(configs))
    members = np.bincount(cls.of, minlength=len(cls.idx)).tolist()
    reps = (tuple(cls.points[k] for k in row) for row in cls.idx.tolist())
    return list(map(TranslationClass, reps, members))


CSV_HEADER = ("config", "connected", "a2", "kappa1", "kappa2", "ratio")


def _class_tails(cols: ClassColumns) -> list[tuple[int, int, str, str, str]]:
    """Each class's (connected, a2, kappa1, kappa2, ratio) as the CSV writes
    them: 0 or 1, 12 significant digits, and an empty ratio where it is
    undefined.  "%.12g" % x is f"{x:.12g}", and faster."""
    ratio, ok = _ratios(cols)
    fmt = lambda col: ["%.12g" % x for x in col.tolist()]
    ratios = ["%.12g" % x if good else "" for x, good in zip(ratio.tolist(), ok.tolist())]
    flags = (col.astype(int).tolist() for col in (cols.connected, cols.a2))
    return list(zip(*flags, fmt(cols.kappa1), fmt(cols.kappa2), ratios))


def _row_chunks(
    rec: SurveyRecords, lead: str, end: str, tails: list[str] | None = None
) -> Iterator[tuple[slice, bytes]]:
    """The rows as ASCII bytes, one chunk of `spectral.chunks` at a time
    beside the chunk's rows: per row, lead, its configuration "a,b;c,d;...",
    end and, given tails (one string per class), its class's tail.

    The point labels are formatted once, as fixed-width byte strings, one
    table per cell: lead before the first cell's label, ";" after each label
    but the last and end after the last.  A chunk gathers each row's labels,
    and its tail, into one packed record array of those byte fields and
    takes its bytes at once.  numpy pads a shorter byte string with NULs,
    which are stripped only when the widths of a field differ."""
    m = rec.idx.shape[1]
    labels = [f"{a},{b}" for a, b in rec.points]
    table = lambda pre, post: np.array([pre + s + post for s in labels], dtype=bytes)
    fields = [table("" if k else lead, ";" if k < m - 1 else end) for k in range(m)]
    varied = lambda strings: len(set(map(len, strings))) > 1
    padded = varied(labels)
    if tails is not None:
        padded |= varied(tails)
        fields.append(np.array(tails, dtype=bytes))
    row = np.dtype([(f"f{k}", field.dtype) for k, field in enumerate(fields)])
    for rows in chunks(len(rec)):
        cols = [*rec.idx[rows].T, rec.klass[rows]]
        buf = np.empty(len(cols[0]), dtype=row)
        for name, field, col in zip(row.names, fields, cols):
            buf[name] = field[col]
        text = buf.tobytes()
        yield rows, text.translate(None, b"\0") if padded else text


def survey_csv_rows(result: SurveyResult) -> list[tuple]:
    """(config, connected, a2, kappa1, kappa2, ratio) rows for export: each
    chunk's configuration strings are one decoded string, split once, and
    each row is its configuration's 1-tuple plus its class's tail tuple."""
    rec = result.records
    tails = np.fromiter(_class_tails(rec.classes), dtype=object)
    out: list[tuple] = []
    for rows, text in _row_chunks(rec, "", "\n"):
        configs = text[:-1].decode("ascii").split("\n")
        out.extend(map(add, zip(configs), tails[rec.klass[rows]].tolist()))
    return out


def write_survey_csv(path, result: SurveyResult) -> None:
    """The header and survey_csv_rows as a CSV file, byte for byte as
    `csv.writer` (excel dialect) writes them, one write per chunk of rows.

    A configuration string always holds a comma, so the writer quotes it,
    and no other field needs quoting; the numbers carry no comma and an
    empty ratio stays empty.  So a row is '"' + configuration + '"' + its
    class's tail ",connected,a2,kappa1,kappa2,ratio\\r\\n", and the tail is
    formatted once per class.  Each chunk's rows are one bytes object
    (`_row_chunks`); the rows never all exist at once."""
    rec = result.records
    tails = [",%d,%d,%s,%s,%s\r\n" % tail for tail in _class_tails(rec.classes)]
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_HEADER) + "\r\n").encode())
        for _, text in _row_chunks(rec, '"', '"', tails):
            fh.write(text)
