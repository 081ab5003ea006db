"""Exhaustive surveys of translation configurations.

A survey is columnar from enumeration to CSV.  classify_all enumerates the
m-subsets of an integer grid as an (N, m) index array into `grid_points`,
the spectral kernel (`spectral.spectra`) and `geometry.connected_rows` walk
that array in chunks of `spectral.CHUNK_ROWS` configurations, and the result
holds numpy columns (`SurveyRecords`) that build a `SurveyRecord` only when
one is indexed.  Counts and CSV rows read the columns directly;
`write_survey_csv` formats the rows one chunk at a time.  Surveys larger
than MAX_SURVEY_CONFIGS are refused before enumeration.  This module owns
enumeration, columns, grouping and ranking; phases, determinants,
eigenvalues, the (A2) verdict and its thresholds belong to the kernel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import PolyominoShape, connected_rows, fixed_polyominoes
from .lattice import LatticeSpec
from .spectral import a2_holds, chunks, config_index, spectra

Config = tuple[tuple[int, int], ...]

# Largest grid survey classify_all enumerates.  A configuration costs its m
# indices (8 B each, at most 12) plus 26 B of columns, at most 122 B, so the
# result of 2M configurations is at most 244 MB; the kernel adds one chunk of
# working memory.  write_survey_csv formats one chunk of rows at a time; the
# full list of survey_csv_rows would cost about 500 B per configuration more
# (snub square at grid 7: 635,376 configurations, 42 MB of columns, 317 MB of
# rows).  Snub square (M = 4) at grid 8 is 1.66M.
MAX_SURVEY_CONFIGS = 2_000_000


@dataclass(frozen=True)
class SurveyRecord:
    config: Config
    connected: bool
    a2: bool
    kappa1: float
    kappa2: float
    det_abs: float

    @property
    def ratio(self) -> float | None:
        """Conditioning ratio kappa2/kappa1, defined for passing records."""
        return self.kappa2 / self.kappa1 if self.a2 and self.kappa1 > 0 else None


@dataclass(frozen=True, eq=False)
class SurveyRecords(Sequence[SurveyRecord]):
    """Survey records as numpy columns; row i is the configuration
    points[idx[i]], and a SurveyRecord is built only when one is indexed."""

    points: tuple[tuple[int, int], ...]
    idx: np.ndarray  # (N, m) indices into points
    connected: np.ndarray  # (N,) bool
    a2: np.ndarray  # (N,) bool
    kappa1: np.ndarray  # (N,) float
    kappa2: np.ndarray  # (N,) float
    det_abs: np.ndarray  # (N,) float

    @classmethod
    def of(cls, records: Sequence[SurveyRecord]) -> SurveyRecords:
        """Columns of a sequence of records, in their order."""
        points, idx = config_index([r.config for r in records])
        column = lambda name: np.array([getattr(r, name) for r in records])
        return cls(
            tuple(points), idx, *map(column, ("connected", "a2", "kappa1", "kappa2", "det_abs"))
        )

    def __len__(self) -> int:
        return len(self.idx)

    def __iter__(self) -> Iterator[SurveyRecord]:
        configs = (tuple(self.points[k] for k in row) for row in self.idx.tolist())
        columns = (self.connected, self.a2, self.kappa1, self.kappa2, self.det_abs)
        return map(SurveyRecord, configs, *(col.tolist() for col in columns))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return SurveyRecord(
            config=tuple(self.points[k] for k in self.idx[i].tolist()),
            connected=bool(self.connected[i]),
            a2=bool(self.a2[i]),
            kappa1=float(self.kappa1[i]),
            kappa2=float(self.kappa2[i]),
            det_abs=float(self.det_abs[i]),
        )


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


def _classify(
    spec: LatticeSpec, points: Sequence[tuple[int, int]], idx: np.ndarray
) -> SurveyRecords:
    det, kappa1, kappa2 = spectra(spec, points, idx)
    connected = connected_rows(points, idx)
    return SurveyRecords(tuple(points), idx, connected, a2_holds(det), kappa1, kappa2, det)


def classify_configs(spec: LatticeSpec, configs: list[Config]) -> SurveyRecords:
    """Batched spectral classification of an explicit configuration list."""
    return _classify(spec, *config_index(configs))


def as_result(records: SurveyRecords) -> SurveyResult:
    passing = int(np.count_nonzero(records.a2))
    return SurveyResult(
        total=len(records),
        passing=passing,
        failing=len(records) - passing,
        records=records,
    )


def classify_all(spec: LatticeSpec, grid_max: int, m: int) -> SurveyResult:
    """Classify every m-subset of {0..grid_max}^2; records in lexicographic order."""
    if m != spec.m:
        raise ValueError(f"survey needs m = {spec.m} for {spec.name}, got {m}")
    if grid_max < 0 or (grid_max + 1) ** 2 < m:
        raise ValueError(f"grid [0,{grid_max}]^2 has fewer than m = {m} points")
    count = config_count(grid_max, m)
    if count > MAX_SURVEY_CONFIGS:
        raise ValueError(
            f"survey of {count} configurations exceeds {MAX_SURVEY_CONFIGS}"
        )
    points = grid_points(grid_max)
    flat = chain.from_iterable(combinations(range(len(points)), m))
    idx = np.fromiter(flat, dtype=np.intp, count=count * m).reshape(count, m)
    return as_result(_classify(spec, points, idx))


def connected_survey(spec: LatticeSpec) -> SurveyResult:
    """Survey restricted to the edge-connected configurations (fixed polyominoes)."""
    configs = [shape.cells for shape in fixed_polyominoes(spec.m)]
    return as_result(classify_configs(spec, configs))


def rank_by_conditioning(result: SurveyResult) -> list[SurveyRecord]:
    """Passing records sorted by ascending kappa2/kappa1, ties lexicographic."""
    passing = [r for r in result.records if r.ratio is not None]
    return sorted(passing, key=lambda r: (r.ratio, r.config))


def translation_classes(configs: Iterable[Config]) -> list[TranslationClass]:
    """Group configurations by translation; deterministic representatives."""
    groups: dict[Config, int] = {}
    for cfg in configs:
        canon = PolyominoShape.canonical(cfg).cells
        groups[canon] = groups.get(canon, 0) + 1
    return [TranslationClass(rep, count) for rep, count in sorted(groups.items())]


def _csv_rows(rec: SurveyRecords, rows: slice) -> list[tuple]:
    """CSV rows of records[rows], formatted from the columns."""
    labels = np.array([f"{a},{b}" for a, b in rec.points], dtype=object)
    a2, kappa1, kappa2 = rec.a2[rows], rec.kappa1[rows], rec.kappa2[rows]
    ok = a2 & (kappa1 > 0)
    ratio = np.divide(kappa2, kappa1, out=np.zeros(len(ok)), where=ok)
    fmt = lambda col: [f"{x:.12g}" for x in col.tolist()]
    return list(
        zip(
            map(";".join, labels[rec.idx[rows]].tolist()),
            rec.connected[rows].astype(int).tolist(),
            a2.astype(int).tolist(),
            fmt(kappa1),
            fmt(kappa2),
            [f"{x:.12g}" if good else "" for x, good in zip(ratio.tolist(), ok.tolist())],
        )
    )


def survey_csv_rows(result: SurveyResult) -> list[tuple]:
    """(config, connected, a2, kappa1, kappa2, ratio) rows for export."""
    return _csv_rows(result.records, slice(None))


def write_survey_csv(path, result: SurveyResult) -> None:
    """The header and survey_csv_rows as a CSV file, formatted one chunk of
    `spectral.chunks` at a time, so the rows never all exist at once."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "connected", "a2", "kappa1", "kappa2", "ratio"])
        for rows in chunks(len(result.records)):
            writer.writerows(_csv_rows(result.records, rows))
