"""Exhaustive surveys of translation configurations.

classify_all hands every m-subset of an integer grid to the spectral kernel
(`spectral.spectra`) as one batch, so surveys of all C(16,4) = 1820
configurations finish in milliseconds and two runs give identical records.
This module owns enumeration, connectivity, record building, grouping and
ranking; phases, determinants and eigenvalues belong to the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import PolyominoShape, fixed_polyominoes, is_connected
from .lattice import LatticeSpec
from .spectral import A2_DET_TOL, A2_SWEEP, a2_holds, spectra

Config = tuple[tuple[int, int], ...]


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


@dataclass(frozen=True)
class SurveyResult:
    total: int
    passing: int
    failing: int
    records: tuple[SurveyRecord, ...]


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


def classify_configs(
    spec: LatticeSpec, configs: list[Config], tol: float = A2_DET_TOL
) -> list[SurveyRecord]:
    """Batched spectral classification of an explicit configuration list."""
    dets, eigs = spectra(spec, configs)
    a2 = a2_holds(dets, tol)
    return [
        SurveyRecord(
            config=cfg,
            connected=is_connected(cfg),
            a2=bool(a2[i]),
            kappa1=max(float(eigs[i, 0]), 0.0),
            kappa2=float(eigs[i, -1]),
            det_abs=float(dets[i]),
        )
        for i, cfg in enumerate(configs)
    ]


def as_result(records: list[SurveyRecord]) -> SurveyResult:
    passing = sum(1 for r in records if r.a2)
    return SurveyResult(
        total=len(records),
        passing=passing,
        failing=len(records) - passing,
        records=tuple(records),
    )


def classify_all(
    spec: LatticeSpec, grid_max: int, m: int, tol: float = A2_DET_TOL
) -> SurveyResult:
    """Classify every m-subset of {0..grid_max}^2; records in lexicographic order."""
    if m != spec.m:
        raise ValueError(f"survey needs m = {spec.m} for {spec.name}, got {m}")
    if grid_max < 0 or (grid_max + 1) ** 2 < m:
        raise ValueError(f"grid [0,{grid_max}]^2 has fewer than m = {m} points")
    return as_result(classify_configs(spec, list(enumerate_configs(grid_max, m)), tol))


def connected_survey(
    spec: LatticeSpec, m: int | None = None, tol: float = A2_DET_TOL
) -> SurveyResult:
    """Survey restricted to the edge-connected configurations (fixed polyominoes)."""
    m = spec.m if m is None else m
    if m != spec.m:
        raise ValueError(f"survey needs m = {spec.m} for {spec.name}, got {m}")
    configs = [shape.cells for shape in fixed_polyominoes(m)]
    return as_result(classify_configs(spec, configs, tol))


def rank_by_conditioning(result: SurveyResult) -> list[SurveyRecord]:
    """Passing records sorted by ascending kappa2/kappa1, ties lexicographic."""
    passing = [r for r in result.records if r.a2 and r.ratio is not None]
    return sorted(passing, key=lambda r: (r.ratio, r.config))


def canonical_config(config: Iterable[tuple[int, int]]) -> Config:
    """The translate of the configuration with minimum coordinates 0, sorted."""
    return PolyominoShape.canonical(config).cells


def translation_classes(configs: Iterable[Config]) -> list[TranslationClass]:
    """Group configurations by translation; deterministic representatives."""
    groups: dict[Config, int] = {}
    for cfg in configs:
        canon = canonical_config(cfg)
        groups[canon] = groups.get(canon, 0) + 1
    return [TranslationClass(rep, count) for rep, count in sorted(groups.items())]


def sweep_counts(
    result: SurveyResult, tols: Sequence[float] = A2_SWEEP
) -> dict[float, int]:
    """Failing configurations per (A2) threshold."""
    dets = np.array([r.det_abs for r in result.records])
    return {tol: int(np.count_nonzero(~a2_holds(dets, tol))) for tol in tols}


def a2_sweep_unstable(
    spec: LatticeSpec,
    grid_max: int,
    m: int,
    tols: Sequence[float] = A2_SWEEP,
) -> tuple[dict[float, int], list[Config]]:
    """Failing counts per threshold and any config whose verdict flips."""
    result = classify_all(spec, grid_max, m, tols[0])
    dets = np.array([r.det_abs for r in result.records])
    flips = a2_holds(dets, min(tols)) & ~a2_holds(dets, max(tols))
    unstable = [r.config for r, flip in zip(result.records, flips) if flip]
    return sweep_counts(result, tols), unstable


def survey_csv_rows(result: SurveyResult) -> list[tuple]:
    """(config, connected, a2, kappa1, kappa2, ratio) rows for export."""
    rows = []
    for r in result.records:
        rows.append(
            (
                ";".join(f"{a},{b}" for a, b in r.config),
                int(r.connected),
                int(r.a2),
                f"{r.kappa1:.12g}",
                f"{r.kappa2:.12g}",
                f"{r.ratio:.12g}" if r.ratio is not None else "",
            )
        )
    return rows
