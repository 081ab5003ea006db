import csv
import dataclasses
import hashlib
import importlib.util
import io
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ingham import catalog, search, spectral
import polyomino_oracle
from ingham.geometry import POLYOMINO_MAX, fixed_polyominoes
from ingham.search import (
    CSV_HEADER,
    MAX_SURVEY_CONFIGS,
    SurveyRecord,
    SurveyRecords,
    SurveyResult,
    as_result,
    classify_all,
    classify_configs,
    classify_reduction,
    combination_table,
    config_count,
    connected_survey,
    enumerate_configs,
    grid_points,
    grid_reduction,
    rank_by_conditioning,
    survey_csv_rows,
    translation_classes,
    write_survey_csv,
)
from ingham.spectral import build_e, check_a2, ingham_constants, TranslationConfig


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_configs(3, 4)) == 1820
    assert sum(1 for _ in enumerate_configs(2, 3)) == 84
    assert sum(1 for _ in enumerate_configs(1, 4)) == 1
    assert config_count(3, 4) == 1820


def test_enumerate_lexicographic():
    configs = list(enumerate_configs(1, 2))
    assert configs[0] == ((0, 0), (0, 1))
    assert configs == sorted(configs)


def test_classify_matches_per_config_path():
    entry = catalog.get("snub_square")
    result = classify_all(entry.spec, 1, 4)
    for rec in result.records:
        sr = ingham_constants(entry.spec, TranslationConfig(rec.config))
        bits = [sr.kappa1.hex(), sr.kappa2.hex(), sr.det_abs.hex(), sr.satisfies_a2]
        assert bits == [rec.kappa1.hex(), rec.kappa2.hex(), rec.det_abs.hex(), rec.a2]


def test_named_configs_share_one_spectral_path(catalog_entries):
    """A single configuration is a survey batch of one: same bits, same verdict."""
    checked = 0
    for entry in catalog_entries.values():
        spec = entry.spec
        for name, config in sorted(entry.default_configs.items()):
            sr = ingham_constants(spec, config)
            rec = classify_configs(spec, [config.ns])[0]
            single = [sr.kappa1.hex(), sr.kappa2.hex(), sr.det_abs.hex(), sr.satisfies_a2]
            batch = [rec.kappa1.hex(), rec.kappa2.hex(), rec.det_abs.hex(), rec.a2]
            assert single == batch, (spec.name, name)
            assert check_a2(spec, config) is sr.satisfies_a2
            e = build_e(spec, config)
            h = e @ e.conj().T
            assert np.max(np.abs(h - h.conj().T)) < 1e-12, (spec.name, name)
            checked += 1
    assert checked == 21


def test_trihexagonal_survey():
    entry = catalog.get("trihexagonal")
    result = classify_all(entry.spec, 2, 3)
    assert result.total == 84
    assert result.passing == 36
    for rec in result.records:
        if rec.a2:
            assert rec.kappa1 == pytest.approx(1.0, abs=1e-9)
            assert rec.kappa2 == pytest.approx(4.0, abs=1e-9)


def test_two_square_survey_counts():
    for R, want in [(2, 9), (3, 28), (4, 0), (5, 4)]:
        spec = catalog.get("two_square", r=1, R=R).spec
        assert classify_all(spec, 3, 4).failing == want


def test_snub_square_survey_and_connected():
    entry = catalog.get("snub_square")
    assert classify_all(entry.spec, 3, 4).failing == 76
    connected = connected_survey(entry.spec)
    assert connected.total == 19
    assert connected.failing == 0


def test_truncated_square_survey_and_connected():
    entry = catalog.get("truncated_square")
    assert classify_all(entry.spec, 3, 4).failing == 278
    connected = connected_survey(entry.spec)
    assert connected.passing == 10
    assert connected.failing == 9


def test_elongated_connected_dominoes():
    entry = catalog.get("elongated_triangular")
    result = connected_survey(entry.spec)
    assert result.total == 2 and result.failing == 0
    pairs = sorted((round(r.kappa1, 2), round(r.kappa2, 2)) for r in result.records)
    assert pairs == [(0.67, 3.33), (1.77, 2.23)]


def test_rank_by_conditioning_elongated_classes():
    entry = catalog.get("elongated_triangular")
    classes = translation_classes(combinations(((0, 0), (0, 1), (1, 0), (1, 1)), 2))
    assert len(classes) == 4
    records = classify_configs(entry.spec, [c.representative for c in classes])
    ranked = rank_by_conditioning(
        SurveyResult(4, 4, 0, tuple(records))
    )
    assert [r.config for r in ranked] == [
        ((0, 0), (0, 1)),
        ((0, 0), (1, 0)),
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
    ]
    # the middle two classes share their pair exactly
    assert ranked[1].kappa1 == pytest.approx(ranked[2].kappa1, abs=1e-12)


def test_rank_ties_preserve_lexicographic_order():
    entry = catalog.get("trihexagonal")
    result = classify_all(entry.spec, 2, 3)
    ranked = rank_by_conditioning(result)
    # all ratios equal 4, so the order must be plain lexicographic
    configs = [r.config for r in ranked]
    assert configs == sorted(configs)


def test_translation_classes_basic():
    classes = translation_classes([((0, 0), (0, 1)), ((1, 1), (1, 2))])
    assert len(classes) == 1
    assert classes[0].representative == ((0, 0), (0, 1))
    assert classes[0].members == 2


def test_translation_classes_two_subsets_of_3x3():
    classes = translation_classes(combinations([(a, b) for a in range(3) for b in range(3)], 2))
    full = {c.representative for c in classes if max(max(p) for p in c.representative) <= 1}
    # diffs (1,0),(0,1),(1,1),(1,-1) are the classes inside the 2x2 block
    assert full == {
        ((0, 0), (1, 0)),
        ((0, 0), (0, 1)),
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
    }


def test_translation_classes_count_matches_pattern_oracle():
    # classes of 4-subsets of the 4x4 grid == canonical 4-cell patterns in a 4x4 box
    classes = translation_classes(enumerate_configs(3, 4))
    patterns = set()
    for cfg in combinations([(a, b) for a in range(4) for b in range(4)], 4):
        canon = polyomino_oracle.canonical(cfg)
        w = max(p[0] for p in canon)
        h = max(p[1] for p in canon)
        if w <= 3 and h <= 3:
            patterns.add(canon)
    assert {c.representative for c in classes} == patterns
    assert sum(c.members for c in classes) == 1820


def _translation_oracle(configs):
    """translation_classes as it was written before `spectral.classes`: one
    canonical form per configuration in Python, counted in a dict."""
    groups = {}
    for cfg in configs:
        canon = polyomino_oracle.canonical(cfg)
        groups[canon] = groups.get(canon, 0) + 1
    return sorted(groups.items())


@st.composite
def shuffled_translates(draw):
    """Configurations of m cells with negative coordinates, some of them
    translates of others, each with its cells in any order, the list shuffled."""
    m = draw(st.integers(1, 6))
    cell = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    configs = draw(st.lists(st.lists(cell, min_size=m, max_size=m, unique=True),
                            min_size=1, max_size=6))
    shifts = st.tuples(st.integers(0, len(configs) - 1), st.integers(-9, 9), st.integers(-9, 9))
    for k, dx, dy in draw(st.lists(shifts, max_size=8)):
        configs.append([(x + dx, y + dy) for x, y in configs[k]])
    return draw(st.permutations([tuple(draw(st.permutations(c))) for c in configs]))


@settings(max_examples=200, deadline=None)
@given(shuffled_translates())
def test_translation_classes_match_the_python_grouping(configs):
    got = translation_classes(configs)
    assert [(c.representative, c.members) for c in got] == _translation_oracle(configs)


def test_translation_classes_of_nothing_is_empty():
    assert translation_classes([]) == []
    assert translation_classes(iter(())) == []


def test_translation_classes_refuse_a_ragged_list():
    with pytest.raises(ValueError, match="same number of cells"):
        translation_classes([((0, 0), (0, 1)), ((0, 0),)])


def test_translation_classes_refuse_a_repeated_cell():
    with pytest.raises(ValueError, match="pairwise distinct"):
        translation_classes([((0, 0), (0, 0))])


def test_translation_classes_refuse_a_configuration_with_no_cells():
    with pytest.raises(ValueError, match="at least one cell"):
        translation_classes([()])


def test_translation_classes_refuse_coordinates_past_the_limit():
    with pytest.raises(ValueError, match="must lie in"):
        translation_classes([((0, 0), (spectral.COORD_LIMIT, 0))])


def test_a2_sweep_stability_catalog_surveys():
    jobs = [
        (catalog.get("two_square", r=1, R=2).spec, 3, 4),
        (catalog.get("two_square", r=1, R=4).spec, 3, 4),
        (catalog.get("trihexagonal").spec, 2, 3),
        (catalog.get("snub_square").spec, 3, 4),
        (catalog.get("truncated_square").spec, 3, 4),
    ]
    for spec, grid, m in jobs:
        records = classify_all(spec, grid, m).records
        dets = records.classes.det_abs[records.klass]
        counts = {tol: int(np.count_nonzero(dets <= tol)) for tol in spectral.A2_SWEEP}
        assert len(set(counts.values())) == 1, (spec.name, counts)
        assert spectral.a2_stable(dets), spec.name


def test_determinism_byte_identical():
    entry = catalog.get("snub_square")
    a = survey_csv_rows(classify_all(entry.spec, 3, 4))
    b = survey_csv_rows(classify_all(entry.spec, 3, 4))
    assert a == b


# -- columns, chunks and CSV rows -------------------------------------------------


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _assert_same_text(got, want):
    """got == want (str or bytes), exactly.  A mismatch names the first line
    that differs and the line counts, at once: a plain `assert got == want`
    on CSV texts makes pytest diff them, which takes minutes."""
    if got == want:
        return
    lines, wanted = got.splitlines(keepends=True), want.splitlines(keepends=True)
    k = next((i for i, pair in enumerate(zip(lines, wanted)) if pair[0] != pair[1]),
             min(len(lines), len(wanted)))
    raise AssertionError(f"line {k}: {lines[k:k + 1]} != {wanted[k:k + 1]} "
                         f"({len(lines)} lines against {len(wanted)})")


def test_a_csv_text_mismatch_names_its_first_line():
    """Texts of 211,876 lines (snub_square grid 6's row count) that differ in
    one line, or lack the last, fail naming the line and the counts."""
    lines = [f'"{k},0;0,1",1,1,0.5,2.5,5\r\n' for k in range(211_876)]
    changed = lines.copy()
    changed[123_456] = changed[123_456].replace(",1,1,", ",True,1,")
    cases = [
        (changed, f"line 123456: {changed[123_456:123_457]} != {lines[123_456:123_457]} "
                  "(211876 lines against 211876)"),
        (lines[:-1], f"line 211875: [] != {lines[-1:]} (211875 lines against 211876)"),
    ]
    for got, message in cases:
        with pytest.raises(AssertionError) as exc:
            _assert_same_text("".join(got), "".join(lines))
        assert str(exc.value) == message
    _assert_same_text("".join(lines).encode(), "".join(lines).encode())


def _ratio(r):
    """kappa2/kappa1 of a record, defined when it passes with kappa1 > 0."""
    return r.kappa2 / r.kappa1 if r.a2 and r.kappa1 > 0 else None


def _csv_oracle(result):
    """survey_csv_rows as it was written before the columns: record by record."""
    return [
        (
            ";".join(f"{a},{b}" for a, b in r.config),
            int(r.connected),
            int(r.a2),
            f"{r.kappa1:.12g}",
            f"{r.kappa2:.12g}",
            f"{_ratio(r):.12g}" if _ratio(r) is not None else "",
        )
        for r in result.records
    ]


@pytest.mark.parametrize(
    "name, params, grid",
    [
        ("trihexagonal", {}, 2),
        ("snub_square", {}, 3),
        ("two_square", {"r": 1, "R": 2}, 3),
        ("snub_hexagonal", {}, None),  # connected survey: 216 hexominoes
    ],
)
def test_csv_rows_match_record_by_record_oracle(name, params, grid):
    spec = catalog.get(name, **params).spec
    if grid is None:
        result = connected_survey(spec)
    else:
        result = classify_all(spec, grid, spec.m)
    rows = survey_csv_rows(result)
    assert len(rows) == result.total
    _assert_same_text(_csv_text(rows), _csv_text(_csv_oracle(result)))


def _assert_rows_match_oracle(result):
    rows, want = survey_csv_rows(result), _csv_oracle(result)
    assert len(rows) == len(want)
    bad = next((i for i, (row, good) in enumerate(zip(rows, want)) if row != good), None)
    assert bad is None, (bad, rows[bad], want[bad])


def _shuffled_snub_square():
    configs = list(enumerate_configs(3, 4))
    perm = np.random.default_rng(5).permutation(len(configs))
    return as_result(classify_configs(catalog.get("snub_square").spec,
                                      [configs[k] for k in perm]))


@pytest.mark.parametrize("make", [
    _shuffled_snub_square,  # rows in no order: cells shared with the row before are rare
    lambda: classify_all(catalog.get("square").spec, 4, 1),  # m = 1: one label table, no ";"
    lambda: classify_all(catalog.get("truncated_trihexagonal").spec, 3, 12),  # m = 12
], ids=["shuffled", "m1", "m12"])
def test_csv_rows_of_the_degenerate_prefix_cases(make):
    _assert_rows_match_oracle(make())


@pytest.mark.parametrize("chunk_rows", [7, 300, None])
def test_csv_prefix_runs_across_chunk_boundaries(monkeypatch, chunk_rows):
    """Grid 4 rows in chunks of 7, 300 and CHUNK_ROWS: runs of rows sharing
    their first three cells cross chunk boundaries, and each chunk's bytes
    start and end on a row."""
    result = classify_all(catalog.get("snub_square").spec, 4, 4)  # 12650 configurations
    if chunk_rows is not None:
        monkeypatch.setattr(spectral, "CHUNK_ROWS", chunk_rows)
    size = spectral.CHUNK_ROWS
    assert len(result.records) > size
    head = result.records.idx[:, :-1]
    assert any((head[k - 1] == head[k]).all() for k in range(size, len(head), size))
    _assert_rows_match_oracle(result)


def test_snub_square_csv_rows_pinned():
    """sha256 of the grid-3 rows as csv.writer writes them, each configuration
    with its symmetry class representative's values."""
    rows = survey_csv_rows(classify_all(catalog.get("snub_square").spec, 3, 4))
    digest = hashlib.sha256(_csv_text(rows).encode()).hexdigest()
    assert digest == "060ee94e26ca4e2bb9bbf32426a352f33b9907843995e04f22bd3c195b50f0c6"


def _survey_workload_inputs():
    """Every survey the survey benchmark runs, over all its seeds: its
    grids, each two-square pair it may draw and its connected surveys."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    grids = [pytest.param(name, {}, grid, id=f"{name}-grid{grid}")
             for name, grid in module.SURVEY_GRIDS]
    pairs = [pytest.param("two_square", {"r": r, "R": R}, module.SURVEY_PAIR_GRID,
                          id=f"two_square_r{r}_R{R}-grid{module.SURVEY_PAIR_GRID}")
             for r, R in module.SURVEY_PAIRS]
    connected = [pytest.param(name, {}, None, id=f"{name}-connected")
                 for name in module.CONNECTED_TILINGS]
    return grids + pairs + connected


@pytest.mark.parametrize("name, params, grid", _survey_workload_inputs())
def test_csv_rows_of_the_survey_workload_match_the_oracle(name, params, grid):
    """Row by row, so that a failure names its first bad row rather than
    diffing megabytes of CSV text; the row types are tested below."""
    spec = catalog.get(name, **params).spec
    _assert_rows_match_oracle(
        connected_survey(spec) if grid is None else classify_all(spec, grid, spec.m))


@settings(max_examples=500)
@given(x=st.floats())
@example(x=math.nan)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=-0.0)
@example(x=5e-324)  # the least subnormal
@example(x=2.2250738585072014e-308)  # the least normal
def test_percent_g_is_format_g(x):
    """The CSV formats each class's numbers with "%.12g" %, which gives
    f"{x:.12g}", the record-by-record oracle's format."""
    assert "%.12g" % x == f"{x:.12g}"


@pytest.mark.parametrize("make", [
    lambda: classify_all(catalog.get("snub_square").spec, 3, 4),  # 76 failing rows
    lambda: connected_survey(catalog.get("truncated_square").spec),
    _shuffled_snub_square,
], ids=["grid", "connected", "shuffled"])
def test_csv_rows_hold_strings_and_ints(make):
    """Each row is a tuple of these types exactly: an equality test alone
    would take True for 1 and numpy values for Python ones."""
    rows = survey_csv_rows(make())
    assert {tuple(map(type, row)) for row in rows} == {(str, int, int, str, str, str)}
    assert {row[1:3] for row in rows} <= {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert "" in {row[5] for row in rows}  # a failing class has no ratio


def _column_bytes(records: SurveyRecords, order=slice(None)) -> list[bytes]:
    """Each row's connected, a2, kappa1, kappa2 and |det E|, gathered from its class."""
    return [col[records.klass][order].tobytes() for col in records.classes]


def test_chunks_leave_the_bits_unchanged(monkeypatch):
    spec = catalog.get("snub_square").spec
    chunked = classify_all(spec, 4, 4).records  # 12650 configurations
    assert len(chunked) > spectral.CHUNK_ROWS
    monkeypatch.setattr(spectral, "CHUNK_ROWS", len(chunked))
    whole = classify_all(spec, 4, 4).records
    monkeypatch.setattr(spectral, "CHUNK_ROWS", 7)
    small = classify_all(spec, 4, 4).records
    assert _column_bytes(chunked) == _column_bytes(whole) == _column_bytes(small)
    assert np.array_equal(chunked.idx, whole.idx)


def test_written_csv_is_the_header_and_rows(tmp_path, monkeypatch):
    result = classify_all(catalog.get("two_square", r=1, R=2).spec, 3, 4)
    header = ("config", "connected", "a2", "kappa1", "kappa2", "ratio")
    want = _csv_text([header, *survey_csv_rows(result)]).encode()
    monkeypatch.setattr(spectral, "CHUNK_ROWS", 300)  # 7 chunks, the last one short
    write_survey_csv(tmp_path / "survey.csv", result)
    _assert_same_text((tmp_path / "survey.csv").read_bytes(), want)


def _survey_of(name, source, seed):
    """A survey of the named tiling: its largest grid survey of at most 2000
    configurations, its connected survey, or a shuffled list of up to 60
    configurations of points in [-4, 4]^2."""
    spec = _catalog_spec(name)
    m = spec.m
    if source == "grid":
        grid = max(g for g in range(8) if (g + 1) ** 2 >= m and config_count(g, m) <= 2000)
        return classify_all(spec, grid, m)
    if source == "connected" and m <= POLYOMINO_MAX:
        return connected_survey(spec)
    rng = np.random.default_rng(seed)
    cells = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    configs = {tuple(cells[k] for k in rng.choice(len(cells), m, replace=False))
               for _ in range(int(rng.integers(1, 61)))}
    return as_result(classify_configs(spec, sorted(configs, key=lambda c: rng.random())))


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(catalog.names()),
    source=st.sampled_from(["grid", "connected", "list"]),
    chunk_rows=st.sampled_from([1, 3, 64, None]),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="snub_square", source="grid", chunk_rows=300, seed=0)  # 76 failing rows, 7 chunks
@example(name="truncated_square", source="connected", chunk_rows=4, seed=0)  # 9 failing shapes
@example(name="square", source="grid", chunk_rows=None, seed=0)  # m = 1: one label table
@example(name="square", source="list", chunk_rows=3, seed=1)
@example(name="trihexagonal", source="list", chunk_rows=1, seed=2)
def test_written_csv_is_csv_writer_over_the_rows(tmp_path_factory, name, source, chunk_rows, seed):
    """write_survey_csv writes the bytes csv.writer writes for the header and
    survey_csv_rows, whatever the survey, its failing rows and its chunks."""
    result = _survey_of(name, source, seed)
    path = tmp_path_factory.mktemp("csv") / "survey.csv"
    with pytest.MonkeyPatch.context() as mp:
        if chunk_rows is not None:
            mp.setattr(spectral, "CHUNK_ROWS", chunk_rows)
        rows = survey_csv_rows(result)
        write_survey_csv(path, result)
    _assert_same_text(path.read_bytes(), _csv_text([CSV_HEADER, *rows]).encode())


def _mixed_width_survey(name, seed):
    """A shuffled list of configurations whose point labels differ in width:
    one-digit, negative, multi-digit and near +-COORD_LIMIT coordinates."""
    spec = catalog.get(name).spec
    limit = spectral.COORD_LIMIT
    values = [0, 1, -1, 7, -8, 12, -345, 6789, -98765, limit - 1, 1 - limit, limit - 12345]
    rng = np.random.default_rng(seed)
    cells = [(x, y) for x in values for y in values]
    configs = {tuple(cells[k] for k in rng.choice(len(cells), spec.m, replace=False))
               for _ in range(40)}
    return as_result(classify_configs(spec, sorted(configs, key=lambda c: rng.random())))


@pytest.mark.parametrize("chunk_rows", [1, 7, None])
@pytest.mark.parametrize("name", ["square", "trihexagonal", "snub_square"])
def test_csv_of_labels_of_different_widths(tmp_path, monkeypatch, name, chunk_rows):
    """Labels of different widths are NUL-padded in their byte tables and
    stripped: survey_csv_rows equals the record-by-record oracle, and
    write_survey_csv writes the bytes csv.writer writes, in any chunks."""
    result = _mixed_width_survey(name, len(name))
    widths = {len(f"{a},{b}") for a, b in result.records.points}
    assert len(widths) > 1 and max(widths) > 30
    if chunk_rows is not None:
        monkeypatch.setattr(spectral, "CHUNK_ROWS", chunk_rows)
    _assert_rows_match_oracle(result)
    write_survey_csv(tmp_path / "survey.csv", result)
    want = _csv_text([CSV_HEADER, *_csv_oracle(result)]).encode()
    _assert_same_text((tmp_path / "survey.csv").read_bytes(), want)


def test_shuffled_explicit_list_gives_the_survey_bits():
    spec = catalog.get("snub_square").spec
    survey = classify_all(spec, 3, 4).records
    configs = list(enumerate_configs(3, 4))
    perm = np.random.default_rng(7).permutation(len(configs))
    shuffled = classify_configs(spec, [configs[k] for k in perm])
    assert [shuffled[i].config for i in range(5)] == [configs[k] for k in perm[:5]]
    assert _column_bytes(shuffled) == _column_bytes(survey, perm)


def test_records_are_a_sequence_of_survey_records():
    spec = catalog.get("trihexagonal").spec
    records = classify_all(spec, 2, 3).records
    listed = list(records)
    assert len(listed) == len(records) == 84
    assert listed == [records[i] for i in range(84)]
    assert records[-1] == listed[-1] == records[83]
    assert records[10:13] == listed[10:13]
    with pytest.raises(IndexError):
        records[84]
    rebuilt = SurveyResult(84, 36, 48, tuple(listed)).records
    assert isinstance(rebuilt, SurveyRecords)
    assert list(rebuilt) == listed


def test_survey_records_hold_each_value_once_per_class():
    fields = [f.name for f in dataclasses.fields(SurveyRecords)]
    assert fields == ["points", "idx", "klass", "classes"]


def _assert_empty(result, path):
    assert (result.total, result.passing, result.failing) == (0, 0, 0)
    assert len(result.records) == 0 and list(result.records) == []
    assert rank_by_conditioning(result) == [] and survey_csv_rows(result) == []
    write_survey_csv(path, result)
    assert path.read_bytes() == b"config,connected,a2,kappa1,kappa2,ratio\r\n"


def test_an_empty_configuration_list_is_an_empty_survey(tmp_path):
    spec = catalog.get("snub_square").spec
    result = as_result(classify_configs(spec, []))
    assert result.records.idx.shape == (0, 4)
    _assert_empty(result, tmp_path / "survey.csv")


def test_an_empty_record_tuple_is_an_empty_survey(tmp_path):
    result = SurveyResult(0, 0, 0, ())
    cols = result.records.classes
    assert result.records.idx.shape == (0, 0)
    assert [col.dtype for col in cols] == [np.dtype(bool)] * 2 + [np.dtype(float)] * 3
    _assert_empty(result, tmp_path / "survey.csv")


def test_a_configuration_repeating_a_cell_is_refused():
    spec = catalog.get("snub_square").spec
    with pytest.raises(ValueError, match="pairwise distinct"):
        classify_configs(spec, [((0, 0), (0, 1), (1, 0), (1, 1)),
                                ((0, 0), (0, 0), (1, 0), (1, 1))])


def test_a_configuration_with_no_cells_is_refused():
    with pytest.raises(ValueError, match="at least one cell"):
        classify_configs(catalog.get("snub_square").spec, [()])


def test_oversized_survey_is_refused_before_enumerating():
    assert config_count(8, 4) == 1_663_740 <= MAX_SURVEY_CONFIGS  # snub square grid 8 fits
    spec = catalog.get("truncated_trihexagonal").spec
    with pytest.raises(ValueError, match="exceeds"):
        classify_all(spec, 9, 12)  # C(100, 12) ~ 1.05e15


# -- the spec-free reduction and the spec pass ---------------------------------------


# Every catalog tiling at grid 2 (truncated_trihexagonal, m = 12, only fits
# grid 3), the report's two-square ratios at grid 3 and three other coprime
# pairs at grid 4.
SHARED_SURVEYS = (
    [(name, {"r": 1, "R": 2} if name == "two_square" else {}, 2) for name in catalog.names()]
    + [("truncated_trihexagonal", {}, 3)]
    + [("two_square", {"r": 1, "R": R}, 3) for R in (2, 3, 4, 5)]
    + [("two_square", {"r": r, "R": R}, 4) for r, R in ((2, 3), (3, 5), (4, 7))]
)


def _assert_same_bits(got: SurveyRecords, want: SurveyRecords):
    """The same points, and idx, klass and every class column with the same
    dtype, shape and bytes."""
    assert got.points == want.points
    for a, b in [(got.idx, want.idx), (got.klass, want.klass), *zip(got.classes, want.classes)]:
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def test_a_shared_reduction_gives_the_bits_of_classify_all():
    """One grid reduction per (group, grid, m), as the report's store keeps
    them, and each spec's pass over it give what classify_all gives that
    spec: the two-square ratios at one grid share one reduction."""
    reductions, refused = {}, []
    for name, params, grid in SHARED_SURVEYS:
        spec = catalog.get(name, **params).spec
        key = (spectral.symmetries(spec), grid, spec.m)
        try:
            want = classify_all(spec, grid, spec.m)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                grid_reduction(*key)
            assert str(got.value) == str(exc)
            refused.append(spec.name)
            continue
        if key not in reductions:
            reductions[key] = grid_reduction(*key)
        got = as_result(classify_reduction(spec, reductions[key]))
        assert (got.total, got.passing, got.failing) == (want.total, want.passing, want.failing)
        _assert_same_bits(got.records, want.records)
    assert refused == ["truncated_trihexagonal"]  # 9 grid points, m = 12
    c4 = spectral.symmetries(catalog.get("two_square", r=1, R=2).spec)
    # one each for r1_R2 at grid 2, the 4 ratios at grid 3 and the 3 pairs at grid 4
    assert sorted(grid for group, grid, _ in reductions if group == c4) == [2, 3, 4]


@pytest.mark.parametrize("name, grid, m, message", [
    ("snub_square", 3, 3, "survey needs m = 4 for snub_square, got 3"),
    ("snub_square", -1, 3, "survey needs m = 4 for snub_square, got 3"),  # m comes first
    ("snub_square", 0, 4, "grid [0,0]^2 has fewer than m = 4 points"),
    ("snub_square", -1, 4, "grid [0,-1]^2 has fewer than m = 4 points"),
    ("truncated_trihexagonal", 2, 12, "grid [0,2]^2 has fewer than m = 12 points"),
    ("truncated_trihexagonal", 9, 12,
     f"survey of {math.comb(100, 12)} configurations exceeds {MAX_SURVEY_CONFIGS}"),
])
def test_classify_all_refuses_before_enumerating(monkeypatch, name, grid, m, message):
    """m other than the spec's, a grid of fewer than m points and a survey past
    MAX_SURVEY_CONFIGS are refused with these messages before any grid,
    table, class or spectrum is made."""
    spec = catalog.get(name).spec

    def refuse(*args):
        raise AssertionError("enumerated before the refusal")

    for step in ("grid_points", "combination_table", "classes", "spectra"):
        monkeypatch.setattr(search, step, refuse)
    with pytest.raises(ValueError) as exc:
        classify_all(spec, grid, m)
    assert str(exc.value) == message


# -- symmetry classes ---------------------------------------------------------------


def _catalog_spec(name):
    entry = catalog.get("two_square", r=1, R=2) if name == "two_square" else catalog.get(name)
    return entry.spec


def _brute_canonical(cells, group):
    """Least over the group of A n moved to minimum 0, cells sorted: in Python."""
    forms = []
    for a in group:
        moved = [(a[0][0] * x + a[0][1] * y, a[1][0] * x + a[1][1] * y) for x, y in cells]
        mx, my = min(x for x, _ in moved), min(y for _, y in moved)
        forms.append(tuple(sorted((x - mx, y - my) for x, y in moved)))
    return min(forms)


@pytest.mark.parametrize("name", catalog.names())
def test_classes_match_brute_force_canonicalisation(name):
    spec = _catalog_spec(name)
    group = spectral.symmetries(spec)
    for grid in range(1, 4):
        if (grid + 1) ** 2 < spec.m:
            continue
        configs = list(enumerate_configs(grid, spec.m))
        cls = spectral.classes(group, *spectral.config_index(configs))
        want = [_brute_canonical(c, group) for c in configs]
        got = [tuple(cls.points[k] for k in cls.idx[c]) for c in cls.of.tolist()]
        assert got == want, (name, grid)
        assert len(cls.idx) == len(set(want))
        records = classify_all(spec, grid, spec.m).records
        assert np.array_equal(records.klass, cls.of)


def test_snub_square_grid6_class_counts():
    spec = catalog.get("snub_square").spec
    records = classify_all(spec, 6, 4).records
    assert len(records) == 211_876
    assert len(records.classes.kappa1) == int(records.klass.max()) + 1 == 6_138
    points = grid_points(6)
    translation = spectral.classes(spectral.D4[:1], points, combination_table(len(points), 4))
    assert len(translation.idx) == int(translation.of.max()) + 1 == 46_921


@pytest.mark.parametrize(
    "name", [n for n in catalog.names() if _catalog_spec(n).m <= POLYOMINO_MAX]
)
def test_connected_survey_matches_the_polyomino_list(name):
    """The array path from `geometry.polyominoes` gives the bits and the
    ranking of classify_configs over the list of fixed polyominoes."""
    spec = _catalog_spec(name)
    got = connected_survey(spec)
    want = as_result(classify_configs(spec, [s.cells for s in fixed_polyominoes(spec.m)]))
    assert _column_bytes(got.records) == _column_bytes(want.records)
    assert (got.total, got.passing) == (want.total, want.passing)
    assert rank_by_conditioning(got) == rank_by_conditioning(want)


@pytest.mark.parametrize("name, params", [("snub_square", {}), ("two_square", {"r": 1, "R": 2}),
                                          ("truncated_square", {})])
def test_a_configuration_has_one_set_of_bits(name, params):
    """Grid 3, grid 4, a shuffled list of translated copies and one
    configuration at a time (every one of grid 3's 1,820) all give a
    configuration the same bits."""
    spec = catalog.get(name, **params).spec
    grid3 = classify_all(spec, 3, 4).records
    configs = list(enumerate_configs(3, 4))
    where4 = {c: i for i, c in enumerate(enumerate_configs(4, 4))}
    grid4 = classify_all(spec, 4, 4).records
    assert _column_bytes(grid3) == _column_bytes(grid4, [where4[c] for c in configs])
    perm = np.random.default_rng(3).permutation(len(configs))
    moved = [tuple((x + 5, y - 7) for x, y in configs[k]) for k in perm]
    assert _column_bytes(classify_configs(spec, moved)) == _column_bytes(grid3, perm)
    single = [ingham_constants(spec, TranslationConfig(c)) for c in configs]
    fields = ("satisfies_a2", "kappa1", "kappa2", "det_abs")
    bits = [np.array([getattr(sr, f) for sr in single]).tobytes() for f in fields]
    assert bits == _column_bytes(grid3)[1:]  # a2, kappa1, kappa2, |det E|


def _rank_oracle(result):
    """rank_by_conditioning as it was written before the columns."""
    passing = [r for r in result.records if _ratio(r) is not None]
    return sorted(passing, key=lambda r: (_ratio(r), r.config))


@pytest.mark.parametrize("name", catalog.names())
def test_rank_by_conditioning_matches_the_record_sort(name):
    spec = _catalog_spec(name)
    results = [classify_all(spec, 3, spec.m)]
    if spec.m <= 4:  # the m-subsets of the 2x2 cell block, one per translation class
        block = translation_classes(combinations(((0, 0), (0, 1), (1, 0), (1, 1)), spec.m))
        results.append(as_result(classify_configs(spec, [c.representative for c in block])))
    for result in results:
        ranked = rank_by_conditioning(result)
        assert ranked == _rank_oracle(result)
        assert all(isinstance(r, SurveyRecord) for r in ranked)


def test_combination_table_is_lexicographic_combinations():
    cases = [(n, m) for n in range(1, 13) for m in range(1, n + 1)] + [(49, 4), (25, 6)]
    for size, m in cases:
        table = combination_table(size, m)
        want = np.array(list(combinations(range(size), m)))
        assert table.dtype == np.intp, (size, m)
        assert table.shape == want.shape == (math.comb(size, m), m), (size, m)
        assert np.array_equal(table, want), (size, m)
        assert table.T.flags.c_contiguous, (size, m)  # the (m, N) cells of `classes`, no copy
