"""The class reduction `spectral.classes` as it was written on coordinate
pairs: per-row `lexsort` of each image's cells and a pairwise halving over the
images.  The property tests hold the integer-key implementation to its bits."""

from typing import Sequence

import numpy as np

from ingham.spectral import COORD_LIMIT, Classes, _lex_ids, chunks


def classes(group, points: Sequence[tuple[int, int]], idx: np.ndarray) -> Classes:
    """The classes of the configurations points[idx[i]] under translation and
    `group`, a subgroup of D4.

    A class's canonical configuration is the lexicographically least, over
    the A in `group`, of A n translated to minimum 0 with its cells sorted
    (compared as the sequence x_1, y_1, x_2, y_2, ...).  It depends on the
    class alone, not on the batch.  Translation classes come first: a row's
    offsets from its cell of least index fix it up to translation, and with
    the points sorted (as `config_index` gives them) that cell is the least
    in every translate, so all translates share the key.  The group then
    acts on one configuration per translation class.  All keys are exact
    (`_lex_ids`).
    """
    if not all(-COORD_LIMIT < c < COORD_LIMIT for p in points for c in p):
        raise ValueError(f"configuration coordinates must lie in (-{COORD_LIMIT}, {COORD_LIMIT})")
    pts = np.array(points, dtype=np.int64).reshape(-1, 2)
    px, py = pts[:, 0], pts[:, 1]
    n, m = idx.shape
    rows = np.sort(idx, axis=1)
    offsets = np.concatenate(
        [px[rows[:, 1:]] - px[rows[:, :1]], py[rows[:, 1:]] - py[rows[:, :1]]], axis=1
    )
    translation_class, first = _lex_ids(offsets)
    # one configuration per translation class, at minimum 0
    x, y = px[rows[first]], py[rows[first]]
    x -= x.min(axis=1, keepdims=True)
    y -= y.min(axis=1, keepdims=True)
    group = np.array(group)[:, :, :, None, None]  # (G, 2, 2, 1, 1)
    shift = np.maximum(-group, 0)
    best = np.empty((len(x), 2 * m), dtype=np.int64)
    for part in chunks(len(x)):
        cx, cy = x[part], y[part]
        w, h = cx.max(axis=1, keepdims=True), cy.max(axis=1, keepdims=True)
        # A n for every A at once, moved to minimum 0: a coordinate that A
        # negates shifts by the box width w or height h; then cells sorted
        ax = group[:, 0, 0] * cx + group[:, 0, 1] * cy + shift[:, 0, 0] * w + shift[:, 0, 1] * h
        ay = group[:, 1, 0] * cx + group[:, 1, 1] * cy + shift[:, 1, 0] * w + shift[:, 1, 1] * h
        order = np.lexsort((ay, ax), axis=-1)
        moved = np.empty(ax.shape[:2] + (2 * m,), dtype=np.int64)  # (G, rows, 2m)
        moved[..., 0::2] = np.take_along_axis(ax, order, -1)
        moved[..., 1::2] = np.take_along_axis(ay, order, -1)
        while len(moved) > 1:  # lexicographic minima of pairs of images, halving them
            half = (len(moved) + 1) // 2
            a, b = moved[:half], moved[-half:]
            differ = a != b
            first_differ = differ.argmax(axis=-1)[..., None]
            moved = np.where(np.take_along_axis(differ & (a < b), first_differ, -1), a, b)
        best[part] = moved[0]
    klass, rep = _lex_ids(best)
    cells = best[rep].reshape(-1, 2)
    cell, cell_first = _lex_ids(cells)
    canon = [tuple(c) for c in cells[cell_first].tolist()]
    return Classes(canon, cell.reshape(-1, m), klass[translation_class])
