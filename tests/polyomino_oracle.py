"""`geometry.fixed_polyominoes` as it was written before Redelmeier's
enumerator: growth of a set of translation-normalised cell tuples, one size at
a time.  The tests hold the enumerator to its list, shape for shape."""

from ingham.errors import SizeTooLargeError
from ingham.geometry import POLYOMINO_MAX, PolyominoShape


def fixed_polyominoes(size: int) -> list[PolyominoShape]:
    """All fixed (translation-only) polyominoes of the given size, sorted."""
    if not 1 <= size <= POLYOMINO_MAX:
        raise SizeTooLargeError(f"size must be in 1..{POLYOMINO_MAX}, got {size}")
    shapes = {((0, 0),)}
    for _ in range(size - 1):
        grown = set()
        for shape in shapes:
            have = set(shape)
            for x, y in shape:
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb not in have:
                        grown.add(PolyominoShape.canonical(shape + (nb,)).cells)
        shapes = grown
    return [PolyominoShape(s) for s in sorted(shapes)]
