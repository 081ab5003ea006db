"""`geometry.fixed_polyominoes` as it was written before Redelmeier's
enumerator: growth of a set of translation-normalised cell tuples, one size at
a time, in plain Python.  The tests hold the enumerator and the translation
classes of `spectral.classes` to it, shape for shape."""


def canonical(cells) -> tuple[tuple[int, int], ...]:
    """The cells translated to minimum coordinates 0, sorted."""
    pts = [(int(x), int(y)) for x, y in cells]
    mx = min(x for x, _ in pts)
    my = min(y for _, y in pts)
    return tuple(sorted((x - mx, y - my) for x, y in pts))


def fixed_polyominoes(size: int) -> list[tuple[tuple[int, int], ...]]:
    """The cells of all fixed (translation-only) polyominoes of the given size, sorted."""
    shapes = {((0, 0),)}
    for _ in range(size - 1):
        grown = set()
        for shape in shapes:
            have = set(shape)
            for x, y in shape:
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb not in have:
                        grown.add(canonical(shape + (nb,)))
        shapes = grown
    return sorted(shapes)
