"""Ingham-type inequality data for two-dimensional lattice tilings.

Exact lattice arithmetic over quadratic fields, the exponential matrix and
its spectral constants, integration-domain geometry, exhaustive
configuration surveys, Gram-matrix frame-bound certification, and a catalog
of tilings with a reproduction harness for their reference tables.

Submodules load on first use (PEP 562): `import ingham` imports none of
them, and `ingham.X`, `from ingham import X` and `ingham.<submodule>` import
the module that defines X, once.  The exact layer (`errors`, `qfield`,
`lattice`, `catalog`) never imports numpy; `lattice` owns the numpy-free
`TranslationConfig`, `two_square_spec` and `TWO_SQUARE_CONFIG`.  The numeric
layers (`spectral`, `geometry`, `search`, `gram`, `reproduce`) import numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines each.
_EXPORTS = {
    "errors": (
        "DegenerateTilingError",
        "DuplicateTranslateError",
        "FieldMismatchError",
        "HoleOutsideDomainError",
        "InghamError",
        "NotHermitianError",
        "NotInLatticeError",
        "SingularMatrixError",
        "SizeMismatchError",
        "SizeTooLargeError",
        "UnknownTilingError",
    ),
    "qfield": ("QuadNumber",),
    "lattice": (
        "LatticePoint",
        "LatticeSpec",
        "RealizedPoint",
        "TranslationConfig",
        "contains",
        "line_lattice_subset",
        "minimality_certificate",
        "realize_points",
        "two_square_spec",
        "validate_spec",
    ),
    "spectral": (
        "A2_DET_TOL",
        "SpectralResult",
        "build_e",
        "check_a2",
        "hermitian_extremes",
        "ingham_constants",
        "two_square_delta",
    ),
    "geometry": (
        "DiskBounds",
        "DomainGeometry",
        "PolyominoShape",
        "area_check",
        "bessel_j0_root",
        "connected_rows",
        "disk_bounds",
        "fixed_polyominoes",
        "is_connected",
        "omega_cells",
    ),
    "search": (
        "SurveyRecord",
        "SurveyRecords",
        "SurveyResult",
        "TranslationClass",
        "classify_all",
        "connected_survey",
        "enumerate_configs",
        "rank_by_conditioning",
        "translation_classes",
    ),
    "gram": (
        "FrameBoundReport",
        "SupportSet",
        "frame_bound_check",
        "gram_matrix",
        "inscribed_hole",
        "removal_witness",
    ),
    "reproduce": ("build_report",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "catalog")

__all__ = sorted({*_MODULE_OF, *_SUBMODULES})


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups do not come back here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
