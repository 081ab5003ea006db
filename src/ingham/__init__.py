"""Ingham-type inequality data for two-dimensional lattice tilings.

Exact lattice arithmetic over quadratic fields, the exponential matrix and
its spectral constants, integration-domain geometry, exhaustive
configuration surveys, Gram-matrix frame-bound certification, and a catalog
of tilings with a reproduction harness for their reference tables.
"""

from .errors import (
    DegenerateTilingError,
    DuplicateTranslateError,
    FieldMismatchError,
    HoleOutsideDomainError,
    InghamError,
    NotHermitianError,
    NotInLatticeError,
    SingularMatrixError,
    SizeMismatchError,
    SizeTooLargeError,
    UnknownTilingError,
)
from .qfield import QuadNumber
from .lattice import (
    LatticePoint,
    LatticeSpec,
    RealizedPoint,
    contains,
    line_lattice_subset,
    minimality_certificate,
    realize_points,
    validate_spec,
)
from .spectral import (
    A2_DET_TOL,
    SpectralResult,
    TranslationConfig,
    build_e,
    check_a2,
    hermitian_extremes,
    ingham_constants,
    trig_identity_residual,
    two_square_delta,
    two_square_spec,
)
from .geometry import (
    DiskBounds,
    DomainGeometry,
    PolyominoShape,
    area_check,
    bessel_j0_root,
    connected_rows,
    disk_bounds,
    fixed_polyominoes,
    is_connected,
    omega_cells,
)
from .search import (
    SurveyRecord,
    SurveyRecords,
    SurveyResult,
    TranslationClass,
    classify_all,
    connected_survey,
    enumerate_configs,
    rank_by_conditioning,
    translation_classes,
)
from .gram import (
    FrameBoundReport,
    SupportSet,
    frame_bound_check,
    gram_matrix,
    hole_inner_product,
    inner_product,
    inscribed_hole,
    removal_witness,
)
from . import catalog
from .reproduce import build_report

__version__ = "0.1.0"
