"""Exception hierarchy for the ingham package."""


class InghamError(Exception):
    """Base class for all package errors."""


class FieldMismatchError(InghamError):
    """Arithmetic attempted between incompatible quadratic fields, or a
    lattice whose translates lie in two irrational fields."""


class SingularMatrixError(InghamError):
    """A lattice matrix has zero determinant."""


class DuplicateTranslateError(InghamError):
    """Two translation vectors coincide modulo the integer lattice."""


class NotInLatticeError(InghamError):
    """A point expected to lie in the lattice does not."""


class SizeMismatchError(InghamError):
    """A translation configuration does not match the lattice's translate count."""


class NotHermitianError(InghamError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class DegenerateTilingError(InghamError):
    """Two-square tiling parameters collide lattice points (r=0 or r=R)."""


class SizeTooLargeError(InghamError):
    """Polyomino size beyond the supported enumeration range."""


class HoleOutsideDomainError(InghamError):
    """A removal rectangle is not strictly inside a single domain cell."""


class UnknownTilingError(InghamError):
    """Requested catalog entry does not exist."""
