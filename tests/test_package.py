"""The package namespace: names resolve lazily, and the exact layer runs
without numpy."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import ingham

# Every public name `import ingham` bound when it imported each submodule
# eagerly, by the module it was imported from.
EAGER_EXPORTS = {
    "errors": (
        "DegenerateTilingError", "DuplicateTranslateError", "FieldMismatchError",
        "HoleOutsideDomainError", "InghamError", "NotHermitianError", "NotInLatticeError",
        "SingularMatrixError", "SizeMismatchError", "SizeTooLargeError", "UnknownTilingError",
    ),
    "qfield": ("QuadNumber",),
    "lattice": (
        "LatticePoint", "LatticeSpec", "RealizedPoint", "contains", "line_lattice_subset",
        "minimality_certificate", "realize_points", "two_square_spec", "validate_spec",
    ),
    "spectral": (
        "A2_DET_TOL", "SpectralResult", "TranslationConfig", "build_e", "check_a2",
        "hermitian_extremes", "ingham_constants", "two_square_delta",
    ),
    "geometry": (
        "DiskBounds", "DomainGeometry", "PolyominoShape", "area_check", "bessel_j0_root",
        "connected_rows", "disk_bounds", "fixed_polyominoes", "is_connected", "omega_cells",
    ),
    "search": (
        "SurveyRecord", "SurveyRecords", "SurveyResult", "TranslationClass", "classify_all",
        "connected_survey", "enumerate_configs", "rank_by_conditioning", "translation_classes",
    ),
    "gram": (
        "FrameBoundReport", "SupportSet", "frame_bound_check", "gram_matrix",
        "inscribed_hole", "removal_witness",
    ),
    "reproduce": ("build_report",),
}
EAGER_SUBMODULES = (*EAGER_EXPORTS, "catalog")
NAMES = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_public_name_resolves_to_its_definition(module, name):
    defined = getattr(importlib.import_module(f"ingham.{module}"), name)
    namespace = {}
    exec(f"from ingham import {name}", namespace)
    assert getattr(ingham, name) is defined
    assert namespace[name] is defined
    assert name in dir(ingham)


@pytest.mark.parametrize("module", EAGER_SUBMODULES)
def test_every_submodule_is_an_attribute(module):
    assert getattr(ingham, module) is importlib.import_module(f"ingham.{module}")
    assert module in dir(ingham)


def test_a_star_import_binds_every_public_name_and_submodule():
    namespace = {}
    exec("from ingham import *", namespace)
    for _, name in NAMES:
        assert namespace[name] is getattr(ingham, name)
    for module in EAGER_SUBMODULES:
        assert namespace[module] is getattr(ingham, module)


def test_the_numpy_free_names_are_defined_once_in_lattice():
    from ingham import catalog, geometry, lattice, spectral

    assert spectral.TranslationConfig is lattice.TranslationConfig
    for name in ("TranslationConfig", "two_square_spec"):
        assert getattr(ingham, name).__module__ == "ingham.lattice"
    assert geometry.TranslationConfig is catalog.TranslationConfig is lattice.TranslationConfig
    assert ingham.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ingham.no_such_name
    with pytest.raises(ImportError):
        exec("from ingham import no_such_name", {})
    assert "no_such_name" not in dir(ingham)


# Run in a fresh interpreter: `import ingham` alone, the exact layer end to
# end, then what it loaded.
EXACT_LAYER = """
import contextlib, io, json, sys
import ingham
bare = sorted(m for m in sys.modules if m.startswith("ingham."))
names = dir(ingham)
from ingham import catalog, cli
from ingham.catalog import spec_from_json, spec_to_json
from ingham.lattice import mat_vec
entry = catalog.get("truncated_trihexagonal")
point = mat_vec(entry.spec.l_star, entry.spec.us[1])
assert ingham.contains(entry.spec, point) == ingham.LatticePoint(1, (0, 0))
assert spec_from_json(json.loads(json.dumps(spec_to_json(entry.spec)))) == entry.spec
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["catalog", "show", "truncated_trihexagonal"]) == 0
    assert cli.main(["export", "--what", "points", "--tiling", "snub_square",
                     "--bbox", "0,0,2,2"]) == 0
print(json.dumps({"bare": bare, "dir": names, "numpy": "numpy" in sys.modules, "output": out.getvalue(),
                  "loaded": sorted(m for m in sys.modules if m.startswith("ingham"))}))
"""


def test_the_exact_layer_runs_without_numpy():
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(ingham.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", EXACT_LAYER], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["bare"] == []
    assert {name for _, name in NAMES} | set(EAGER_SUBMODULES) <= set(seen["dir"])
    assert not seen["numpy"], seen["loaded"]
    assert '"name": "truncated_trihexagonal"' in seen["output"]
    assert "x,y,j,m0,m1" in seen["output"]


def _written_references() -> list[tuple[str, str]]:
    """(file, text) of each backquoted `module.name` and `tests/...` path in
    the docstrings, strings and comments of the package's modules."""
    found = []
    for path in sorted(Path(ingham.__file__).parent.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type in (tokenize.STRING, tokenize.COMMENT):
                    found += [(path.name, ref) for ref in re.findall(r"`([\w./]+)`", tok.string)]
    return found


def test_the_module_maps_name_what_exists():
    """Module docstrings name the owner of each rule as `module.name`, and the
    oracles as `tests/...` paths: each names an existing attribute of that
    ingham submodule, or an existing file of the repository."""
    submodules = {m.name for m in pkgutil.iter_modules(ingham.__path__)}
    root = Path(__file__).resolve().parents[1]
    checked = 0
    for where, ref in _written_references():
        module, _, name = ref.partition(".")
        if ref.startswith("tests/"):
            assert (root / ref).is_file(), (where, ref)
        elif module in submodules and name.isidentifier():
            assert hasattr(importlib.import_module(f"ingham.{module}"), name), (where, ref)
        else:
            continue
        checked += 1
    assert checked >= 20  # the scan reads the maps at all


@pytest.mark.parametrize("module", ["spectral", "search", "gram", "reproduce", "lattice"])
def test_each_module_map_names_what_the_module_holds(module):
    """A bare `name` in a module map is an attribute of that module (its own
    or imported) or an ingham submodule."""
    submodules = {m.name for m in pkgutil.iter_modules(ingham.__path__)}
    mod = importlib.import_module(f"ingham.{module}")
    names = re.findall(r"`([A-Za-z_]\w*)`", mod.__doc__)
    assert names
    assert [n for n in names if not hasattr(mod, n) and n not in submodules] == []
