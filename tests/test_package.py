"""The package namespace imports each module on first use.

Which modules an import loads is checked in a child process, because
``sys.modules`` is shared by every test in this one.
"""

import subprocess
import sys
from importlib import import_module

import pytest

import schottky
from conftest import child_env

# the names `import schottky` exports, by defining module
EXPORTS = {
    "disks": (
        "Affinoid", "Disk", "contains_disk", "disjoint", "image", "point_to_disk_delta",
        "poly_distance_exponent",
    ),
    "errors": (
        "AxiomViolation", "CoefficientTooLarge", "ConstantPolynomial", "CyclicLinks",
        "DepthExceeded", "FormatError", "InvalidArgument", "MaxStepsExceeded", "NotASquare",
        "NotASquareInQp", "PointNearLimitSet", "SchottkyError", "UnsupportedPrime",
    ),
    "geodesy": (
        "CommensurabilityReport", "Fixed", "FlatSpec", "Free", "GeodesicReport", "Linked",
        "StabilizerResult", "Verdict", "double_coset_scan", "geodesic_report", "normalize_flat",
        "pair_stabilizer",
    ),
    "groups": (
        "AxiomReport", "DeltaGammaBound", "LimitCover", "Membership", "ProperFit",
        "SchottkyGroup", "TranslateScan", "sample_group",
    ),
    "heights": ("CountingScan", "height_matrix", "height_rational", "height_tuple", "upsilon_scan"),
    "padic": ("PrimeContext", "abs_exponent", "valuation"),
    "proj": (
        "INFINITY", "ElementClass", "FixedPointPair", "Homography", "ProjPoint", "QuadPoint",
        "classify", "delta", "fixed_points",
    ),
    "words": ("Word",),
}


def run_child(code):
    return subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )


def test_all_is_every_exported_name_once():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == len(set(names)) == 58
    assert sorted(schottky.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_module(module):
    home = import_module(f"schottky.{module}")
    for name in EXPORTS[module]:
        assert getattr(schottky, name) is getattr(home, name), name


def test_a_looked_up_name_is_not_kept_in_the_package():
    # a kept object would outlive a later rebinding in its module
    assert schottky.Disk is import_module("schottky.disks").Disk
    assert "Disk" not in vars(schottky)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from schottky import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(schottky.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        schottky.nope
    assert not hasattr(schottky, "nope")
    assert dir(schottky) == sorted(schottky.__all__)


def test_import_loads_no_module_of_the_package():
    proc = run_child("import schottky, sys; print(sorted(m for m in sys.modules if '.' in m and m.startswith('schottky')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_modules_are_attributes_after_a_bare_import():
    proc = run_child(
        "import schottky\n"
        f"for name in {sorted(EXPORTS)!r}:\n"
        "    print(getattr(schottky, name).__name__)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"schottky.{name}" for name in sorted(EXPORTS)]


@pytest.mark.parametrize("module", ("cli", "groups", "serialize", "geodesy", "heights"))
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # the record classes are built without them; each costs milliseconds to load
    proc = run_child(
        f"import schottky.{module}, sys; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
