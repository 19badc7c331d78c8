import json
from fractions import Fraction

import pytest

from schottky.disks import Disk
from schottky.errors import FormatError
from schottky.padic import PadicApprox, PrimeContext
from schottky.proj import INFINITY, Homography, ProjPoint
from schottky.serialize import (
    approx_to_dict,
    canonical_json,
    group_from_dict,
    group_to_dict,
    load_group,
    load_pair,
    parse_disk,
    parse_homography,
    parse_point,
    parse_rational,
    point_str,
    rational_str,
    save_group,
)


def test_rational_round_trip():
    for x in [Fraction(3, 4), Fraction(-7), Fraction(0), Fraction(22, 7)]:
        assert parse_rational(rational_str(x)) == x
    assert rational_str(Fraction(-3, 4)) == "-3/4"
    with pytest.raises(FormatError):
        parse_rational("1/0")
    with pytest.raises(FormatError):
        parse_rational("abc")


def test_point_round_trip():
    for x in [INFINITY, ProjPoint(0), ProjPoint(Fraction(-3, 7))]:
        assert parse_point(point_str(x)) == x


def test_homography_round_trip():
    g = Homography(-47, 144, -24, 73)
    from schottky.serialize import homography_to_lists

    assert parse_homography(homography_to_lists(g)) == g
    # scalar multiples canonicalize on load
    assert parse_homography([["2", "0"], ["-48", "50"]]) == Homography(1, 0, -24, 25)
    with pytest.raises(FormatError):
        parse_homography([["1", "2"], ["2", "4"]])


def test_disk_round_trip():
    from schottky.serialize import disk_to_dict

    for D in [
        Disk.open_disk(Fraction(1, 3), -2, 5),
        Disk.closed_disk(0, Fraction(1, 2), 5),
        Disk.open_disk(4, 0, 5).complement(),
    ]:
        assert parse_disk(disk_to_dict(D), 5) == D
    with pytest.raises(FormatError):
        parse_disk({"kind": "square", "open": True, "center": "0", "radius_exp": "1"}, 5)
    with pytest.raises(FormatError):
        parse_disk({"kind": "bounded", "open": True, "center": "0"}, 5)


def test_group_round_trip(g5, tmp_path):
    d = group_to_dict(g5)
    G2 = group_from_dict(d)
    assert group_to_dict(G2) == d
    assert G2.generators == g5.generators
    path = tmp_path / "g.json"
    save_group(g5, path)
    assert group_to_dict(load_group(path)) == d
    # canonical file: parse then serialize is the identity on bytes
    assert canonical_json(group_to_dict(load_group(path))) == path.read_text()


def test_group_format_errors(tmp_path):
    with pytest.raises(FormatError):
        group_from_dict({"p": 6, "generators": [], "B": [], "C": []})
    with pytest.raises(FormatError):
        group_from_dict({"p": 5, "generators": []})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError) as info:
        load_group(bad)
    assert "1:" in str(info.value)  # line context


def test_pair_file_with_path_refs(g5, tmp_path):
    save_group(g5, tmp_path / "g5.json")
    pair = {
        "gamma1": "g5.json",
        "g": [["1", "0"], ["0", "1"]],
        "gamma2": json.loads(canonical_json(group_to_dict(g5))),
        "depth": 4,
    }
    (tmp_path / "pair.json").write_text(canonical_json(pair))
    G1, g, G2, depth = load_pair(tmp_path / "pair.json")
    assert depth == 4
    assert g == Homography.identity()
    assert G1.generators == G2.generators == g5.generators


def test_approx_serialization():
    ctx = PrimeContext(5, 3)
    x = PadicApprox(2, 16, ctx)
    assert approx_to_dict(x) == {"valuation": 2, "unit": 16, "precision": 3}


def test_missing_precision_defaults_to_64(g5):
    d = group_to_dict(g5)
    del d["precision"]
    assert group_from_dict(d).ctx.precision == 64
