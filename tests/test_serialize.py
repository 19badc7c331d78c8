import copy
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schottky.disks import Disk
from schottky.errors import FormatError
from schottky.padic import PadicApprox, PrimeContext
from schottky.proj import INFINITY, Homography, ProjPoint
from schottky.serialize import (
    approx_to_dict,
    canonical_json,
    group_from_dict,
    group_to_dict,
    load_cover_csv,
    load_group,
    load_pair,
    load_scan_csv,
    pair_from_dict,
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


@pytest.mark.parametrize(
    "loader, text, needle",
    (
        (load_scan_csv, "length,word,height,threshold_bin\nx,g1,5,1\n", "x"),
        (load_scan_csv, "length,word,height,threshold_bin\n1,g0,5,1\n", "not a letter"),
        (load_scan_csv, "length,word,height,threshold_bin\n1,g1\n", "4 fields"),
        (load_cover_csv, "word,center,radius_exp\ng0,1,-1\n", "not a letter"),
        (load_cover_csv, "word,center,radius_exp\ng1\n", "3 fields"),
    ),
    ids=("scan_bad_int", "scan_bad_word", "scan_short_row", "cover_bad_word", "cover_short_row"),
)
def test_csv_row_errors_name_path_and_line(tmp_path, loader, text, needle):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}:2: ")
    assert needle in str(info.value)


# -- fuzz: malformed input raises FormatError and nothing else ------------------

# Integers stay small: a large prime p would make the trial-division
# primality check, not the parser, the subject of the test.
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-50, 50)
    | st.floats(-1e6, 1e6)
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.text(st.characters(blacklist_characters="/"), max_size=8)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _positions(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _positions(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _positions(v, prefix + (i,))


def _mutated(data, draw):
    """A deep copy of data with one value replaced, or one entry deleted,
    at a random position; also returns the position and the new value."""
    position = draw(st.sampled_from(list(_positions(data))))
    value = draw(_json_values)
    if not position:
        return value, position, value
    out = copy.deepcopy(data)
    parent = out
    for step in position[:-1]:
        parent = parent[step]
    if draw(st.booleans()):
        del parent[position[-1]]
    else:
        parent[position[-1]] = value
    return out, position, value


@pytest.fixture(scope="module")
def fuzz_inputs(g5, tmp_path_factory):
    from schottky.groups import sample_group
    from schottky.heights import upsilon_scan

    g25 = group_to_dict(sample_group(5, 2, multiplier_exponent=4))
    pair = {"gamma1": group_to_dict(g5), "g": [["1", "0"], ["0", "1"]], "gamma2": g25, "depth": 3}
    cover = ["word,center,radius_exp"] + [
        f"{w},{rational_str(D.center)},{rational_str(D.radius_exp)}"
        for w, D in g5.limit_cover(2).entries
    ]
    scan = upsilon_scan(g5, 3, workers=1)
    rows = ["length,word,height,threshold_bin"] + [
        f"{n},{w},{h},{scan.threshold_bin(h)}" for n, w, h in scan.entries
    ]
    return {
        "group": group_to_dict(g5),
        "pair": pair,
        "csv": {
            load_cover_csv: ("\n".join(cover) + "\n").encode(),
            load_scan_csv: ("\n".join(rows) + "\n").encode(),
        },
        "dir": tmp_path_factory.mktemp("fuzz"),
    }


@given(data=st.data())
def test_fuzz_group_dict(fuzz_inputs, data):
    group, _, _ = _mutated(fuzz_inputs["group"], data.draw)
    try:
        group_from_dict(group)
    except FormatError:
        pass


@given(data=st.data())
def test_fuzz_pair_dict(fuzz_inputs, data):
    pair, position, value = _mutated(fuzz_inputs["pair"], data.draw)
    try:
        pair_from_dict(pair, base_dir=fuzz_inputs["dir"])
    except FormatError:
        pass
    except OSError:
        # a string names a group file; failing to read one is I/O, not format
        assert position in (("gamma1",), ("gamma2",)) and isinstance(value, str)


@given(
    loader=st.sampled_from([load_cover_csv, load_scan_csv]),
    edits=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 3), st.binary(max_size=3)),
        min_size=1,
        max_size=3,
    ),
)
def test_fuzz_csv_files(fuzz_inputs, loader, edits):
    text = bytearray(fuzz_inputs["csv"][loader])
    for where, cut, insert in edits:
        i = int(where * len(text))
        text[i : i + cut] = insert
    path = fuzz_inputs["dir"] / "mutated.csv"
    path.write_bytes(bytes(text))
    try:
        loader(path)
    except FormatError:
        pass
