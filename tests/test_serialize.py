import copy
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fraction_oracle as oracle
from schottky.disks import Disk
from schottky.errors import FormatError
from schottky.proj import INFINITY, Homography, ProjPoint
from schottky.serialize import (
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
    save_group,
)


def test_rational_round_trip():
    for x in [Fraction(3, 4), Fraction(-7), Fraction(0), Fraction(22, 7)]:
        assert parse_rational(str(x)) == x
    assert str(Fraction(-3, 4)) == "-3/4"
    with pytest.raises(FormatError):
        parse_rational("1/0")
    with pytest.raises(FormatError):
        parse_rational("abc")


_exact_values = (
    st.integers()
    | st.fractions()
    | st.sampled_from([math.inf, -math.inf])
    | st.tuples(st.integers(), st.integers())
    .filter(lambda v: v != (0, 0))
    .map(lambda v: ProjPoint(*v))
)


@given(x=_exact_values)
def test_text_form_is_str(x):
    """str() writes what the replaced formatters wrote, and the text parses back."""
    text = str(x)
    if isinstance(x, ProjPoint):
        assert text == oracle.point_str(oracle.point(x.num, x.den))
        assert parse_point(text) == x
    elif isinstance(x, float):
        assert text == oracle.exp_str(x)
    else:
        assert text == oracle.rational_str(x)
        assert parse_rational(text) == x


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


def test_pair_errors_name_the_group(g5, tmp_path):
    bad = group_to_dict(g5)
    bad["B"][0]["center"] = "x"
    with pytest.raises(FormatError, match=r"^group\.B\[0\]\.center: "):
        group_from_dict(bad)
    pair = {"gamma1": group_to_dict(g5), "g": [["1", "0"], ["0", "1"]], "gamma2": bad, "depth": 3}
    with pytest.raises(FormatError, match=r"^pair\.gamma2\.B\[0\]\.center: "):
        pair_from_dict(pair)
    pair["gamma2"] = "missing.json"
    with pytest.raises(FormatError, match=r"^pair\.gamma2: .*missing\.json"):
        pair_from_dict(pair, base_dir=tmp_path)
    (tmp_path / "broken.json").write_text("{]")
    pair["gamma2"] = "broken.json"
    with pytest.raises(FormatError, match=r"^pair\.gamma2: .*broken\.json:1:"):
        pair_from_dict(pair, base_dir=tmp_path)


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
    at a random position."""
    position = draw(st.sampled_from(list(_positions(data))))
    value = draw(_json_values)
    if not position:
        return value
    out = copy.deepcopy(data)
    parent = out
    for step in position[:-1]:
        parent = parent[step]
    if draw(st.booleans()):
        del parent[position[-1]]
    else:
        parent[position[-1]] = value
    return out


@pytest.fixture(scope="module")
def fuzz_inputs(g5, tmp_path_factory):
    from schottky.groups import sample_group
    from schottky.heights import upsilon_scan

    g25 = group_to_dict(sample_group(5, 2, multiplier_exponent=4))
    pair = {"gamma1": group_to_dict(g5), "g": [["1", "0"], ["0", "1"]], "gamma2": g25, "depth": 3}
    cover = ["word,center,radius_exp"] + [
        f"{w},{D.center},{D.radius_exp}"
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
    group = _mutated(fuzz_inputs["group"], data.draw)
    try:
        group_from_dict(group)
    except FormatError:
        pass


@given(data=st.data())
def test_fuzz_pair_dict(fuzz_inputs, data):
    pair = _mutated(fuzz_inputs["pair"], data.draw)
    try:
        pair_from_dict(pair, base_dir=fuzz_inputs["dir"])
    except FormatError:
        pass


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


# -- fuzz: the point grammar -------------------------------------------------------

_point_texts = (
    st.text(max_size=12)
    | st.text(st.sampled_from("0123456789+-/ .e_inf"), max_size=12)
    | st.from_regex(r"\s*[+-]?[0-9]{1,40}(/[0-9]{1,40})?\s*", fullmatch=True)
    | st.sampled_from(["1e5000", "1e10000000", "1.5", "1_000", "0x10", "nan", "inf", " oo "])
)


@given(text=_point_texts)
def test_fuzz_point_parser(text):
    """Any text is a point or a FormatError, and a point prints back to itself."""
    try:
        x = parse_point(text)
    except FormatError:
        return
    assert isinstance(x, ProjPoint)
    assert parse_point(point_str(x)) == x


def test_point_grammar_is_a_over_b():
    assert parse_point(" -6/4 ") == ProjPoint(Fraction(-3, 2))
    assert parse_point("+7") == ProjPoint(7)
    for text in ("1e5000", "1.5", "1_000", "1/-2", "1 /2", "٣", "0/0"):
        with pytest.raises(FormatError):
            parse_point(text)
    limit = sys.get_int_max_str_digits()  # 0 when the limit is switched off
    if limit:
        with pytest.raises(FormatError):
            parse_point("9" * (limit + 1))
