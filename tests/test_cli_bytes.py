"""CLI stdout is byte-identical to digests recorded from earlier designs.

Each command runs on the worked p = 5 example group (and, for the probe,
the multiplier-4 group at the same prime).  The digests in ``COMMANDS``
were recorded from the implementation that computed points and disks in
``Fraction`` arithmetic; the integer kernel must reproduce every byte,
including the error line of a ``delta`` query that lands inside the
cover.  The digests in ``WALK_COMMANDS`` were recorded before the word
scans shared one walker over the word tree; they pin every command that
walks it, on the rank-2 group and on the rank-3 group ``{g3}``.
"""

import hashlib

import pytest

from schottky.cli import main
from schottky.groups import sample_group
from schottky.serialize import save_group

PAIR = '{"depth": 4, "g": [["1", "1"], ["0", "1"]], "gamma1": "g5.json", "gamma2": "g5m4.json"}\n'

# name -> (argv with {g} and {pair} placeholders, exit code, sha256 of stdout)
COMMANDS = {
    "limit_cover_csv": (
        ["limit-cover", "{g}", "--depth", "6"],
        0,
        "7ffc2daa6f4877fe255aa89cff7d2cdfeface8dca1dd83ffdce8557d4469d930",
    ),
    "limit_cover_json": (
        ["limit-cover", "{g}", "--depth", "6", "--format", "json"],
        0,
        "3a40baf48bbc8047954cd8bdd547c5125d5c91dd3c78fd09d0dfed141ad220cb",
    ),
    "delta_inf": (
        ["delta", "{g}", "--point", "inf", "--depth", "8"],
        0,
        "df742e5a9ac21c1b13a5b6d5de384abe797a2ecebfbe67903bceaff8877ff9c4",
    ),
    "delta_orbit": (
        ["delta", "{g}", "--point=-7563/85987", "--depth", "8"],
        0,
        "4a357cabd3183a96ecda0652b633cda942836ebe99cf15e1f667f0111f1bd4bf",
    ),
    "delta_deep": (
        ["delta", "{g}", "--point", "1/15626", "--depth", "8"],
        0,
        "0520f087cd401b2d3fd48d771438d64106f456c65c1ca9b00a65ae70e2382d26",
    ),
    "delta_inside": (
        ["delta", "{g}", "--point", "0", "--depth", "8"],
        2,
        "328451af02424357a646e364969e5f95d2b6c4ee047454aff891844f5d6ed227",
    ),
    "reduce_inf": (
        ["reduce", "{g}", "--point", "inf"],
        0,
        "1e433e8e39d74526cf3c28cc976cb83b53976a54a48b70747a8e3d6e3f873733",
    ),
    "reduce_orbit": (
        ["reduce", "{g}", "--point=-47/528"],
        0,
        "a53298595062aa3a2cdda657ef573e5932fb38cdcdf29c9daa0e3ae1d1dea062",
    ),
    "reduce_long": (
        ["reduce", "{g}", "--point", "642472275/625161317"],
        0,
        "aef1c9d5e4999f283761db992c81767c86fe5abad8b0c505480b52f8a77e5874",
    ),
    "reduce_boundary": (
        ["reduce", "{g}", "--point", "15626"],
        0,
        "a77ff5efd306a8dbff44efb63919258941ef616b732067b54705776d7aa8befb",
    ),
    "proper_fit": (
        ["proper-fit", "{g}", "--depth", "4"],
        0,
        "ff8241bcd14ddb87d025b2449655fa4ee947435fdc414ac71e3b7cae0dc384d1",
    ),
    "geodesic_probe": (
        ["geodesic-probe", "{pair}"],
        0,
        "88404b0e43e2d9640cf00d58909f488163edca859ef40d9c278c10aac674a536",
    ),
}

# the image of infinity under g2*g1^-1*g1^-1*g2, inside a depth-3 cover disk
WALK_POINT = "2846063/1437696"

WALK_COMMANDS = {
    "enumerate_7": (
        ["enumerate", "{g}", "--length", "7"],
        0,
        "2f89560cbdd1394122a91310e5eb506b7874dd4a6dacd03fd449cf7a2a577da0",
    ),
    "enumerate_0": (
        ["enumerate", "{g}", "--length", "0"],
        0,
        "984a644ec3b56d32b0404777e1eb73390c4b0742a6a0e183f07861056b6746de",
    ),
    "upsilon_rank3": (
        ["upsilon", "{g3}", "--max-length", "7", "--threads", "1"],
        0,
        "dad1babc101dfc7c078ac3fe9644187bd50eae72d9376e38b4b49e0fe25df874",
    ),
    "heights_scan_rank3": (
        ["heights-scan", "{g3}", "--max-length", "6", "--out", "{scan}", "--threads", "1"],
        0,
        "882445e284231597eb7a13b94348c74029c6245c0832d5f119f31aaa4f140c0c",
    ),
    "stabilizer": (
        ["stabilizer", "{g}", "--pair", "0,1/3", "--depth", "4"],
        0,
        "5345d69528e5245d80c5f5ca6a9a83e60ebc29a171c3cedc4de59ef1a88fbcb9",
    ),
    "limit_cover_7": (
        ["limit-cover", "{g}", "--depth", "7"],
        0,
        "94da4364a97af299e40412d80cbdce55073b41efbe6f7f5d508ad5ce72f06d81",
    ),
    "delta_in_word_disk": (
        ["delta", "{g}", f"--point={WALK_POINT}", "--depth", "3"],
        2,
        "d1297a7f6101be3d7fbf850d1f8cd7fb88a2cc6901e0e82b69c326c2d1fa56a0",
    ),
}

# sha256 of the CSV that heights_scan_rank3 writes
SCAN_CSV_DIGEST = "81c7ffecdcce9d90304f63aafd5ab3faae27c65f171d4fedbd8179b6348f655d"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bytes")
    save_group(sample_group(5, 2), root / "g5.json")
    save_group(sample_group(5, 2, 4), root / "g5m4.json")
    save_group(sample_group(5, 3), root / "g5r3.json")
    (root / "pair.json").write_text(PAIR)
    return {
        "g": str(root / "g5.json"),
        "g3": str(root / "g5r3.json"),
        "pair": str(root / "pair.json"),
        "scan": str(root / "scan.csv"),
    }


def run(capsys, argv, files):
    code = main([arg.format(**files) for arg in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes_unchanged(capsys, files, name):
    argv, want_code, want_digest = COMMANDS[name]
    code, out = run(capsys, argv, files)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


@pytest.mark.parametrize("name", sorted(WALK_COMMANDS))
def test_word_tree_commands_unchanged(capsys, files, name):
    argv, want_code, want_digest = WALK_COMMANDS[name]
    code, out = run(capsys, argv, files)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest
    if name == "heights_scan_rank3":
        with open(files["scan"]) as fh:
            assert hashlib.sha256(fh.read().encode()).hexdigest() == SCAN_CSV_DIGEST
