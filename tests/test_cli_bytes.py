"""CLI stdout is byte-identical to digests recorded from the Fraction kernel.

Each command runs on the worked p = 5 example group (and, for the probe,
the multiplier-4 group at the same prime).  The digests were recorded
from the implementation that computed points and disks in ``Fraction``
arithmetic; the integer kernel must reproduce every byte, including the
error line of a ``delta`` query that lands inside the cover.
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


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bytes")
    save_group(sample_group(5, 2), root / "g5.json")
    save_group(sample_group(5, 2, 4), root / "g5m4.json")
    (root / "pair.json").write_text(PAIR)
    return {"g": str(root / "g5.json"), "pair": str(root / "pair.json")}


def run(capsys, argv, files):
    code = main([arg.format(**files) for arg in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes_unchanged(capsys, files, name):
    argv, want_code, want_digest = COMMANDS[name]
    code, out = run(capsys, argv, files)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest
