import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schottky
from schottky.cli import main
from schottky.serialize import save_group


@pytest.fixture()
def g5_file(g5, tmp_path):
    path = tmp_path / "g5.json"
    save_group(g5, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sample_group_then_verify(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    code, _ = run_cli(capsys, "sample-group", "--p", "5", "--rank", "2", "--out", path)
    assert code == 0
    code, out = run_cli(capsys, "verify", path)
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_sample_group_emits_worked_example(capsys):
    code, out = run_cli(capsys, "sample-group", "--p", "5", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 5
    assert data["generators"][0] == [["1", "0"], ["-24", "25"]]
    assert data["B"][0] == {"center": "0", "kind": "bounded", "open": True, "radius_exp": "-1"}


def test_verify_failure_exit_code(capsys, g5, tmp_path):
    from schottky.serialize import group_to_dict, canonical_json

    data = group_to_dict(g5)
    data["C"][1] = dict(data["B"][1])  # duplicate disk
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(data))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out)["all_passed"] is False


def test_reduce_infinity(capsys, g5_file):
    code, out = run_cli(capsys, "reduce", g5_file, "--point", "inf")
    assert code == 0
    assert json.loads(out) == {"point": "inf", "word": "id"}


def test_reduce_orbit_point(capsys, g5, g5_file):
    from schottky.proj import INFINITY
    from schottky.words import Word

    x = g5.word_homography(Word((1, 2))).apply(INFINITY)
    code, out = run_cli(capsys, "reduce", g5_file, f"--point={x}")
    assert code == 0
    assert json.loads(out) == {"point": "inf", "word": "g1*g2"}


def test_enumerate_count(capsys, g5_file):
    code, out = run_cli(capsys, "enumerate", g5_file, "--length", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert lines[0] == "g1*g1"


def test_limit_cover_csv(capsys, g5_file):
    code, out = run_cli(capsys, "limit-cover", g5_file, "--depth", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,center,radius_exp"
    assert len(lines) == 5
    assert lines[1].startswith("g1,")


def test_limit_cover_json(capsys, g5_file):
    code, out = run_cli(capsys, "limit-cover", g5_file, "--depth", "2", "--format", "json")
    data = json.loads(out)
    assert data["depth"] == 2
    assert len(data["disks"]) == 12
    assert data["max_radius_exp"] == "-3"


def test_delta_command(capsys, g5_file):
    code, out = run_cli(capsys, "delta", g5_file, "--point", "inf", "--depth", "2")
    assert code == 0
    data = json.loads(out)
    assert data == {"depth": 2, "lower_exp": "0", "upper_exp": "0"}


def test_upsilon_and_heights_scan(capsys, g5_file, tmp_path):
    code, out = run_cli(capsys, "upsilon", g5_file, "--max-length", "4", "--threads", "1")
    assert code == 0
    summary = json.loads(out)
    assert summary["slope"] > 0
    csv_path = tmp_path / "scan.csv"
    code, out2 = run_cli(
        capsys, "heights-scan", g5_file, "--max-length", "4", "--out", str(csv_path),
        "--threads", "1",
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "length,word,height,threshold_bin"
    assert len(lines) == 1 + 2 + 4 + 8 + 16


def test_output_files_reload(capsys, g5_file, tmp_path):
    from schottky.serialize import load_cover_csv, load_scan_csv
    from schottky.words import Word

    cover_path = tmp_path / "cover.csv"
    code, out = run_cli(capsys, "limit-cover", g5_file, "--depth", "2")
    cover_path.write_text(out)
    rows = load_cover_csv(cover_path)
    assert len(rows) == 12
    assert rows[0][0] == Word((1, 1))

    scan_path = tmp_path / "scan.csv"
    code, _ = run_cli(
        capsys, "heights-scan", g5_file, "--max-length", "3", "--out", str(scan_path),
        "--threads", "1",
    )
    assert code == 0
    rows = load_scan_csv(scan_path)
    assert len(rows) == 2 + 4 + 8
    assert all(h >= 1 and b >= 1 for _, _, h, b in rows)


def test_thread_count_does_not_change_bytes(capsys, g5_file, tmp_path):
    outs = []
    for threads, name in ((1, "a.csv"), (3, "b.csv")):
        path = tmp_path / name
        code, out = run_cli(
            capsys, "heights-scan", g5_file, "--max-length", "4", "--out", str(path),
            "--threads", str(threads),
        )
        assert code == 0
        outs.append((out, path.read_bytes()))
    assert outs[0] == outs[1]


def test_proper_fit_command(capsys, g5_file):
    code, out = run_cli(capsys, "proper-fit", g5_file, "--depth", "2")
    assert code == 0
    data = json.loads(out)
    assert data["depth"] == 2
    assert data["b_float"] > 0


def test_stabilizer_command(capsys, g5_file):
    code, out = run_cli(capsys, "stabilizer", g5_file, "--pair", "0,1", "--depth", "2")
    assert code == 0
    assert json.loads(out) == {"multiplier": "25", "word": "g1"}
    code, out = run_cli(capsys, "stabilizer", g5_file, "--pair", "inf,7", "--depth", "2")
    assert json.loads(out) == {"multiplier": None, "word": None}


def test_geodesic_probe_command(capsys, g5_file, tmp_path):
    pair = {
        "gamma1": g5_file,
        "g": [["1", "0"], ["0", "1"]],
        "gamma2": g5_file,
        "depth": 3,
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code, out = run_cli(capsys, "geodesic-probe", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Stabilized"
    assert data["coset_counts"] == [1, 1, 1, 1]


def test_machine_readable_errors(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error" in json.loads(out)
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, out = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "error" in json.loads(out)


def test_console_entry_point(g5_file):
    # the child imports the package from where this process found it
    src = str(Path(schottky.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "schottky.cli", "reduce", g5_file, "--point", "inf"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"point": "inf", "word": "id"}


def assert_single_error_line(code, out):
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert list(json.loads(lines[0])) == ["error"]


def test_limit_cover_depth_zero_is_an_error_line(capsys, g5_file):
    assert_single_error_line(*run_cli(capsys, "limit-cover", g5_file, "--depth", "0"))


def test_delta_depth_zero_is_an_error_line(capsys, g5_file):
    assert_single_error_line(*run_cli(capsys, "delta", g5_file, "--point", "inf", "--depth", "0"))


def test_enumerate_negative_length_is_an_error_line(capsys, g5_file):
    assert_single_error_line(*run_cli(capsys, "enumerate", g5_file, "--length", "-1"))


def test_upsilon_length_zero_is_an_error_line(capsys, g5_file):
    assert_single_error_line(*run_cli(capsys, "upsilon", g5_file, "--max-length", "0"))


def test_geodesic_probe_depth_zero_is_an_error_line(capsys, g5_file, tmp_path):
    pair = tmp_path / "pair.json"
    identity = [["1", "0"], ["0", "1"]]
    pair.write_text(json.dumps({"gamma1": g5_file, "g": identity, "gamma2": g5_file, "depth": 0}))
    assert_single_error_line(*run_cli(capsys, "geodesic-probe", str(pair)))


@pytest.mark.parametrize("window", ("0", "-2"))
def test_geodesic_probe_window_below_one_is_an_error_line(capsys, g5_file, tmp_path, window):
    from schottky.groups import sample_group

    # the cross counts grow strictly, [1, 3, 7, 19, 55]; a 0-wide window
    # compares a count with itself, and a negative one runs off the counts
    g25 = tmp_path / "g25.json"
    save_group(sample_group(5, 2, multiplier_exponent=4), g25)
    pair = tmp_path / "pair.json"
    identity = [["1", "0"], ["0", "1"]]
    pair.write_text(json.dumps({"gamma1": g5_file, "g": identity, "gamma2": str(g25), "depth": 4}))
    code, out = run_cli(capsys, "geodesic-probe", str(pair), "--window", window)
    assert_single_error_line(code, out)
    assert "window" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "key, value",
    (("generators", 5), ("B", "x"), ("B", [1])),
    ids=("generators_int", "B_string", "B_int_entry"),
)
def test_malformed_group_field_is_an_error_line(capsys, g5, tmp_path, key, value):
    from schottky.serialize import canonical_json, group_to_dict

    data = group_to_dict(g5)
    data[key] = value
    path = tmp_path / "bad_field.json"
    path.write_text(canonical_json(data))
    code, out = run_cli(capsys, "verify", str(path))
    assert_single_error_line(code, out)
    assert f"group.{key}" in json.loads(out)["error"]


def test_non_integer_precision_is_an_error_line(capsys, g5, tmp_path):
    from schottky.serialize import canonical_json, group_to_dict

    data = group_to_dict(g5)
    data["precision"] = "x"
    path = tmp_path / "bad_precision.json"
    path.write_text(canonical_json(data))
    code, out = run_cli(capsys, "verify", str(path))
    assert_single_error_line(code, out)
    assert "precision" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "flags",
    (
        ["--p", "5", "--rank", "0"],
        ["--p", "4", "--rank", "2"],
        ["--p", "5", "--rank", "2", "--multiplier-exponent", "3"],
    ),
    ids=("rank_0", "p_4", "odd_multiplier_exponent"),
)
def test_sample_group_bad_argument_is_an_error_line(capsys, flags):
    assert_single_error_line(*run_cli(capsys, "sample-group", *flags))


def test_stabilizer_equal_points_is_an_error_line(capsys, g5_file):
    assert_single_error_line(
        *run_cli(capsys, "stabilizer", g5_file, "--pair", "0,0", "--depth", "2")
    )


def test_stabilizer_negative_depth_is_an_error_line(capsys, g5_file):
    assert_single_error_line(
        *run_cli(capsys, "stabilizer", g5_file, "--pair", "0,1", "--depth", "-1")
    )


def test_upsilon_past_float_range_prints_one_json_line(capsys, tmp_path):
    from schottky.groups import sample_group

    path = tmp_path / "g5r1.json"
    save_group(sample_group(5, 1), path)
    code, out = run_cli(capsys, "upsilon", str(path), "--max-length", "300", "--threads", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    summary = json.loads(lines[0], parse_constant=lambda name: pytest.fail(f"bare {name}"))
    assert summary["max_length"] == 300
    log_peak = math.log(int(summary["peak_height"]))
    assert log_peak > math.log(2.0) * 1024  # the peak is past float range
    assert summary["growth"] == pytest.approx(math.exp(log_peak / 300))
    assert [row["count"] for row in summary["rows"]] == list(range(1, 301))
    for row in summary["rows"]:
        log_t = row["length_exponent"] / 300 * log_peak
        if log_t < math.log(2.0) * 1023:
            assert row["threshold"] == pytest.approx(math.exp(log_t))
        elif log_t > math.log(2.0) * 1024:
            assert row["threshold"] is None
    assert math.isfinite(summary["slope"])


def test_heights_scan_rank_one_finishes(capsys, tmp_path):
    from schottky.groups import sample_group

    path = tmp_path / "g5r1.json"
    save_group(sample_group(5, 1), path)
    csv_path = tmp_path / "scan.csv"
    code, out = run_cli(
        capsys, "heights-scan", str(path), "--max-length", "300", "--out", str(csv_path),
        "--threads", "1",
    )
    assert code == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 300
    # g1^l lands in bin l, though its height ties peak^(l/300) past float precision
    assert all(row[0] == row[3] for row in rows)
