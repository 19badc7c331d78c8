import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import axiom_oracle
import csv_oracle
from conftest import cached_sample_group, child_env, drawn_groups, permuted
from schottky.cli import COMMANDS, build_parser, main
from schottky.errors import SchottkyError
from schottky.groups import sample_group
from schottky.heights import height_matrix, upsilon_scan
from schottky.serialize import canonical_json, group_to_dict, load_group, save_group
from schottky.words import Word


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


def test_invalid_group_file(capsys, g5, tmp_path):
    """verify prints the full report of a group file that fails an axiom,
    with exit 1; every other command refuses the file with the line that
    names its first failed check, with exit 2, enumerate included."""
    from schottky.serialize import group_to_dict

    data = group_to_dict(g5)
    data["C"][1] = dict(data["B"][1])  # C2 replaced by B2
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(data))
    B, C = g5.B, (g5.C[0], g5.B[1])
    report = axiom_oracle.verify(g5.ctx, g5.generators, B, C)
    code, out = run_cli(capsys, "verify", str(path))
    assert (code, out) == (1, canonical_json(report.to_dict()))
    first = report.failures[0]
    error = canonical_json({"error": f"{first.name}: {first.detail}"})
    pair = tmp_path / "pair.json"
    identity = [["1", "0"], ["0", "1"]]
    pair.write_text(
        json.dumps({"gamma1": "bad.json", "g": identity, "gamma2": "bad.json", "depth": 2})
    )
    for argv in (
        ["enumerate", str(path), "--length", "1"],
        ["reduce", str(path), "--point", "inf"],
        ["limit-cover", str(path), "--depth", "1"],
        ["stabilizer", str(path), "--pair", "0,1", "--depth", "1"],
        ["upsilon", str(path), "--max-length", "1"],
        # the group is reported before a bad argument
        ["enumerate", str(path), "--length", "-3"],
    ):
        assert run_cli(capsys, *argv) == (2, error), argv
    pair_error = canonical_json({"error": f"pair.gamma1: {first.name}: {first.detail}"})
    assert run_cli(capsys, "geodesic-probe", str(pair)) == (2, pair_error)


@pytest.mark.parametrize("inline", (False, True), ids=("file", "inline"))
def test_pair_names_the_group_that_fails_an_axiom(capsys, g5, tmp_path, inline):
    """A pair whose gamma2 alone fails an axiom, as a file or inline, is
    refused with the line that names the field and the first failed check."""
    data = group_to_dict(g5)
    (tmp_path / "g.json").write_text(canonical_json(data))
    data["C"][1] = dict(data["B"][1])  # C2 replaced by B2
    (tmp_path / "bad.json").write_text(canonical_json(data))
    first = axiom_oracle.verify(g5.ctx, g5.generators, g5.B, (g5.C[0], g5.B[1])).failures[0]
    pair = tmp_path / "pair.json"
    identity = [["1", "0"], ["0", "1"]]
    gamma2 = data if inline else "bad.json"
    pair.write_text(json.dumps({"gamma1": "g.json", "g": identity, "gamma2": gamma2, "depth": 2}))
    error = canonical_json({"error": f"pair.gamma2: {first.name}: {first.detail}"})
    assert run_cli(capsys, "geodesic-probe", str(pair)) == (2, error)


def test_reduce_infinity(capsys, g5_file):
    code, out = run_cli(capsys, "reduce", g5_file, "--point", "inf")
    assert code == 0
    assert json.loads(out) == {"point": "inf", "word": "id"}


def test_reduce_orbit_point(capsys, g5, g5_file):
    from schottky.proj import INFINITY

    x = g5.word_homography(Word((1, 2))).apply(INFINITY)
    code, out = run_cli(capsys, "reduce", g5_file, f"--point={x}")
    assert code == 0
    assert json.loads(out) == {"point": "inf", "word": "g1*g2"}


@pytest.mark.parametrize(
    "point, steps, word",
    [("-47/528", "2", "g1*g2"), ("inf", "0", "id"), ("7/3", "0", "id")],
)
def test_reduce_step_budget_counts_generator_steps(capsys, g5_file, point, steps, word):
    # -47/528 = g1*g2(inf) needs exactly two steps; a domain point needs none
    code, out = run_cli(capsys, "reduce", g5_file, f"--point={point}", "--max-steps", steps)
    assert code == 0
    assert json.loads(out)["word"] == word


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


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize(
    "p, rank, order, max_length",
    [(5, 1, (0,), 12), (5, 2, (0, 1), 6), (5, 3, (0, 1, 2), 4), (7, 3, (2, 1, 0), 4)],
)
def test_heights_scan_rows_name_the_scan_entries(
    capsys, tmp_path, p, rank, order, max_length, threads
):
    """Row i of the CSV is the i-th word of product() by length, named as
    str(Word(letters)), with its height and that height's bin; the heights
    are entry i of the scan."""
    group = tmp_path / "g.json"
    save_group(permuted(cached_sample_group(p, rank), order), group)
    path = tmp_path / "scan.csv"
    code, _ = run_cli(
        capsys, "heights-scan", str(group), "--max-length", str(max_length), "--out", str(path),
        "--threads", str(threads),
    )
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    G = load_group(group)
    scan = upsilon_scan(G, max_length)
    words = [
        Word(letters)
        for n in range(1, max_length + 1)
        for letters in itertools.product(range(1, rank + 1), repeat=n)
    ]
    heights = [height_matrix(G.word_homography(w)) for w in words]
    assert list(scan.entries) == heights
    assert rows == [
        [str(len(w)), str(w), str(h), str(scan.threshold_bin(h))] for w, h in zip(words, heights)
    ]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def _cli_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=80)
@given(G=drawn_groups((3, 5, 7)), depth=st.integers(1, 3))
def test_limit_cover_csv_matches_csv_writer(csv_dir, G, depth):
    """limit-cover's plain lines are the bytes csv.writer writes for the
    same rows, on conjugated groups too, whose centers may be fractions."""
    path = csv_dir / "cover_group.json"
    save_group(G, path)
    code, out = _cli_text(["limit-cover", str(path), "--depth", str(depth)])
    assert code == 0
    want = csv_oracle.limit_cover_csv(G, depth)
    event("a fractional center" if "/" in want else "integral centers only")
    assert out == want


@settings(max_examples=60)
@given(G=drawn_groups((3, 5, 7)), max_length=st.integers(1, 5))
def test_heights_scan_csv_matches_csv_writer(csv_dir, G, max_length):
    """heights-scan's plain lines are the bytes csv.writer writes for the
    same rows."""
    path, out_path = csv_dir / "scan_group.json", csv_dir / "scan.csv"
    save_group(G, path)
    code, _ = _cli_text(
        ["heights-scan", str(path), "--max-length", str(max_length), "--out", str(out_path)]
    )
    assert code == 0
    assert out_path.read_bytes() == csv_oracle.heights_scan_csv(G, max_length).encode()


def test_output_files_reload(capsys, g5_file, tmp_path):
    from schottky.serialize import load_cover_csv, load_scan_csv

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


def test_thread_count_does_not_change_bytes(capsys, tmp_path):
    from schottky.groups import sample_group

    group = tmp_path / "g5r3.json"
    save_group(sample_group(5, 3), group)
    outs = []
    for flags in ([], ["--threads", "1"], ["--threads", "3"]):
        path = tmp_path / f"scan{len(outs)}.csv"
        code, out = run_cli(
            capsys, "heights-scan", str(group), "--max-length", "4", "--out", str(path), *flags
        )
        assert code == 0
        outs.append((out, path.read_bytes()))
    assert outs[0] == outs[1] == outs[2]


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
    proc = subprocess.run(
        [sys.executable, "-m", "schottky.cli", "reduce", g5_file, "--point", "inf"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"point": "inf", "word": "id"}


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a pooled heights scan imports the process pool, and only the
    commands that run them import geodesy and heights, so a plain command
    pays for none of them at startup."""
    code = (
        "import schottky.cli, sys; "
        "sys.exit(any(m in sys.modules for m in "
        "('multiprocessing', 'schottky.geodesy', 'schottky.heights')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env())
    assert proc.returncode == 0


def test_enumerate_streams_words_past_the_recursion_limit(g5_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "schottky.cli", "enumerate", g5_file, "--length", "3000"],
        stdout=subprocess.PIPE,
        text=True,
        env={**child_env(), "PYTHONUNBUFFERED": "1"},
    )
    try:
        first = proc.stdout.readline()
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    assert first == "*".join(["g1"] * 3000) + "\n"


def block_buffered_env():
    """``child_env()`` with the child's stdout block-buffered, as a pipe is
    by default, so output can wait in the buffer for the final flush."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv",
    (["enumerate", "--length", "12"], ["limit-cover", "--depth", "9"]),
    ids=("enumerate", "limit-cover"),
)
def test_closed_stdout_pipe_ends_quietly(g5_file, argv):
    """A reader that takes one line and closes the pipe leaves the command
    a nonzero exit and nothing on stderr: no traceback, no error line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "schottky.cli", argv[0], g5_file, *argv[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=block_buffered_env(),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=60)
        proc.stderr.close()
    assert first
    assert err == b""
    assert proc.returncode != 0


@pytest.mark.parametrize(
    "argv",
    (["enumerate", "--length", "x"], ["verify"], ["verify", "--help"]),
    ids=("argument-error", "verify", "help"),
)
def test_pipe_closed_before_the_first_line_ends_quietly(g5_file, argv):
    # the reader is gone before the command writes its output, which is
    # short enough to wait in the buffer until the command's last flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schottky.cli", argv[0], g5_file, *argv[1:]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=block_buffered_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode != 0


def sample_group_process(exponent, *flags):
    """``schottky sample-group --p 7 --rank 1`` at the exponent, in a child
    with the default 4,300-digit limit for integer text."""
    return subprocess.run(
        [sys.executable, "-m", "schottky.cli", "sample-group", "--p", "7", "--rank", "1"]
        + ["--multiplier-exponent", str(exponent), *flags],
        capture_output=True,
        text=True,
        env={**child_env(), "PYTHONINTMAXSTRDIGITS": "4300"},
        timeout=60,
    )


def test_sample_group_at_the_digit_limit_saves_and_verifies(tmp_path):
    # 7**5088 has 4,300 digits, and every entry fits the limit
    path = tmp_path / "g.json"
    proc = sample_group_process(5088, "--out", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert load_group(path).verify().all_passed


@pytest.mark.parametrize("exponent", (5090, 10**8, 2**1100))
def test_sample_group_past_the_digit_limit_is_an_error_line(tmp_path, exponent):
    """An entry past 4,300 digits could not be written or reloaded: one
    error line, exit 2, no stderr and no file; 10**8, and 2**1100, which
    is past the range of a float, are refused before p**e is formed."""
    path = tmp_path / "g.json"
    start = time.perf_counter()
    proc = sample_group_process(exponent, "--out", str(path))
    elapsed = time.perf_counter() - start
    assert_single_error_line(proc.returncode, proc.stdout)
    assert "more than 4300 decimal digits" in proc.stdout
    assert proc.stderr == ""
    assert not path.exists()
    if exponent >= 10**8:
        assert elapsed < 1.0


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


def test_geodesic_probe_past_the_state_cap_is_an_error_line(
    capsys, g5_file, tmp_path, monkeypatch
):
    from schottky import groups

    # the cross search passes 61 (key, last letter) states at depth 5
    monkeypatch.setattr(groups, "MAX_WALK_WORDS", 61)
    g25 = tmp_path / "g25.json"
    save_group(sample_group(5, 2, multiplier_exponent=4), g25)
    pair = tmp_path / "pair.json"
    identity = [["1", "0"], ["0", "1"]]
    pair.write_text(json.dumps({"gamma1": g5_file, "g": identity, "gamma2": str(g25), "depth": 5}))
    code = main(["geodesic-probe", str(pair)])
    out, err = capsys.readouterr()
    assert_single_error_line(code, out)
    assert err == ""
    assert json.loads(out)["error"].startswith("a coset search to depth 5 visits more than 61")


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


@pytest.mark.parametrize("precision", (64, 1, 0, -3, "x", 2.5, None))
def test_group_file_with_any_precision_still_verifies(capsys, g5, tmp_path, precision):
    # group files once carried a digit precision; the loader ignores it
    from schottky.serialize import canonical_json, group_to_dict

    data = group_to_dict(g5)
    assert "precision" not in data
    data["precision"] = precision
    path = tmp_path / "old.json"
    path.write_text(canonical_json(data))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["all_passed"] is True


@pytest.mark.parametrize("value", (5.9, 5.0, True), ids=("float", "integral_float", "bool"))
def test_float_or_boolean_prime_is_an_error_line(capsys, g5, tmp_path, value):
    from schottky.serialize import canonical_json, group_to_dict

    data = group_to_dict(g5)
    data["p"] = value
    path = tmp_path / "bad_p.json"
    path.write_text(canonical_json(data))
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert_single_error_line(code, out)
    assert err == ""
    assert json.loads(out)["error"] == "group.p: missing or not an integer"


@pytest.mark.parametrize("depth", (2.9, True), ids=("float", "bool"))
def test_float_or_boolean_pair_depth_is_an_error_line(capsys, g5_file, tmp_path, depth):
    pair = tmp_path / "pair.json"
    identity = [["1", "0"], ["0", "1"]]
    data = {"gamma1": g5_file, "g": identity, "gamma2": g5_file, "depth": depth}
    pair.write_text(json.dumps(data))
    code = main(["geodesic-probe", str(pair)])
    out, err = capsys.readouterr()
    assert_single_error_line(code, out)
    assert err == ""
    assert json.loads(out)["error"] == "pair.depth: missing or not an integer"


@pytest.mark.parametrize("text", ("\u0665", "0_5"), ids=("arabic_indic_digit", "underscore"))
def test_python_only_integer_text_is_an_error_line(capsys, g5, g5_file, tmp_path, text):
    """A prime or a pair depth written as integer text that int() reads
    but the ASCII grammar of the file does not is one error line, exit 2."""
    from schottky.serialize import canonical_json, group_to_dict

    data = group_to_dict(g5)
    data["p"] = text
    group = tmp_path / "bad_p.json"
    group.write_text(canonical_json(data))
    identity = [["1", "0"], ["0", "1"]]
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"gamma1": g5_file, "g": identity, "gamma2": g5_file, "depth": text}))
    for argv, error in (
        (["verify", str(group)], "group.p: missing or not an integer"),
        (["geodesic-probe", str(pair)], "pair.depth: missing or not an integer"),
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        assert_single_error_line(code, out)
        assert err == ""
        assert json.loads(out)["error"] == error


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


# flags that make each group subcommand succeed; every sweep case breaks one
_VALID_FLAGS = {
    "verify": [],
    "reduce": ["--point", "inf"],
    "limit-cover": ["--depth", "1"],
    "delta": ["--point", "inf", "--depth", "1"],
    "enumerate": ["--length", "1"],
    "heights-scan": ["--max-length", "2", "--out", "{dir}/scan.csv"],
    "upsilon": ["--max-length", "2"],
    "proper-fit": ["--depth", "1"],
    "stabilizer": ["--pair", "0,1", "--depth", "1"],
}


def _sweep_cases():
    """(id, argv) for every input each subcommand must refuse with an error
    line; {group}, {pair} and {dir} name files made by the test."""
    runs = {cmd: [cmd, "{group}", *flags] for cmd, flags in _VALID_FLAGS.items()}
    runs["geodesic-probe"] = ["geodesic-probe", "{pair}", "--depth", "1"]

    def with_flag(argv, flag, value):
        i = argv.index(flag)
        return argv[:i] + [f"{flag}={value}"] + argv[i + 2 :]

    for cmd, argv in runs.items():
        yield f"{cmd}-missing-file", [cmd, "{dir}/missing.json", *argv[2:]]
        yield f"{cmd}-directory", [cmd, "{dir}", *argv[2:]]
        for flag in ("--depth", "--length", "--max-length"):
            if flag in argv:
                # length 0 is valid for enumerate: the identity word
                for value in ("0", "-3") if cmd != "enumerate" else ("-3",):
                    yield f"{cmd}{flag}={value}", with_flag(argv, flag, value)
    for cmd in ("reduce", "delta"):
        # exponent and decimal forms are outside the "a/b" grammar
        for value in ("abc", "1/0", "", "1e5000", "1.5"):
            yield f"{cmd}--point={value}", with_flag(runs[cmd], "--point", value)
    yield "reduce--max-steps=-1", runs["reduce"] + ["--max-steps=-1"]
    yield "reduce--max-steps=1", with_flag(runs["reduce"], "--point", "-47/528") + ["--max-steps=1"]
    for cmd in ("heights-scan", "upsilon"):
        for value in ("0", "-2"):
            yield f"{cmd}--threads={value}", runs[cmd] + [f"--threads={value}"]
    for value in ("0", "inf,inf"):
        yield f"stabilizer--pair={value}", with_flag(runs["stabilizer"], "--pair", value)
    for cmd in ("heights-scan", "upsilon"):
        # the heights of g1^l on the {big} group pass the 4,300-digit text limit
        argv = with_flag(runs[cmd], "--max-length", "200")
        yield f"{cmd}-heights-past-digit-limit", [cmd, "{big}", *argv[2:]]
        # far more words than the scan cap, refused before any product
        yield f"{cmd}--max-length=huge", with_flag(runs[cmd], "--max-length", "1000000000")
        # on rank 1 the length is below the cap, and the walk stops at the
        # first height past the text limit, near length 3,076
        argv = with_flag(runs[cmd], "--max-length", "100000")
        yield f"{cmd}-rank-one-huge-length", [cmd, "{rank1}", *argv[2:]]
    for cmd in ("limit-cover", "proper-fit", "stabilizer"):
        # far more words than the walk cap, refused before the walk starts
        argv = with_flag(runs[cmd], "--depth", "1000000000")
        yield f"{cmd}--depth=huge", argv
        # a rank-1 cover has two disks at every depth, but its walk has 2 * depth words
        yield f"{cmd}-rank-one-huge-depth", [cmd, "{rank1}", *argv[2:]]
    # past the walk cap in levels, refused before any coset key
    yield "geodesic-probe--depth=huge", with_flag(runs["geodesic-probe"], "--depth", "1000000000")
    # the first depth past the walk cap on rank 2: 1,062,880 words
    yield "stabilizer--depth=12-huge-walk", with_flag(runs["stabilizer"], "--depth", "12")
    yield "geodesic-probe--window=0", ["geodesic-probe", "{pair}", "--window", "0"]
    yield "sample-group--p=4", ["sample-group", "--p", "4", "--rank", "2"]
    yield "sample-group--rank=0", ["sample-group", "--p", "5", "--rank", "0"]
    # 2r^2 + r axiom checks pass the walk cap from rank 500 on
    yield "sample-group--rank=huge", ["sample-group", "--p", "1009", "--rank", "500"]
    yield "verify-rank-500-file-huge", ["verify", "{rank500}"]
    yield "sample-group--multiplier-exponent=3", [
        "sample-group", "--p", "5", "--rank", "2", "--multiplier-exponent", "3"
    ]
    yield "usage-bad-int", ["delta", "{group}", "--point", "1", "--depth", "x"]
    yield "usage-missing-option", ["delta", "{group}", "--depth", "3"]
    yield "usage-bad-choice", ["limit-cover", "{group}", "--depth", "2", "--format", "xml"]
    yield "usage-unknown-command", ["frobnicate"]


_SWEEP = list(_sweep_cases())


def _sweep_argv(argv, g5_file, tmp_path):
    """The argv with the files it names made in tmp_path."""
    pair = tmp_path / "pair.json"
    identity = [["1", "0"], ["0", "1"]]
    pair.write_text(json.dumps({"gamma1": g5_file, "g": identity, "gamma2": g5_file, "depth": 2}))
    names = {"group": g5_file, "pair": str(pair), "dir": str(tmp_path)}
    if "{big}" in argv:
        names["big"] = str(tmp_path / "big.json")
        save_group(sample_group(5, 1, multiplier_exponent=40), names["big"])
    if "{rank500}" in argv:
        names["rank500"] = str(tmp_path / "rank500.json")
        data = group_to_dict(sample_group(5, 1))
        data.update({key: data[key] * 500 for key in ("generators", "B", "C")})
        Path(names["rank500"]).write_text(canonical_json(data))
    if "{rank1}" in argv:
        names["rank1"] = str(tmp_path / "rank1.json")
        save_group(sample_group(5, 1), names["rank1"])
    return [arg.format(**names) for arg in argv]


def _run(capsys, entry, argv):
    """(exit code, stdout, stderr) of one call of a CLI entry point."""
    try:
        code = entry(argv)
    except SystemExit as exc:  # argparse usage errors and help exit from inside main
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case, argv", _SWEEP, ids=[i for i, _ in _SWEEP])
def test_cli_error_sweep(capsys, g5_file, tmp_path, case, argv):
    argv = _sweep_argv(argv, g5_file, tmp_path)
    start = time.perf_counter()
    code, out, err = _run(capsys, main, argv)
    elapsed = time.perf_counter() - start
    if "huge" in case:
        assert elapsed < 1, f"refused after {elapsed:.2f} s"
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert list(error) == ["error"] and isinstance(error["error"], str)
    assert "Traceback" not in err
    assert not (tmp_path / "scan.csv").exists()  # refused before --out is opened


def _full_parser_main(argv):
    """``main`` as it ran when every call built the parser of all commands."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchottkyError, OSError) as exc:
        sys.stdout.write(canonical_json({"error": str(exc)}))
        return 2


# help, and argv whose first word is not a command or is followed by a stray one
_HELP_CASES = [
    ("help", ["--help"]),
    ("h", ["-h"]),
    ("no-arguments", []),
    ("leading-unknown-option", ["--bogus"]),
    ("option-before-command", ["--bogus", "verify", "{group}"]),
    ("command-prefix", ["verif", "{group}"]),
    ("extra-argument", ["verify", "{group}", "extra"]),
    ("command-help-before-file", ["verify", "-h", "{group}"]),
] + [(f"{name}-help", [name, "--help"]) for name in COMMANDS]


@pytest.mark.parametrize(
    "case, argv", _SWEEP + _HELP_CASES, ids=[i for i, _ in _SWEEP + _HELP_CASES]
)
def test_main_matches_the_full_parser(capsys, g5_file, tmp_path, case, argv):
    """A call that builds only its command's parser prints the same bytes
    and exits with the same code as one through the parser of all commands."""
    argv = _sweep_argv(argv, g5_file, tmp_path)
    assert _run(capsys, main, argv) == _run(capsys, _full_parser_main, argv)


def test_each_command_parser_matches_the_full_parser():
    """``build_parser(name)`` is the subparser that the full parser builds
    for ``name``, with no top-level parser around it."""
    (action,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    full = action.choices
    assert list(full) == list(COMMANDS)
    for name in COMMANDS:
        alone = build_parser(name)
        assert alone.prog == full[name].prog == f"schottky {name}"
        assert alone.format_help() == full[name].format_help()
        assert alone.get_default("func") is full[name].get_default("func")


def test_delta_at_depth_1000_finishes(capsys, g5_file):
    # 0 is the attracting fixed point of g1^-1: the descent runs the full
    # depth, taking valuations near twice the depth at every level
    start = time.perf_counter()
    code, out = run_cli(capsys, "delta", g5_file, "--point=0", "--depth", "1000")
    elapsed = time.perf_counter() - start
    assert code == 2
    word = "*".join(["g1^-1"] * 1000)
    assert json.loads(out) == {"error": f"0 lies in the depth-1000 cover disk of {word}"}
    assert elapsed < 5, f"took {elapsed:.2f} s"


# -- argv drawn from the command table ------------------------------------------

# (valid, malformed) values per argument; other int options draw from
# _SMALL_INTS, and options with choices from their choices
_POINTS = st.sampled_from(["inf", "0", "1", "7", "3/5", "-47/528"])
_BAD_POINTS = st.sampled_from(["abc", "1/0", "", "1.5", "1e5000", "inf,"])
_BAD_INTS = st.sampled_from(["x", "-2", "1.5", ""])
_SMALL_INTS = st.integers(0, 4)
_ARGUMENT_VALUES = {
    "group": (
        st.sampled_from(["{group}", "{group}", "{rank1}", "{unverified}"]),
        st.sampled_from(["{dir}/missing.json", "{dir}"]),
    ),
    "pair": (st.just("{pair}"), st.sampled_from(["{dir}/missing.json", "{group}"])),
    "--point": (_POINTS, _BAD_POINTS),
    "--pair": (
        st.builds("{},{}".format, _POINTS, _POINTS),
        st.sampled_from(["0", "a,b", "0,1,2", "inf,"]),
    ),
    "--out": (st.just("{dir}/out.csv"), st.just("{dir}/no-such-dir/out.csv")),
    "--depth": (st.integers(1, 4), _BAD_INTS),
    "--max-length": (st.integers(1, 4), _BAD_INTS),
    "--max-steps": (st.integers(0, 64), _BAD_INTS),
    "--threads": (st.just(1), _BAD_INTS),
    "--p": (st.sampled_from([3, 5, 7]), st.sampled_from(["4", "1", "-5", "x"])),
    "--rank": (st.integers(1, 2), _BAD_INTS),
    "--multiplier-exponent": (st.sampled_from([2, 4]), st.sampled_from(["3", "0", "x"])),
}


@st.composite
def command_argv(draw):
    """argv for one command of ``COMMANDS``: every argument of its table
    valid most of the time, else malformed or left out; an optional one is
    left out half the time."""
    name = draw(st.sampled_from(list(COMMANDS)))
    argv = [name]
    for flags, options in COMMANDS[name][2]:
        flag = flags[0]
        if flag in _ARGUMENT_VALUES:
            valid, malformed = _ARGUMENT_VALUES[flag]
        elif "choices" in options:
            valid, malformed = st.sampled_from(options["choices"]), st.just("xml")
        else:
            assert options.get("type") is int, f"{name} {flag} needs an entry in _ARGUMENT_VALUES"
            valid, malformed = _SMALL_INTS, _BAD_INTS
        positional = not flag.startswith("-")
        if not (positional or options.get("required")) and draw(st.booleans()):
            continue
        kind = draw(st.sampled_from(["valid"] * 10 + ["malformed", "left out"]))
        if kind == "left out":
            continue
        value = str(draw(valid if kind == "valid" else malformed))
        argv.append(value if positional else f"{flag}={value}")
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The files that drawn argv name, made once for the module."""
    from schottky.serialize import group_to_dict

    d = tmp_path_factory.mktemp("argv")
    names = {"dir": str(d)}
    for key, G in (("group", sample_group(5, 2)), ("rank1", sample_group(5, 1))):
        names[key] = str(d / f"{key}.json")
        save_group(G, names[key])
    data = group_to_dict(sample_group(5, 2))
    data["C"][1] = dict(data["B"][1])  # a duplicate disk fails verification
    names["unverified"] = str(d / "unverified.json")
    Path(names["unverified"]).write_text(canonical_json(data))
    identity = [["1", "0"], ["0", "1"]]
    names["pair"] = str(d / "pair.json")
    Path(names["pair"]).write_text(
        json.dumps({"gamma1": names["group"], "g": identity, "gamma2": names["rank1"], "depth": 2})
    )
    return names


def _call(entry, argv):
    """(exit code, stdout, stderr) of one call of a CLI entry point, for
    hypothesis tests, which cannot take the capsys fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(argv=command_argv())
def test_drawn_argv_exits_cleanly(argv_files, argv):
    """Every drawn call exits 0, or prints exactly one {"error": ...} line
    and exits 2 (1 for a group that fails verify); no other exception
    escapes, and usage errors exit through SystemExit(2)."""
    argv = [arg.format(**argv_files) for arg in argv]
    code, out, err = _call(main, argv)
    event(f"{argv[0]} exit {code}")
    assert "Traceback" not in err
    if code == 0:
        return
    lines = out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    if code == 1:
        assert argv[0] == "verify" and result["all_passed"] is False
    else:
        assert code == 2
        assert list(result) == ["error"] and isinstance(result["error"], str)


@st.composite
def argv_with_strays(draw):
    """A drawn command argv with one to three stray tokens put after the
    command: ``--``, ``-h``, an extra positional, a repeated option and an
    option abbreviated to a unique prefix of its flag."""
    argv = draw(command_argv())
    name = argv[0]
    flags = ["--help"] + [f[0] for f, _ in COMMANDS[name][2] if f[0].startswith("-")]
    strays = ["--", "-h", "extra"]
    options = [token for token in argv[1:] if token.startswith("--")]
    if options:
        option = draw(st.sampled_from(options))
        strays.append(option)
        flag, _, value = option.partition("=")
        shortest = next(
            k for k in range(3, len(flag) + 1) if sum(f.startswith(flag[:k]) for f in flags) == 1
        )
        prefix = flag[: draw(st.integers(shortest, max(shortest, len(flag) - 1)))]
        strays.append(f"{prefix}={value}")
    for stray in draw(st.lists(st.sampled_from(strays), min_size=1, max_size=3)):
        argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


@settings(max_examples=300)
@given(argv=argv_with_strays())
def test_drawn_argv_matches_the_full_parser(argv_files, argv):
    """A drawn call through its command's own parser prints the same
    stdout and stderr and exits with the same code as one through the
    parser of all commands, stray tokens included."""
    argv = [arg.format(**argv_files) for arg in argv]
    got = _call(main, argv)
    event(f"exit {got[0]}")
    assert got == _call(_full_parser_main, argv)
