"""Canonical file formats.

Exact values serialize as their str(): "a" or "a/b" in lowest terms;
points add "inf".
Group files carry the prime, the digit precision, generator matrices in
row-major rational strings, and the two disk lists.  Serialization is
canonical (sorted keys, exact strings), so parse-then-serialize is the
identity on canonical files and outputs diff cleanly.
"""

from __future__ import annotations

import csv
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Tuple

from .disks import Disk
from .errors import FormatError
from .groups import SchottkyGroup
from .padic import DEFAULT_PRECISION, PrimeContext
from .proj import Homography, ProjPoint
from .words import Word

FORMAT_VERSION = 1

_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def parse_rational(text: str, field: str = "rational") -> Fraction:
    """The rational "a/b" or "a", with optional sign and surrounding
    whitespace; anything else, a zero denominator included, is a FormatError."""
    s = str(text)
    try:
        if _RATIONAL.fullmatch(s):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):  # ValueError: past int's digit limit
        pass
    raise FormatError(f"{field}: cannot parse rational {text!r}")


def point_str(x: ProjPoint) -> str:
    return str(x)


def parse_point(text: str, field: str = "point") -> ProjPoint:
    text = str(text).strip()
    if text in ("inf", "oo", "infinity"):
        return ProjPoint.infinity()
    return ProjPoint(parse_rational(text, field))


def homography_to_lists(g: Homography):
    a, b, c, d = g.entries
    return [[str(a), str(b)], [str(c), str(d)]]


def parse_homography(data, field: str = "matrix") -> Homography:
    try:
        (a, b), (c, d) = data
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{field}: expected [[a,b],[c,d]]") from exc
    entries = [parse_rational(x, field) for x in (a, b, c, d)]
    try:
        return Homography(*entries)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc


def disk_to_dict(D: Disk) -> dict:
    return {
        "kind": "bounded" if D.bounded else "unbounded",
        "open": D.is_open,
        "center": str(D.center),
        "radius_exp": str(D.radius_exp),
    }


def parse_disk(data: dict, p: int, field: str = "disk") -> Disk:
    if not isinstance(data, dict):
        raise FormatError(f"{field}: expected a JSON object")
    try:
        kind = data["kind"]
        is_open = data["open"]
        center = parse_rational(data["center"], f"{field}.center")
        radius_exp = parse_rational(data["radius_exp"], f"{field}.radius_exp")
    except KeyError as exc:
        raise FormatError(f"{field}: missing key {exc}") from exc
    if kind not in ("bounded", "unbounded"):
        raise FormatError(f"{field}.kind: expected bounded|unbounded, got {kind!r}")
    if not isinstance(is_open, bool):
        raise FormatError(f"{field}.open: expected a boolean")
    return Disk(kind == "bounded", is_open, center, radius_exp, p)


def group_to_dict(G: SchottkyGroup) -> dict:
    return {
        "version": FORMAT_VERSION,
        "p": G.p,
        "precision": G.ctx.precision,
        "generators": [homography_to_lists(g) for g in G.generators],
        "B": [disk_to_dict(D) for D in G.B],
        "C": [disk_to_dict(D) for D in G.C],
    }


def group_from_dict(data: dict, field: str = "group") -> SchottkyGroup:
    if not isinstance(data, dict):
        raise FormatError(f"{field}: expected a JSON object")
    try:
        p = int(data["p"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise FormatError(f"{field}.p: missing or not an integer")
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise FormatError(f"{field}.version: unsupported version {version}")
    try:
        precision = int(data.get("precision", DEFAULT_PRECISION))
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{field}.precision: expected an integer")
    try:
        ctx = PrimeContext(p, precision)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc
    for key in ("generators", "B", "C"):
        if key not in data:
            raise FormatError(f"{field}.{key}: missing")
        if not isinstance(data[key], list):
            raise FormatError(f"{field}.{key}: expected a list")
    generators = [
        parse_homography(m, f"{field}.generators[{i}]") for i, m in enumerate(data["generators"])
    ]
    B = [parse_disk(d, p, f"{field}.B[{i}]") for i, d in enumerate(data["B"])]
    C = [parse_disk(d, p, f"{field}.C[{i}]") for i, d in enumerate(data["C"])]
    try:
        return SchottkyGroup(ctx, generators, B, C)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not text, or a NUL in the path
        raise FormatError(f"{path}: {exc}") from exc


def load_group(path) -> SchottkyGroup:
    return group_from_dict(_read_json(Path(path)))


def save_group(G: SchottkyGroup, path):
    Path(path).write_text(canonical_json(group_to_dict(G)))


def pair_from_dict(data: dict, base_dir=None) -> Tuple[SchottkyGroup, Homography, SchottkyGroup, int]:
    if not isinstance(data, dict):
        raise FormatError("pair: expected a JSON object")

    def resolve_group(value, field):
        if isinstance(value, str):
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            try:
                return load_group(path)
            except (OSError, FormatError) as exc:
                raise FormatError(f"{field}: {exc}") from exc
        return group_from_dict(value, field)

    for key in ("gamma1", "g", "gamma2", "depth"):
        if key not in data:
            raise FormatError(f"pair.{key}: missing")
    G1 = resolve_group(data["gamma1"], "pair.gamma1")
    G2 = resolve_group(data["gamma2"], "pair.gamma2")
    g = parse_homography(data["g"], "pair.g")
    try:
        depth = int(data["depth"])
    except (TypeError, ValueError, OverflowError):
        raise FormatError("pair.depth: expected an integer")
    return G1, g, G2, depth


def load_pair(path) -> Tuple[SchottkyGroup, Homography, SchottkyGroup, int]:
    path = Path(path)
    return pair_from_dict(_read_json(path), base_dir=path.parent)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_csv(path, kind, header, parse_row):
    """parse_row applied to the fields of each row of a CSV export; a row
    that does not parse raises FormatError with the path and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames != header:
                raise FormatError(f"{path}: unexpected {kind} CSV header {reader.fieldnames}")
            rows = []
            for row in reader:
                fields = [row[name] for name in header]
                if None in fields:
                    raise FormatError(f"{path}:{reader.line_num}: expected {len(header)} fields")
                rows.append(parse_row(*fields))
            return rows
        except (csv.Error, ValueError) as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc


def load_cover_csv(path):
    """Rows of a limit-cover export: (word, center, radius exponent)."""
    return _load_csv(
        path,
        "cover",
        ["word", "center", "radius_exp"],
        lambda word, center, radius_exp: (
            Word.parse(word),
            parse_rational(center, "center"),
            parse_rational(radius_exp, "radius_exp"),
        ),
    )


def load_scan_csv(path):
    """Rows of a height-scan export: (length, word, height, threshold bin)."""
    return _load_csv(
        path,
        "scan",
        ["length", "word", "height", "threshold_bin"],
        lambda length, word, height, threshold_bin: (
            int(length), Word.parse(word), int(height), int(threshold_bin)
        ),
    )
