"""Command-line front end.

Every subcommand reads canonical JSON/CSV and writes deterministic
output: identical inputs and flags give byte-identical bytes, and
--threads only changes wall time.  Failures exit nonzero with a
machine-readable {"error": ...} line.
"""

from __future__ import annotations

import argparse
import csv
import sys
from . import geodesy, heights
from .errors import SchottkyError
from .groups import sample_group
from .serialize import (
    canonical_json,
    group_to_dict,
    load_group,
    load_pair,
    parse_point,
    save_group,
)


def _emit(obj):
    sys.stdout.write(canonical_json(obj))


def cmd_verify(args) -> int:
    G = load_group(args.group)
    report = G.verify()
    _emit(report.to_dict())
    return 0 if report.all_passed else 1


def cmd_reduce(args) -> int:
    G = load_group(args.group)
    word, y = G.reduce_point(parse_point(args.point), args.max_steps)
    _emit({"word": str(word), "point": str(y)})
    return 0


def cmd_limit_cover(args) -> int:
    G = load_group(args.group)
    cover = G.limit_cover(args.depth)
    fields = ("word", "center", "radius_exp")
    rows = [(str(word), str(disk.center), str(disk.radius_exp)) for word, disk in cover.entries]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)
    else:
        _emit(
            {
                "depth": cover.depth,
                "max_radius_exp": str(cover.max_radius_exponent),
                "disks": [dict(zip(fields, row)) for row in rows],
            }
        )
    return 0


def cmd_delta(args) -> int:
    G = load_group(args.group)
    bound = G.delta_to_limit(parse_point(args.point), args.depth)
    _emit(
        {
            "depth": bound.depth,
            "lower_exp": str(bound.lower_exponent),
            "upper_exp": str(bound.upper_exponent),
        }
    )
    return 0


def cmd_enumerate(args) -> int:
    G = load_group(args.group)
    for word in G.enumerate_words(args.length):
        sys.stdout.write(str(word) + "\n")
    return 0


def cmd_heights_scan(args) -> int:
    G = load_group(args.group)
    scan = heights.upsilon_scan(G, args.max_length, workers=args.threads)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["length", "word", "height", "threshold_bin"])
        for length, word, height in scan.entries:
            writer.writerow([length, str(word), height, scan.threshold_bin(height)])
    _emit(scan.summary_dict())
    return 0


def cmd_upsilon(args) -> int:
    G = load_group(args.group)
    scan = heights.upsilon_scan(G, args.max_length, workers=args.threads)
    _emit(scan.summary_dict())
    return 0


def cmd_proper_fit(args) -> int:
    G = load_group(args.group)
    fit = G.fit_proper_constants(args.depth)
    _emit(
        {
            "a": str(fit.a),
            "b": str(fit.b),
            "a_float": float(fit.a),
            "b_float": float(fit.b),
            "depth": fit.depth,
            "samples": fit.sample_count,
        }
    )
    return 0


def cmd_stabilizer(args) -> int:
    G = load_group(args.group)
    try:
        raw_x, raw_y = args.pair.split(",")
    except ValueError:
        raise SchottkyError('expected --pair "x,y"')
    result = geodesy.pair_stabilizer(G, (parse_point(raw_x), parse_point(raw_y)), args.depth)
    _emit(
        {
            "word": None if result.word is None else str(result.word),
            "multiplier": None if result.multiplier is None else str(result.multiplier),
        }
    )
    return 0


def cmd_geodesic_probe(args) -> int:
    G1, g, G2, depth = load_pair(args.pair)
    if args.depth is not None:
        depth = args.depth
    report = geodesy.double_coset_scan(G1, g, G2, depth, window=args.window)
    _emit(report.to_dict())
    return 0


def cmd_sample_group(args) -> int:
    G = sample_group(args.p, args.rank, args.multiplier_exponent)
    if args.out:
        save_group(G, args.out)
    else:
        _emit(group_to_dict(G))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are {"error": ...} lines too; subparsers inherit this
    class, and --help is unchanged."""

    def error(self, message):
        _emit({"error": message})
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schottky",
        description="Exact calculus for p-adic Schottky groups with good fundamental domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group_cmd(name, func, help_):
        s = sub.add_parser(name, help=help_)
        s.add_argument("group", help="group spec JSON file")
        s.set_defaults(func=func)
        return s

    s = group_cmd("verify", cmd_verify, "check the good-domain axioms; exit 0 iff all pass")

    s = group_cmd("reduce", cmd_reduce, "ping-pong a point into the fundamental domain")
    s.add_argument("--point", required=True, help='rational point, e.g. "3/5" or "inf"')
    s.add_argument("--max-steps", type=int, default=64)

    s = group_cmd("limit-cover", cmd_limit_cover, "closed word disks covering the limit set")
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")

    s = group_cmd("delta", cmd_delta, "certified interval for the distance to the limit set")
    s.add_argument("--point", required=True)
    s.add_argument("--depth", type=int, required=True)

    s = group_cmd("enumerate", cmd_enumerate, "stream reduced words of the given length")
    s.add_argument("--length", type=int, required=True)

    s = group_cmd("heights-scan", cmd_heights_scan, "positive-word height scan to CSV")
    s.add_argument("--max-length", type=int, required=True)
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--threads", type=int, default=1)

    s = group_cmd("upsilon", cmd_upsilon, "counting scan with fitted log-log slope")
    s.add_argument("--max-length", type=int, required=True)
    s.add_argument("--threads", type=int, default=1)

    s = group_cmd("proper-fit", cmd_proper_fit, "fit word-length vs distance envelope constants")
    s.add_argument("--depth", type=int, required=True)

    s = group_cmd("stabilizer", cmd_stabilizer, "search for a word stabilizing a point pair")
    s.add_argument("--pair", required=True, help='two points, e.g. "0,1"')
    s.add_argument("--depth", type=int, required=True)

    s = sub.add_parser("geodesic-probe", help="double-coset commensurability probe")
    s.add_argument("pair", help="pair spec JSON file")
    s.add_argument("--depth", type=int, default=None, help="override the file's depth")
    s.add_argument("--window", type=int, default=None)
    s.set_defaults(func=cmd_geodesic_probe)

    s = sub.add_parser("sample-group", help="emit a verified sample group spec")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--multiplier-exponent", type=int, default=2)
    s.add_argument("--out", default=None, help="write to a file instead of stdout")
    s.set_defaults(func=cmd_sample_group)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchottkyError, OSError) as exc:
        sys.stdout.write(canonical_json({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
