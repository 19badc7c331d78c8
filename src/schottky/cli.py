"""Command-line front end.

Every subcommand reads canonical JSON/CSV and writes deterministic
output: identical inputs and flags give byte-identical bytes, and
--threads only changes wall time.  Failures exit nonzero with a
machine-readable {"error": ...} line.  ``geodesy`` and ``heights`` are
imported by the handlers that run them, so other commands do not load
them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import AxiomViolation, SchottkyError
from .groups import sample_group
from .serialize import (
    canonical_json,
    group_to_dict,
    load_group,
    load_pair,
    parse_point,
    save_group,
)
from .words import Word, letter_name


def _emit(obj):
    sys.stdout.write(canonical_json(obj))


def cmd_verify(args) -> int:
    try:
        report = load_group(args.group).verify()
    except AxiomViolation as exc:  # a group that fails an axiom is not built
        report = exc.report
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
    rows = [
        (str(word), str(disk.center_point()), str(disk.radius_exp)) for word, disk in cover.entries
    ]
    if args.format == "csv":
        # plain lines: no field holds a comma, a quote or a line break, so
        # csv's minimal quoting would write the same bytes
        sys.stdout.write(",".join(fields) + "\n")
        sys.stdout.writelines(f"{word},{center},{exp}\n" for word, center, exp in rows)
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
    from . import heights

    G = load_group(args.group)
    scan = heights.upsilon_scan(G, args.max_length, workers=args.threads)
    letters = range(1, G.rank + 1)
    tails = ["*" + letter_name(l) for l in letters]
    names = [str(Word((l,))) for l in letters]
    threshold_bin = scan.threshold_bin
    start = 0
    with open(args.out, "w", newline="") as fh:
        # plain lines, as in limit-cover: integers and word names need no quoting
        fh.write("length,word,height,threshold_bin\n")
        for length in range(1, scan.max_length + 1):
            if length > 1:
                # the entries run in product() order: each name of the last
                # level, extended by every letter in turn
                names = [name + tail for name in names for tail in tails]
            level = scan.entries[start : start + len(names)]
            start += len(names)
            fh.writelines(
                f"{length},{name},{height},{threshold_bin(height)}\n"
                for name, height in zip(names, level)
            )
    _emit(scan.summary_dict())
    return 0


def cmd_upsilon(args) -> int:
    from . import heights

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
    from . import geodesy

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
    from . import geodesy

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
        self.exit(2)

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # in main's try, so a closed pipe ends there quietly
        super().exit(status, message)


def _arg(*flags, **options):
    return flags, options


_GROUP = _arg("group", help="group spec JSON file")

# name -> (handler, help, arguments), in the order the full help lists them
COMMANDS = {
    "verify": (cmd_verify, "check the good-domain axioms; exit 0 iff all pass", (_GROUP,)),
    "reduce": (
        cmd_reduce,
        "ping-pong a point into the fundamental domain",
        (
            _GROUP,
            _arg("--point", required=True, help='rational point, e.g. "3/5" or "inf"'),
            _arg("--max-steps", type=int, default=64),
        ),
    ),
    "limit-cover": (
        cmd_limit_cover,
        "closed word disks covering the limit set",
        (
            _GROUP,
            _arg("--depth", type=int, required=True),
            _arg("--format", choices=("csv", "json"), default="csv"),
        ),
    ),
    "delta": (
        cmd_delta,
        "certified interval for the distance to the limit set",
        (_GROUP, _arg("--point", required=True), _arg("--depth", type=int, required=True)),
    ),
    "enumerate": (
        cmd_enumerate,
        "stream reduced words of the given length",
        (_GROUP, _arg("--length", type=int, required=True)),
    ),
    "heights-scan": (
        cmd_heights_scan,
        "positive-word height scan to CSV",
        (
            _GROUP,
            _arg("--max-length", type=int, required=True),
            _arg("--out", required=True, help="output CSV path"),
            _arg("--threads", type=int, default=1),
        ),
    ),
    "upsilon": (
        cmd_upsilon,
        "counting scan with fitted log-log slope",
        (
            _GROUP,
            _arg("--max-length", type=int, required=True),
            _arg("--threads", type=int, default=1),
        ),
    ),
    "proper-fit": (
        cmd_proper_fit,
        "fit word-length vs distance envelope constants",
        (_GROUP, _arg("--depth", type=int, required=True)),
    ),
    "stabilizer": (
        cmd_stabilizer,
        "search for a word stabilizing a point pair",
        (
            _GROUP,
            _arg("--pair", required=True, help='two points, e.g. "0,1"'),
            _arg("--depth", type=int, required=True),
        ),
    ),
    "geodesic-probe": (
        cmd_geodesic_probe,
        "double-coset commensurability probe",
        (
            _arg("pair", help="pair spec JSON file"),
            _arg("--depth", type=int, default=None, help="override the file's depth"),
            _arg("--window", type=int, default=None),
        ),
    ),
    "sample-group": (
        cmd_sample_group,
        "emit a verified sample group spec",
        (
            _arg("--p", type=int, required=True),
            _arg("--rank", type=int, required=True),
            _arg("--multiplier-exponent", type=int, default=2),
            _arg("--out", default=None, help="write to a file instead of stdout"),
        ),
    ),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command in ``COMMANDS``, or the named command's own.

    A request names its command first, and ``main`` parses the rest of it
    with that command's parser alone; the full parser serves help, a
    missing or unknown command and a leading option.  A command's own
    parser has the prog "schottky NAME" that argparse gives its subparser,
    so help, usage and error lines are the same bytes either way.
    """
    if command is not None:
        return _fill(_Parser(prog=f"schottky {command}"), command)
    parser = _Parser(
        prog="schottky",
        description="Exact calculus for p-adic Schottky groups with good fundamental domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, _) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_), name)
    return parser


def _fill(parser, command):
    func, _, arguments = COMMANDS[command]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        # the full parser hands every token after the command to its
        # subparser unchanged, so parsing them alone gives the same result
        parser, argv = build_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)  # an argument error may meet a closed pipe
        code = args.func(args)
        sys.stdout.flush()  # meet a closed pipe here, not at the interpreter's final flush
        return code
    except (SchottkyError, OSError) as exc:
        try:
            sys.stdout.write(canonical_json({"error": str(exc)}))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout: end quietly, and send what is still
            # buffered, at the interpreter's final flush, to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        return 2


if __name__ == "__main__":
    sys.exit(main())
