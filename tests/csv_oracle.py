"""Reference CSV text of the ``limit-cover`` and ``heights-scan`` tables.

Both tables are written here through ``csv.writer`` with its default
minimal quoting, as the CLI wrote them before it formatted each row as
one plain comma-joined line.  ``test_cli.py`` compares the CLI's bytes
with these.
"""

import csv
import io
import itertools

from schottky.heights import upsilon_scan
from schottky.words import Word


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def limit_cover_csv(G, depth):
    """The text of ``schottky limit-cover --depth <depth>`` on G."""
    return _csv_text(
        ("word", "center", "radius_exp"),
        (
            (str(word), str(disk.center_point()), str(disk.radius_exp))
            for word, disk in G.limit_cover(depth).entries
        ),
    )


def heights_scan_csv(G, max_length):
    """The text of the file ``schottky heights-scan --max-length <max_length>``
    writes for G: one row per positive word in the order of product()."""
    scan = upsilon_scan(G, max_length)
    words = [
        Word(letters)
        for n in range(1, max_length + 1)
        for letters in itertools.product(range(1, G.rank + 1), repeat=n)
    ]
    return _csv_text(
        ("length", "word", "height", "threshold_bin"),
        ((len(w), str(w), h, scan.threshold_bin(h)) for w, h in zip(words, scan.entries)),
    )
