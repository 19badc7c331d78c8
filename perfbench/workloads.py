"""The four workloads: inputs from a seed, one timed batch, output checks.

A workload is a closed-loop stream of batches.  ``prepare`` builds a
batch's inputs untimed, including fresh groups so that every batch runs
on cold group caches; ``execute`` is the timed body; ``check`` decides,
untimed, whether every operation in the batch gave the right output.

Seed 0 uses the acceptance-test inputs (the worked p = 5 group, the
identity cross multiplier and the first generator as inner multiplier).
Other seeds change only inputs of the same size: the prime, the inner
multiplier, the order of the generators and the query points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import itertools
import os
import random
import time
from fractions import Fraction

PRIMES = (5, 7, 11)
SCAN_PRIMES = (5, 7)

FIT_DEPTH = 5
COSET_DEPTH = 6
SCAN_LENGTH = 9
DELTA_DEPTH = 32
COVER_DEPTH = 6
MAX_REDUCE_LENGTH = 12

# One cli_queries batch: nine delta, nine reduce, one verify, one limit-cover.
BATCH_MIX = ("delta",) * 9 + ("reduce",) * 9 + ("verify", "limit-cover")
# The stream digest covers the first batches of a run, which every run makes.
DIGEST_BATCHES = 5


def prime_for(seed: int) -> int:
    return PRIMES[seed % len(PRIMES)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    """(exit code, stdout text) of one in-process ``schottky`` CLI call."""
    from schottky import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Outcome:
    """Operations attempted and failed in one batch, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def expect(self, ok: bool, reason: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


class ProperFit:
    """Envelope fit: wide, shallow branch-and-bound in delta_to_limit with
    heavy cover-cache reuse, dominated by disk and valuation arithmetic."""

    name = "proper_fit"
    item = "envelope samples"
    # entry points the traced run must see called at least once
    uses = (
        "padic.valuation", "disks.image", "disks.contains", "disks.closure",
        "disks.point_to_disk_delta", "proj.compose", "proj.apply", "proj.delta",
        "words.word", "groups.delta_to_limit",
    )

    def __init__(self, seed, work, expected):
        from schottky import groups

        self.p = prime_for(seed)
        self.expected = expected.get(str(self.p))
        groups.sample_group(self.p, 2)
        # infinity plus one point on each of the four boundary circles
        self.items = 5 * (1 + sum(4 * 3 ** (n - 1) for n in range(1, FIT_DEPTH + 1)))

    def prepare(self, index):
        from schottky import groups

        return groups.sample_group(self.p, 2)

    def execute(self, G):
        captured = []
        original = G.envelope_samples

        def envelope_samples(depth):
            captured.append(original(depth))
            return captured[-1]

        G.envelope_samples = envelope_samples  # keeps the samples for the check
        return G.fit_proper_constants(FIT_DEPTH), captured[0]

    def check(self, G, result, outcome):
        fit, samples = result
        ok = fit.sample_count == len(samples) == self.items and all(
            Fraction(length) <= fit.a + fit.b * t for length, t in samples
        )
        outcome.expect(ok, "envelope inequality or sample count")
        if self.expected is not None:
            got = {"a": str(fit.a), "b": str(fit.b)}
            outcome.expect(got == self.expected, f"(a, b) = {got}, want {self.expected}")

    def record(self, results):
        fit, _ = results[0]
        return {str(self.p): {"a": str(fit.a), "b": str(fit.b)}}


class CosetProbe:
    """Double-coset probe: a growing cross-multiplier scan and a stabilizing
    inner scan; reduction, homography arithmetic and boundary letters."""

    name = "coset_probe"
    item = "coset candidates"
    uses = (
        "padic.valuation", "disks.contains", "proj.compose", "proj.apply",
        "proj.inverse", "groups.reduce", "groups.boundary_letter",
        "geodesy.double_coset_scan",
    )

    def __init__(self, seed, work, expected):
        from schottky import groups

        self.p = prime_for(seed)
        self.inner_letter = (1, -1, 2, -2)[(seed // len(PRIMES)) % 4]
        self.expected = expected.get(str(self.p))
        groups.sample_group(self.p, 2)
        groups.sample_group(self.p, 2, 4)
        per_direction = 1 + sum(4 * 3 ** (n - 1) for n in range(1, COSET_DEPTH + 1))
        self.items = 4 * per_direction  # two scans, each forward and reverse

    def prepare(self, index):
        from schottky import groups

        return groups.sample_group(self.p, 2), groups.sample_group(self.p, 2, 4)

    def execute(self, groups_pair):
        from schottky import geodesy
        from schottky.proj import Homography

        G1, G2 = groups_pair
        cross = geodesy.double_coset_scan(G1, Homography.identity(), G2, COSET_DEPTH)
        inner = geodesy.double_coset_scan(G1, G1.generator(self.inner_letter), G1, COSET_DEPTH)
        return cross, inner

    def check(self, groups_pair, result, outcome):
        from schottky.geodesy import Verdict

        cross, inner = result
        ones = (1,) * (COSET_DEPTH + 1)
        counts = cross.coset_counts
        outcome.expect(
            all(a < b for a, b in zip(counts, counts[1:]))
            and cross.verdict is Verdict.GROWING_NO_EVIDENCE
            and (self.expected is None or list(counts) == self.expected),
            f"cross counts {counts}, verdict {cross.verdict}",
        )
        outcome.expect(
            inner.coset_counts == ones
            and inner.reverse_counts == ones
            and inner.verdict is Verdict.STABILIZED,
            f"inner counts {inner.coset_counts}/{inner.reverse_counts}",
        )

    def record(self, results):
        return {str(self.p): list(results[0][0].coset_counts)}


class HeightCount:
    """Positive-word height scan through the CLI: big-int products, height
    thresholds, the process pool and the CSV write; no disk calculus."""

    name = "height_count"
    item = "positive words"
    uses = (
        "proj.compose", "words.word", "heights.upsilon_scan", "heights.threshold_bin",
        "serialize.load_group", "serialize.canonical_json", "cli.main",
    )

    def __init__(self, seed, work, expected):
        from schottky import groups, serialize

        # p = 11 makes every product wider and the scan measurably slower
        self.p = SCAN_PRIMES[seed % len(SCAN_PRIMES)]
        G = groups.sample_group(self.p, 3)
        # seeds past the primes reorder the generators, with their disks
        order = list(itertools.permutations(range(3)))[(seed // len(SCAN_PRIMES)) % 6]
        G = groups.SchottkyGroup(
            G.ctx,
            [G.generators[i] for i in order],
            [G.B[i] for i in order],
            [G.C[i] for i in order],
        )
        self.key = f"{self.p}:{''.join(str(i) for i in order)}"
        self.expected = expected.get(self.key)
        self.path = os.path.join(work, "height_group.json")
        self.out = os.path.join(work, "height_scan.csv")
        serialize.save_group(G, self.path)
        serialize.load_group(self.path).ensure_verified()
        self.threads = len(os.sched_getaffinity(0))
        self.items = sum(3**n for n in range(1, SCAN_LENGTH + 1))
        self.checked = None  # digests of the first batch that passed

    def prepare(self, index):
        if os.path.exists(self.out):
            os.remove(self.out)
        return None

    def execute(self, _):
        argv = [
            "heights-scan", self.path, "--max-length", str(SCAN_LENGTH),
            "--out", self.out, "--threads", str(self.threads),
        ]
        return run_cli(argv)

    def _digests(self, text):
        with open(self.out) as fh:
            return {"csv": sha256(fh.read()), "summary": sha256(text)}

    def check(self, _, result, outcome):
        from schottky.serialize import load_scan_csv

        code, text = result
        if code != 0:
            outcome.expect(False, f"heights-scan exit {code}: {text[:120]!r}")
            return
        digests = self._digests(text)
        if self.checked is None:
            # the first good batch is parsed in full; later ones must repeat its bytes
            summary = json.loads(text)
            rows = len(load_scan_csv(self.out))
            ok = (
                summary["max_length"] == SCAN_LENGTH
                and summary["generators"] == 3
                and rows == self.items
                and self.expected in (None, digests)
            )
            outcome.expect(ok, f"{rows} rows, digests {digests}")
            if ok:
                self.checked = digests
        else:
            outcome.expect(digests == self.checked, f"digests {digests} differ from batch 0")

    def record(self, results):
        return {self.key: self._digests(results[0][1])}


class CliQueries:
    """A stream of single CLI requests against a group file: deep, narrow
    delta searches on a freshly loaded group, reductions of word images,
    verification and a limit cover."""

    name = "cli_queries"
    item = "CLI requests"
    uses = (
        "padic.valuation", "disks.image", "disks.point_to_disk_delta", "proj.compose",
        "proj.apply", "groups.delta_to_limit", "groups.reduce", "groups.limit_cover",
        "serialize.load_group", "serialize.canonical_json", "cli.main",
    )

    def __init__(self, seed, work, expected):
        from schottky import groups, serialize
        from schottky.proj import ProjPoint

        self.seed = seed
        self.p = prime_for(seed)
        self.path = os.path.join(work, "query_group.json")
        serialize.save_group(groups.sample_group(self.p, 2), self.path)
        self.G = serialize.load_group(self.path)
        self.verify_text = serialize.canonical_json(self.G.verify().to_dict())
        self.expected_cover = expected.get("limit_cover", {}).get(str(self.p))
        self.expected_stream = expected.get("stream", {}).get(str(seed))
        rng = random.Random(f"cli_queries:{seed}:bases")
        self.bases = []
        while len(self.bases) < 40:
            x = ProjPoint(Fraction(rng.randint(-600, 600), rng.randint(1, 120)))
            if self.G.in_domain(x, interior=True):
                self.bases.append(x)
        self.items = len(BATCH_MIX)
        self.stream_digest = hashlib.sha256()
        self.batches_seen = 0

    def _word(self, rng, length):
        from schottky.words import Word

        letters = []
        while len(letters) < length:
            letter = rng.choice(self.G.letters())
            if not (letters and letters[-1] == -letter):
                letters.append(letter)
        return Word(letters)

    def prepare(self, index):
        from schottky.serialize import point_str

        rng = random.Random(f"cli_queries:{self.seed}:{index}")
        kinds = list(BATCH_MIX)
        rng.shuffle(kinds)
        requests = []
        deep_delta = rng.randrange(BATCH_MIX.count("delta"))
        for kind in kinds:
            if kind == "delta":
                # one delta request per batch lies inside the depth-32 cover
                if deep_delta == 0:
                    length = rng.randint(DELTA_DEPTH + 1, DELTA_DEPTH + 4)
                else:
                    length = rng.randint(0, MAX_REDUCE_LENGTH)
                deep_delta -= 1
                w = self._word(rng, length)
                x = self.G.word_homography(w).apply(rng.choice(self.bases))
                argv = ["delta", self.path, f"--point={point_str(x)}", "--depth", str(DELTA_DEPTH)]
                requests.append((kind, argv, w))
            elif kind == "reduce":
                w = self._word(rng, rng.randint(1, MAX_REDUCE_LENGTH))
                x0 = rng.choice(self.bases)
                x = self.G.word_homography(w).apply(x0)
                want = {"word": str(w), "point": point_str(x0)}
                requests.append((kind, ["reduce", self.path, f"--point={point_str(x)}"], want))
            elif kind == "verify":
                requests.append((kind, ["verify", self.path], None))
            else:
                argv = ["limit-cover", self.path, "--depth", str(COVER_DEPTH)]
                requests.append((kind, argv, None))
        return requests

    def execute(self, requests):
        out = []
        for kind, argv, _ in requests:
            t0 = time.perf_counter()
            code, text = run_cli(argv)
            out.append((kind, code, text, time.perf_counter() - t0))
        return out

    def check(self, requests, result, outcome):
        from schottky.serialize import canonical_json
        from schottky.words import Word

        for (kind, argv, want), (_, code, text, _) in zip(requests, result):
            if kind == "delta":
                w = want  # the word whose image of a base point is queried
                if len(w) >= DELTA_DEPTH:  # w(x0) lies in the cover disk of its prefix
                    prefix = Word(w.letters[:DELTA_DEPTH])
                    msg = json.loads(text).get("error", "") if code == 2 else ""
                    ok = msg.endswith(f"lies in the depth-{DELTA_DEPTH} cover disk of {prefix}")
                else:
                    got = json.loads(text) if code == 0 else {}
                    ok = (
                        got.get("depth") == DELTA_DEPTH
                        and "inf" not in (got["lower_exp"], got["upper_exp"])
                        and Fraction(got["lower_exp"]) <= Fraction(got["upper_exp"])
                    )
            elif kind == "reduce":
                ok = code == 0 and text == canonical_json(want)
            elif kind == "verify":
                ok = code == 0 and text == self.verify_text
            else:
                lines = text.splitlines()
                rows = 4 * 3 ** (COVER_DEPTH - 1)
                ok = code == 0 and lines[0] == "word,center,radius_exp" and len(lines) == 1 + rows
                if self.expected_cover is not None:
                    ok = ok and sha256(text) == self.expected_cover
            outcome.expect(ok, f"{' '.join(argv[:1] + argv[2:])} -> exit {code}: {text[:120]!r}")
        if self.batches_seen < DIGEST_BATCHES:
            for _, code, text, _ in result:
                self.stream_digest.update(f"{code}\n{text}".encode())
            self.batches_seen += 1
            if self.batches_seen == DIGEST_BATCHES and self.expected_stream is not None:
                got = self.stream_digest.hexdigest()
                outcome.expect(got == self.expected_stream, f"stream sha256 {got[:12]}")

    def latencies(self, results):
        """Per-request latency samples by kind over the given batch results."""
        out = {}
        for batch in results:
            for kind, _, _, seconds in batch:
                out.setdefault(kind, []).append(seconds)
        return out

    def record(self, results):
        cover = next(t for batch in results for k, _, t, _ in batch if k == "limit-cover")
        return {
            "limit_cover": {str(self.p): sha256(cover)},
            "stream": {str(self.seed): self.stream_digest.hexdigest()},
        }


WORKLOADS = {w.name: w for w in (ProperFit, CosetProbe, HeightCount, CliQueries)}
