"""Layer tracing from outside the library.

Wrappers are installed around the public entry points of each module of
the ``schottky`` package.  A wrapper replaces the function object in
every module namespace and every class dictionary that holds it, so
aliases made by ``from .disks import image`` or ``__mul__ = compose``
are traced as well.  Nothing under ``src/`` is edited.

Spans are aggregated in memory as they close: per entry point the call
count and self time (span duration minus the time its child spans
cover), and per (parent, child) pair the call count, from which the
derived ratios are computed.  Counts made in process-pool workers of
the height scan are written to files by the wrapped pool task and merged
by ``merge_worker_dumps``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import uuid
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, dump_dir=None):
        self.active = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span name, child span name) -> calls
        self.extra = Counter()  # counts taken from return values and exceptions
        self.maxima = Counter()
        self.worker_pids = set()
        self.dump_dir = dump_dir
        self._stack = []
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, on_return=None, on_raise=None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(tracer, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    tracer.edges[parent[0], name] += 1
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return wrapper

    def patch(self, target, name, on_return=None, on_raise=None):
        """Replace ``target`` everywhere in the package; returns the number
        of namespaces patched (0 means the entry point is unreachable)."""
        wrapper = self.wrap(name, target, on_return, on_raise)
        patched = 0
        for owner in _namespaces():
            for attr, value in list(vars(owner).items()):
                if value is target:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
                    patched += 1
        return patched

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- process-pool workers ----------------------------------------------

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "edges": [[a, b, n] for (a, b), n in self.edges.items()],
            "extra": dict(self.extra),
        }

    def wrap_pool_task(self, fn):
        """A pool task that writes the counts it made to a dump file.

        The task runs in a forked worker that inherited this tracer; the
        difference between the counts after and before the task is what
        the worker did.
        """
        tracer = self

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if not tracer.active or tracer.dump_dir is None:
                return fn(*args, **kwargs)
            before = tracer.snapshot()
            saved_stack = list(tracer._stack)
            tracer._stack.clear()
            try:
                return fn(*args, **kwargs)
            finally:
                after = tracer.snapshot()
                tracer._stack[:] = saved_stack
                name = f"worker-{os.getpid()}-{uuid.uuid4().hex}.json"
                path = os.path.join(tracer.dump_dir, name)
                with open(path, "w") as fh:
                    json.dump({"pid": os.getpid(), "delta": _diff(after, before)}, fh)

        return task

    def merge_worker_dumps(self):
        if self.dump_dir is None:
            return
        for entry in sorted(os.listdir(self.dump_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.dump_dir, entry)
            with open(path) as fh:
                dump = json.load(fh)
            os.remove(path)
            self.worker_pids.add(dump["pid"])
            delta = dump["delta"]
            self.calls.update(delta["calls"])
            for k, v in delta["self_s"].items():
                self.self_s[k] += v
            for a, b, n in delta["edges"]:
                self.edges[a, b] += n
            self.extra.update(delta["extra"])


def _diff(after, before):
    edges_before = {(a, b): n for a, b, n in before["edges"]}
    return {
        "calls": {k: v - before["calls"].get(k, 0) for k, v in after["calls"].items()},
        "self_s": {k: v - before["self_s"].get(k, 0.0) for k, v in after["self_s"].items()},
        "edges": [[a, b, n - edges_before.get((a, b), 0)] for a, b, n in after["edges"]],
        "extra": {k: v - before["extra"].get(k, 0) for k, v in after["extra"].items()},
    }


def _namespaces():
    """Every module of the package and every class defined in it."""
    seen = set()
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "schottky" or mod_name.startswith("schottky.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and getattr(value, "__module__", "").startswith("schottky")
                and id(value) not in seen
            ):
                seen.add(id(value))
                yield value


# -- the entry points ----------------------------------------------------------


def _record_caches(tracer, args, result):
    group = args[0]
    tracer.maxima["groups.cover_cache.entries"] = max(
        tracer.maxima["groups.cover_cache.entries"], len(group._cover_cache)
    )
    tracer.maxima["groups.bdisk_cache.entries"] = max(
        tracer.maxima["groups.bdisk_cache.entries"], len(group._bdisk_cache)
    )


def _reduce_returned(tracer, args, result):
    tracer.extra["groups.reduce.steps"] += len(result[0])
    _record_caches(tracer, args, result)


def _inside_disk(tracer, exc):
    from schottky.errors import PointInsideDisk

    if isinstance(exc, PointInsideDisk):
        tracer.extra["disks.point_to_disk_delta.inside"] += 1


def _scan_returned(tracer, args, result):
    tracer.extra["geodesy.distinct"] += result.coset_counts[-1] + result.reverse_counts[-1]


def _upsilon_returned(tracer, args, result):
    tracer.extra["heights.words"] += len(result.entries)


def _json_returned(tracer, args, result):
    tracer.extra["serialize.bytes_out"] += len(result.encode())


def _cli_returned(tracer, args, result):
    if result != 0:
        tracer.extra["cli.main.errors"] += 1


def _cli_raised(tracer, exc):
    tracer.extra["cli.main.errors"] += 1


def install(tracer):
    """Wrap every traced entry point; returns {span name: namespaces patched}."""
    from schottky import cli, disks, geodesy, groups, heights, padic, proj, serialize, words

    G = groups.SchottkyGroup
    targets = [
        ("padic.valuation", padic.valuation, None, None),
        ("disks.image", disks.image, None, None),
        ("disks.contains", disks.Disk.contains, None, None),
        ("disks.closure", disks.Disk.closure, None, None),
        ("disks.point_to_disk_delta", disks.point_to_disk_delta, None, _inside_disk),
        ("proj.compose", proj.Homography.compose, None, None),
        ("proj.apply", proj.Homography.apply, None, None),
        ("proj.inverse", proj.Homography.inverse, None, None),
        ("proj.delta", proj.delta, None, None),
        ("words.word", words.Word.__init__, None, None),
        ("groups.delta_to_limit", G.delta_to_limit, _record_caches, None),
        ("groups.reduce", G._reduce_with_matrix, _reduce_returned, None),
        ("groups.boundary_letter", G.boundary_letter, None, None),
        ("groups.limit_cover", G.limit_cover, _record_caches, None),
        ("geodesy.double_coset_scan", geodesy.double_coset_scan, _scan_returned, None),
        ("heights.upsilon_scan", heights.upsilon_scan, _upsilon_returned, None),
        ("heights.threshold_bin", heights.CountingScan.threshold_bin, None, None),
        ("serialize.load_group", serialize.load_group, None, None),
        ("serialize.canonical_json", serialize.canonical_json, _json_returned, None),
        ("cli.main", cli.main, _cli_returned, _cli_raised),
    ]
    reach = {}
    for name, target, on_return, on_raise in targets:
        reach[name] = tracer.patch(target, name, on_return, on_raise)
    # The pool task is looked up in the heights module and pickled by name,
    # so it is replaced there only; functools.wraps keeps its pickle name.
    original = heights._branch_worker
    heights._branch_worker = tracer.wrap_pool_task(original)
    tracer._patches.append((heights, "_branch_worker", original))
    return reach


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metric values, by name, from the counts made so far."""
    tracer.merge_worker_dumps()
    c, s, e, x = tracer.calls, tracer.self_s, tracer.edges, tracer.extra
    bounds = e["groups.delta_to_limit", "disks.point_to_disk_delta"]
    images_in_search = e["groups.delta_to_limit", "disks.image"]
    candidates = e["geodesy.double_coset_scan", "groups.reduce"]
    out = {}
    for name in (
        "padic.valuation",
        "disks.image",
        "disks.contains",
        "disks.point_to_disk_delta",
        "proj.compose",
        "proj.apply",
        "words.word",
        "groups.delta_to_limit",
        "groups.reduce",
        "groups.boundary_letter",
        "groups.limit_cover",
        "serialize.load_group",
        "cli.main",
    ):
        out[f"{name}.calls"] = c[name]
        out[f"{name}.self_s"] = s[name]
    for name in ("disks.closure", "proj.inverse", "proj.delta"):
        out[f"{name}.calls"] = c[name]
    for name in (
        "geodesy.double_coset_scan",
        "heights.upsilon_scan",
        "heights.threshold_bin",
        "serialize.canonical_json",
    ):
        out[f"{name}.self_s"] = s[name]
    out["disks.point_to_disk_delta.inside"] = x["disks.point_to_disk_delta.inside"]
    out["groups.delta_to_limit.bounds"] = bounds
    out["groups.delta_to_limit.bounds_per_call"] = _ratio(bounds, c["groups.delta_to_limit"])
    out["groups.delta_to_limit.image_per_bound"] = _ratio(images_in_search, bounds)
    out["groups.cover_cache.entries"] = tracer.maxima["groups.cover_cache.entries"]
    out["groups.bdisk_cache.entries"] = tracer.maxima["groups.bdisk_cache.entries"]
    out["groups.reduce.steps_per_call"] = _ratio(x["groups.reduce.steps"], c["groups.reduce"])
    out["geodesy.candidates"] = candidates
    out["geodesy.distinct_per_candidate"] = _ratio(x["geodesy.distinct"], candidates)
    out["heights.words"] = x["heights.words"]
    out["heights.pool_workers"] = len(tracer.worker_pids)
    out["serialize.bytes_out"] = x["serialize.bytes_out"]
    out["cli.main.errors"] = x["cli.main.errors"]
    return out
