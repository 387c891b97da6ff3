"""Spans around the calls one simplexvol layer makes into the next.

A traced pass replaces the module attributes through which the layers call
each other with timing wrappers, and restores them afterwards, so no file of
the package changes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc

from simplexvol import bruteforce, charging, cli, reporter

ROOT = "cli.main"
REPORTER = "reporter.call"

# (module, attribute, span name).  The exact-kernel calls are wrapped where
# reporter imports them, so the same kernels called by charging or the
# oracle do not count.
TARGETS = (
    (cli, "load_point_file", "pointfile.load_point_file"),
    (cli, "content_digest", "pointfile.content_digest"),
    (cli, "min_volume_tetrahedra", REPORTER),
    (cli, "min_area_triangles", REPORTER),
    (cli, "verify_charging", "charging.verify_charging"),
    (bruteforce, "min_volume_simplices", "bruteforce.min_volume_simplices"),
    (charging, "charge_tetrahedron", "charging.charge_tetrahedron"),
    (reporter, "integer_coordinates", "exact.integer_coordinates"),
    (reporter, "primitive_vector", "exact.primitive_vector"),
    (reporter, "plane_key", "exact.plane_key"),
    (reporter, "line_key", "exact.line_key"),
)


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each (module, attribute, name) by make_wrapper(name, original)
    and put the originals back on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for (module, attr, name), (_, _, original) in zip(targets, saved):
            setattr(module, attr, make_wrapper(name, original))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class Tracer:
    """Records spans as [solve id, name, start, end, parent index]; the
    parent index is -1 for a solve's root span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._solve = -1

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [self._solve, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return traced

    def installed(self):
        return patched(TARGETS, self.wrap)

    def root(self, fn, *args):
        """Call fn as the root span of a new solve."""
        self._solve += 1
        return self.wrap(ROOT, fn)(*args)

    def per_solve(self) -> list[dict[str, list]]:
        """For each solve, {span name: [total seconds, self seconds, calls]}.
        Self time is a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: list[dict[str, list]] = [{} for _ in range(self._solve + 1)]
        for i, (solve, name, start, end, _) in enumerate(self.spans):
            acc = out[solve].setdefault(name, [0.0, 0.0, 0])
            acc[0] += end - start
            acc[1] += end - start - child[i]
            acc[2] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def reporter_peak_alloc(peaks: list):
    """Context in which every reporter call runs under tracemalloc and
    appends its peak traced bytes to peaks."""
    def make_wrapper(_, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured
    return patched([t for t in TARGETS if t[2] == REPORTER], make_wrapper)
