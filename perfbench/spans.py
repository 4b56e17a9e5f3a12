"""Spans around the calls into each layer, kept in memory and summed at the end.

The tracer replaces module attributes that callers look up at call time,
such as `designforge.search.subgroups_of_order`, with a wrapper that records
a span: name, start, end and parent.  It changes no code of the program.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, on_result=None, track_rss=False) -> None:
        """Record a span for every call made through module.attr.

        on_result(args, result) returns counts to keep on the span; with
        track_rss the span also keeps how far the call raised ru_maxrss.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                rss_before = _maxrss_mb() if track_rss else 0.0
                result = inner(*args, **kwargs)
                if track_rss:
                    attrs["rss_growth_mb"] = _maxrss_mb() - rss_before
                if on_result is not None:
                    attrs.update(on_result(args, result))
            return result

        setattr(module, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer offers to the layer above it."""
    from designforge import design, numtheory, permgroup, screen, search

    # numtheory.factorize is looked up from numtheory's own helpers too
    for mod in (numtheory, screen, permgroup):
        tracer.wrap(mod, "factorize", "numtheory.factorize")
    tracer.wrap(screen, "case_screen", "screen.case_screen", lambda a, r: {
        "cases": len(r),
        "survivors": sum(x.survived for x in r),
    })
    tracer.wrap(search, "run", "search.run", lambda a, r: {
        "candidates_tested": r.candidates_tested,
        "block_sets": r.distinct_block_sets,
    })
    tracer.wrap(search, "subgroups_of_order", "permgroup.subgroups_of_order", lambda a, r: {
        "classes": len(r),
    })
    for mod in (search, design):
        tracer.wrap(mod, "set_stabilizer", "permgroup.set_stabilizer")
    tracer.wrap(search, "lambda_of", "design.lambda_of")
    tracer.wrap(search, "is_flag_transitive", "design.is_flag_transitive")
    tracer.wrap(search, "iso_classes", "iso.iso_classes", lambda a, r: {
        "designs_in": len(a[0]),
        "classes_out": len(r),
    }, track_rss=True)

def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer figures per round of the workload: times, calls and counts."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def total(name, key=None):
        sel = [s for s in spans if s["name"] == name]
        if key is None:
            return sum(dur[s["id"]] for s in sel)
        return sum(s["attrs"][key] for s in sel)

    def calls(name):
        return sum(s["name"] == name for s in spans)

    def self_time(name):
        return sum(dur[s["id"]] - child_time[s["id"]] for s in spans if s["name"] == name)

    tested = total("search.run", "candidates_tested")
    block_sets = total("search.run", "block_sets")
    out = {
        "numtheory.factorize_s": total("numtheory.factorize"),
        "numtheory.factorize_calls": calls("numtheory.factorize"),
        "screen.case_screen_s": total("screen.case_screen"),
        "screen.self_s": self_time("screen.case_screen"),
        "screen.cases": total("screen.case_screen", "cases"),
        "screen.survivors": total("screen.case_screen", "survivors"),
        "permgroup.closure_s": total("permgroup.closure"),
        "permgroup.mul_table_s": total("permgroup.mul_table"),
        "permgroup.mul_table_bytes": total("permgroup.mul_table", "bytes"),
        "permgroup.subgroups_s": total("permgroup.subgroups_of_order"),
        "permgroup.subgroups_calls": calls("permgroup.subgroups_of_order"),
        "permgroup.subgroup_classes": total("permgroup.subgroups_of_order", "classes"),
        "permgroup.set_stabilizer_s": total("permgroup.set_stabilizer"),
        "permgroup.set_stabilizer_calls": calls("permgroup.set_stabilizer"),
        "search.run_s": total("search.run"),
        "search.self_s": self_time("search.run"),
        "search.candidates_tested": tested,
        "search.block_sets": block_sets,
        "design.lambda_of_s": total("design.lambda_of"),
        "design.lambda_of_calls": calls("design.lambda_of"),
        "design.is_flag_transitive_s": total("design.is_flag_transitive"),
        "iso.iso_classes_s": total("iso.iso_classes"),
        "iso.designs_in": total("iso.iso_classes", "designs_in"),
        "iso.classes_out": total("iso.iso_classes", "classes_out"),
        "iso.peak_rss_growth_mb": total("iso.iso_classes", "rss_growth_mb"),
    }
    out = {name: value / rounds for name, value in out.items()}
    # a ratio, so not divided by rounds; its base is search.candidates_tested
    out["search.block_sets_per_candidate"] = block_sets / tested if tested else 0.0
    return out
