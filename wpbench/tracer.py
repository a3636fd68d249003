"""Run one weylpat command with its public functions wrapped in spans.

    python wpbench/tracer.py TRACE_FILE weylpat-argument...

The wrappers time the calls into each module's public functions from
outside the program.  A wrapper replaces every module's binding of its
name, so ``from .weyl import multiply`` inside ``patterns`` and
``harness.verify`` is caught too.  A call into a stage from a different
stage opens a span (name, start, end, parent); a call from inside the
same stage is only counted, since its time already belongs to that
stage.  A stage's self time is its spans' time minus their child spans.
Spans stay in memory and are written to TRACE_FILE, with the per-stage
totals, when the command ends.  A name the program no longer has is
listed as absent.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time

# stage -> public names it covers; "Class.attr" names a class attribute
STAGES = {
    "roots.build": ("build_root_system",),
    "weyl.enumerate": ("WeylGroup.for_system", "enumerate_elements"),
    "weyl.downsets": ("WeylGroup.downsets",),
    "weyl.elements": ("multiply", "inverse", "bruhat_leq", "from_inversion_set",
                      "to_reduced_word"),
    "weyl.interval": ("interval",),
    "weyl.isomorphism": ("interval_isomorphic",),
    "kl.columns": ("kl_polynomial", "is_rationally_smooth", "mu"),
    "patterns.embeddings": ("enumerate_embeddings",),
    "patterns.flatten": ("flatten", "embed_element", "pattern_avoids", "interval_embeds",
                         "interval_pattern_avoids"),
    "verify.scan": ("verify_flattening", "verify_x_determination",
                    "verify_length_sufficiency", "verify_kl_transfer",
                    "verify_upper_ideal", "verify_type_a_smoothness"),
    "cli": ("harness.cli.main",),
}
# table-building stages whose growth of the process's peak RSS is reported
HEAVY = ("weyl.enumerate", "weyl.downsets", "kl.columns")
# spans shorter than this are folded into the stage totals, not kept
SPAN_KEEP_S = 0.001


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self) -> None:
        self.names = list(STAGES)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.rss_growth = [0.0] * n
        self.true_results = 0
        self.spans: list[tuple] = []
        self.smooth_answers: list[tuple] = []
        self.absent: list[str] = []
        # frame: [stage, child seconds, span id]; the root frame is the process
        self.stack: list[list] = [[-1, 0.0, 0]]
        self.ids = itertools.count(1)
        self.heavy_owner: list[int] = []
        self.last_rss = _maxrss_mb()

    def observe_rss(self, owner: int | None) -> None:
        now = _maxrss_mb()
        if owner is not None:
            self.rss_growth[owner] += now - self.last_rss
        self.last_rss = now

    def wrap(self, stage: int, fn, name: str):
        if name == "WeylGroup.downsets":
            return self._wrap_leaf(stage, fn)
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        perf = time.perf_counter
        ids = self.ids
        heavy = self.names[stage] in HEAVY
        count_true = name == "interval_isomorphic"
        keep_answers = name == "is_rationally_smooth"
        tracer = self

        def wrapper(*args, **kwargs):
            calls[stage] += 1
            top = stack[-1]
            if top[0] == stage:
                return fn(*args, **kwargs)
            frame = [stage, 0.0, next(ids)]
            if heavy:
                tracer.observe_rss(tracer.heavy_owner[-1] if tracer.heavy_owner else None)
                tracer.heavy_owner.append(stage)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                self_s[stage] += dt - frame[1]
                top[1] += dt
                if dt >= SPAN_KEEP_S:
                    spans.append((frame[2], top[2], stage, t0, t1))
                if heavy:
                    tracer.observe_rss(stage)
                    tracer.heavy_owner.pop()
            if count_true and result:
                tracer.true_results += 1
            if keep_answers:
                tracer.smooth_answers.append((args[0], result))
            return result

        return wrapper

    def _wrap_leaf(self, stage: int, fn):
        """Cheap wrapper for a getter read millions of times that calls no other stage.

        Only a read that builds the table (one of at least SPAN_KEEP_S)
        becomes a span and a peak-RSS observation.
        """
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        perf = time.perf_counter
        ids = self.ids
        tracer = self

        def leaf(obj):
            t0 = perf()
            result = fn(obj)
            t1 = perf()
            dt = t1 - t0
            calls[stage] += 1
            self_s[stage] += dt
            top = stack[-1]
            top[1] += dt
            if dt >= SPAN_KEEP_S:
                spans.append((next(ids), top[2], stage, t0, t1))
                tracer.observe_rss(stage)
            return result

        return leaf

    def install(self) -> None:
        import weylpat
        import weylpat.harness.cli  # noqa: F401  (loads every weylpat module)

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "weylpat" or k.startswith("weylpat."))]
        for stage, names in enumerate(STAGES.values()):
            for name in names:
                if name == "harness.cli.main":
                    self._rebind(modules, weylpat.harness.cli.main, stage, name)
                    continue
                cls_name, _, attr = name.rpartition(".")
                if cls_name:
                    self._wrap_class_attr(getattr(weylpat, cls_name, None), attr, stage, name)
                elif name in weylpat.__all__:
                    self._rebind(modules, getattr(weylpat, name), stage, name)
                else:
                    self.absent.append(name)

    def _rebind(self, modules, fn, stage: int, name: str) -> None:
        wrapper = self.wrap(stage, fn, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def _wrap_class_attr(self, cls, attr: str, stage: int, name: str) -> None:
        raw = vars(cls).get(attr) if cls is not None else None
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(stage, raw.__func__, name)))
        elif isinstance(raw, property):
            setattr(cls, attr, property(self.wrap(stage, raw.fget, name)))
        else:
            self.absent.append(name)

    def report(self) -> dict:
        from weylpat import one_line

        return {
            "stages": {
                name: {"self_s": self.self_s[k], "calls": self.calls[k],
                       "peak_rss_growth_mb": self.rss_growth[k]}
                for k, name in enumerate(self.names)
            },
            "isomorphism_true": self.true_results,
            "absent": self.absent,
            "span_count": next(self.ids) - 1,
            "spans": [[sid, parent, self.names[stage], t0, t1]
                      for sid, parent, stage, t0, t1 in self.spans],
            "smooth_type_a": sorted(one_line(v) for v, smooth in self.smooth_answers
                                    if smooth and one_line(v) is not None),
            "peak_rss_mb": _maxrss_mb(),
        }


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import weylpat.harness.cli as cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
