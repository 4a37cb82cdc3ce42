"""In-memory spans at layer boundaries, written out when a run ends.

A span is (name, start, end, parent). The benchmark opens spans around its
own calls into the package and, for the CLI workloads, around the public
functions ``zubov.cli`` calls into other modules, which it wraps at run time.
With tracing off every span is a no-op, so untraced runs time the program
alone.
"""

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.round = None  # stamped on every span, so rounds can be told apart
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **tags):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "round": self.round, "start": time.perf_counter(),
                  "end": None}
        record.update(tags)
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def wrapped(self, module, names):
        """Replace ``module.<name>`` by a spanned wrapper while inside.

        ``names`` maps attribute name to span name.
        """
        saved = {attr: getattr(module, attr) for attr in names}

        def spanned(fn, span_name):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)
            return call

        try:
            for attr, span_name in names.items():
                setattr(module, attr, spanned(saved[attr], span_name))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def select(self, name, **tags):
        return [s for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in tags.items())]

    def total(self, name, **tags):
        return sum(s["end"] - s["start"] for s in self.select(name, **tags))

    def self_time(self, span):
        children = [s for s in self.spans if s["parent"] == span["id"]]
        return (span["end"] - span["start"]
                - sum(s["end"] - s["start"] for s in children))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, indent=1)
            fh.write("\n")


class NullTracer:
    """Tracing off: spans and wrappers cost one context-manager entry."""

    def span(self, name, **tags):
        return contextlib.nullcontext({})

    def wrapped(self, module, names):
        return contextlib.nullcontext()
