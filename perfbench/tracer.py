"""In-memory spans recorded around the program's public functions.

The benchmark rebinds a public name in the namespace the program looks it
up in (``scattering.log_det_one_minus``, ``cli.pfa_force_integral``, ...),
so every call through that name opens a span.  Spans are kept in a list and
written once at the end of a run.  A span's self time is its duration minus
the time its direct child spans cover; calls are single-threaded, so child
spans nest inside their parent.
"""
from __future__ import annotations

import inspect
import time
from contextlib import contextmanager


class Absent(Exception):
    """A traced or probed public function is missing or changed shape."""


class Tracer:
    def __init__(self) -> None:
        # one row per span: [layer, start, end, parent index, weight]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, layer: str, weight: int = 0):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, time.perf_counter(), None, parent, weight])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, namespace, name: str, layer: str, weight_arg: str | None = None):
        """Rebind ``namespace.name`` so each call records a ``layer`` span.

        With ``weight_arg``, the span's weight is that argument plus one (the
        table length for ``n_max``); the function's leading parameters must
        then still be named as expected, or ``Absent`` is raised.
        """
        fn = getattr(namespace, name, None)
        if not callable(fn):
            raise Absent(f"{namespace.__name__}.{name} is missing")
        pos = None
        if weight_arg is not None:
            params = list(inspect.signature(fn).parameters)
            if weight_arg not in params:
                raise Absent(f"{namespace.__name__}.{name}{inspect.signature(fn)} "
                             f"has no {weight_arg!r} parameter")
            pos = params.index(weight_arg)
        tracer = self

        def traced(*args, **kwargs):
            weight = 0
            if pos is not None:
                weight = (args[pos] if pos < len(args) else kwargs[weight_arg]) + 1
            with tracer.span(layer, weight):
                return fn(*args, **kwargs)

        setattr(namespace, name, traced)
        self._restore.append((namespace, name, fn))

    def unwrap_all(self) -> None:
        while self._restore:
            namespace, name, fn = self._restore.pop()
            setattr(namespace, name, fn)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def counts(self) -> dict[str, tuple[int, int]]:
        """(calls, summed weight) per layer."""
        out: dict[str, tuple[int, int]] = {}
        for layer, _, _, _, weight in self.spans:
            calls, total = out.get(layer, (0, 0))
            out[layer] = (calls + 1, total + weight)
        return out

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"columns": ["layer", "start_s", "end_s", "parent", "weight"],
                "spans": [[layer, start - t0, end - t0, parent, weight]
                          for layer, start, end, parent, weight in self.spans]}
