"""Spans around the calls the solver makes into each module, and the layer
metrics derived from them.

`traced(hf, recorder)` replaces, for the duration of a `with` block, the
module attributes through which the solver reaches each layer: the RHS
build and Dirichlet fold (assembly), the plane transform (spectral), the
batched sweep (tridiag) and the block redistribution (solver). Transport
sends and receives are traced through `traced_factory`, which wraps the
transports a partitioned solve creates. Nothing under `src/` changes.
Spans stay in memory until the run ends.
"""

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass
from statistics import median

TOP_LAYERS = ("build_rhs", "fold", "forward", "sweep", "exchange", "inverse")


@dataclass
class Span:
    id: int
    parent: int
    solve: int
    name: str
    start: float
    end: float
    thread: int
    part: int = -1
    nbytes: int = 0   # computed from array sizes, never measured
    count: int = 0    # planes, lines or messages the call handled


class Recorder:
    """Collects spans; one solve at a time (the benchmark is a closed loop)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = threading.local()
        self._root = None

    @contextlib.contextmanager
    def solve(self):
        """Root span of one solve; spans in other threads hang off it."""
        with self.span("solve") as root:
            root.solve = root.id
            self._root = root
            try:
                yield root
            finally:
                self._root = None

    @contextlib.contextmanager
    def span(self, name, part=-1, nbytes=0, count=0):
        stack = self._stack.__dict__.setdefault("ids", [])
        root = self._root
        parent = stack[-1] if stack else (root.id if root else 0)
        span = Span(next(self._ids), parent, root.id if root else 0, name, 0.0, 0.0,
                    threading.get_ident(), part, nbytes, count)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)


def _nothing(*args, **kwargs):
    return {}


def _wrap(recorder, name, fn, measure=_nothing):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name, **measure(*args, **kwargs)):
            return fn(*args, **kwargs)
    return traced


def _transform_size(plan, field3d, plane_range=None):
    values = field3d.values if hasattr(field3d, "values") else field3d
    if plane_range is not None:
        values = values[plane_range[0]:plane_range[1]]
    # one read and one write of every plane
    return {"nbytes": 2 * values.nbytes, "count": values.shape[0]}


def _sweep_size(values, *args, **kwargs):
    # one read and one write of every line; cp and the eigenvalue planes not counted
    return {"nbytes": 2 * values.nbytes, "count": values.shape[1] * values.shape[2]}


def _exchange_part(plan, transport, part, slab):
    return {"part": part}


@contextlib.contextmanager
def traced(hf, recorder):
    """Route the solver's layer calls through spans for the block's duration."""
    patches = [
        (hf.solver, "build_rhs", "build_rhs", _nothing),
        (hf.solver, "fold_dirichlet", "fold", _nothing),
        (hf.solver, "transform_stack", "transform", _transform_size),
        (hf.tridiag, "solve_slab", "sweep", _sweep_size),
        (hf.solver, "exchange_forward", "exchange", _exchange_part),
        (hf.solver, "exchange_inverse", "exchange", _exchange_part),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    try:
        for (module, attr, name, measure), (_, _, fn) in zip(patches, originals):
            setattr(module, attr, _wrap(recorder, name, fn, measure))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


class _TracedTransport:
    def __init__(self, inner, recorder):
        self._inner = inner
        self.part = inner.part
        self.send = _wrap(recorder, "send", inner.send,
                          lambda to, stage, block: {"part": inner.part,
                                                    "nbytes": block.nbytes, "count": 1})
        self.receive = _wrap(recorder, "receive", inner.receive,
                             lambda *a, **k: {"part": inner.part})

    def close(self):
        self._inner.close()


def traced_factory(factory, recorder):
    """Transport factory whose transports record send and receive spans."""
    return lambda n_parts: [_TracedTransport(t, recorder) for t in factory(n_parts)]


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _per_solve(spans):
    """Group spans by solve; name each transform forward or inverse."""
    roots = {s.id: s for s in spans if s.name == "solve"}
    children_of = {sid: [] for sid in roots}
    for s in spans:
        if s.solve in roots and s.name != "solve":
            children_of[s.solve].append(s)
    out = []
    for sid, root in roots.items():
        children = children_of[sid]
        sweeps = [s.start for s in children if s.name == "sweep"]
        first_sweep = min(sweeps) if sweeps else float("inf")
        layers = {}
        for s in children:
            name = s.name
            if name == "transform":
                name = "forward" if s.start < first_sweep else "inverse"
            layers.setdefault(name, []).append(s)
        out.append((root, children, layers))
    return out


def layer_metrics(spans):
    """Per-layer medians over the traced solves.

    A layer's time in one solve is the wall time its spans cover, counting
    overlapping spans of parallel workers once. The solver's self time is
    the solve span minus the time any layer span covers.
    """
    rows = []
    for root, children, layers in _per_solve(spans):
        wall = root.end - root.start

        def cover(*names):
            return _union([(s.start, s.end) for n in names for s in layers.get(n, ())])

        def total(names, attr):
            return sum(getattr(s, attr) for n in names for s in layers.get(n, ()))

        transform_s = cover("forward", "inverse")
        sweep_s = cover("sweep")
        imbalance = [max(d) / min(d) for d in (
            [s.end - s.start for s in layers.get(n, ())] for n in
            ("forward", "sweep", "inverse", "exchange")) if len(d) > 1 and min(d) > 0]
        self_s = wall - _union([(s.start, s.end) for s in children])
        rows.append({
            "assembly.build_rhs_s": cover("build_rhs"),
            "assembly.fold_s": cover("fold"),
            "spectral.forward_s": cover("forward"),
            "spectral.inverse_s": cover("inverse"),
            "spectral.calls": len(layers.get("forward", ())) + len(layers.get("inverse", ())),
            "spectral.gbps_computed": total(("forward", "inverse"), "nbytes") / transform_s / 1e9,
            "tridiag.sweep_s": sweep_s,
            "tridiag.lines": total(("sweep",), "count"),
            "tridiag.gbps_computed": total(("sweep",), "nbytes") / sweep_s / 1e9,
            "transport.exchange_s": cover("exchange"),
            "transport.send_s": cover("send"),
            "transport.recv_wait_s": cover("receive"),
            "transport.messages": total(("send",), "count"),
            "transport.bytes": total(("send",), "nbytes"),
            "solver.self_s": self_s,
            "solver.part_imbalance": median(imbalance) if imbalance else 1.0,
            "trace.accounted": (sum(cover(n) for n in TOP_LAYERS) + self_s) / wall,
        })
    return {key: median(row[key] for row in rows) for key in rows[0]}
