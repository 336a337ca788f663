"""Span recorder and attribute-replacement wrappers for traced benchmark runs.

A span is one call of a wrapped function: its name, start and end times, the
span that caused it, the thread it ran on and the request (one protocol call)
it belongs to.  Spans are kept in memory and aggregated after the request.

The wrappers live only in the benchmark process.  ``Patcher.wrap`` replaces a
function in every module that holds a reference to it, so aliases made by
``from x import f`` are traced too, and ``Patcher.restore`` puts every
original object back.

Self time is wall time attributed to the innermost open span of each thread.
When several threads are inside spans at the same instant, that instant is
split evenly among their innermost spans.  With one thread this is the span's
duration minus the part of it that its child spans cover, and the self times
of all spans always add up to the time during which any span is open.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    request: int | None
    end: float | None = None
    counts: dict = field(default_factory=dict)


class Recorder:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.request = None
        self._clock = clock
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread, or its adopted parent."""
        stack = self._stack()
        if stack:
            return stack[-1].id
        return getattr(self._local, "adopted", None)

    def begin(self, name):
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, self._clock(), self.current(),
                    threading.get_ident(), self.request)
        self._stack().append(span)
        return span

    def end(self, span):
        span.end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span '{span.name}' closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name):
        sp = self.begin(name)
        try:
            yield sp
        finally:
            self.end(sp)

    @contextmanager
    def adopted(self, parent):
        """Make `parent` the cause of spans this thread opens with an empty stack."""
        previous = getattr(self._local, "adopted", None)
        self._local.adopted = parent
        try:
            yield
        finally:
            self._local.adopted = previous

    def take(self):
        """Completed spans so far, clearing the recorder."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def traced_executor(recorder, base):
    """Executor class whose tasks adopt the submitting thread's open span."""

    class TracedExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def task(*a, **kw):
                with recorder.adopted(parent):
                    return fn(*a, **kw)

            return super().submit(task, *args, **kwargs)

    return TracedExecutor


class Patcher:
    """Installs span-recording wrappers by attribute replacement."""

    def __init__(self, recorder, modules):
        self.recorder = recorder
        self.modules = list(modules)
        self._saved = []  # (owner, attribute, original)

    def _replace(self, original, replacement):
        hits = 0
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)
                    hits += 1
        return hits

    def _wrapper(self, name, original, counter):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def wrap(self, name, module, attr, counter=None):
        """Trace `module.attr` under span `name` wherever the module tree refers to it.

        counter(args, kwargs, result) may return work counts for the span.
        """
        original = getattr(module, attr)
        if self._replace(original, self._wrapper(name, original, counter)) == 0:
            raise LookupError(f"{module.__name__}.{attr} is not referenced by any traced module")

    def wrap_method(self, name, cls, attr, counter=None):
        original = vars(cls)[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, counter))

    def replace(self, module, attr, replacement):
        """Swap one attribute (such as an executor class) until restore()."""
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _innermost_segments(spans):
    """(t0, t1, span id) intervals where each span is innermost on one thread."""
    segments = []
    stack = []  # [span, cursor]: time up to which the span's own time is emitted
    for sp in sorted(spans, key=lambda s: (s.start, -s.end, s.id)):
        while stack and stack[-1][0].end <= sp.start:
            top, cursor = stack.pop()
            segments.append((cursor, top.end, top.id))
            if stack:
                stack[-1][1] = top.end
        if stack:
            segments.append((stack[-1][1], sp.start, stack[-1][0].id))
        stack.append([sp, sp.start])
    while stack:
        top, cursor = stack.pop()
        segments.append((cursor, top.end, top.id))
        if stack:
            stack[-1][1] = top.end
    return [seg for seg in segments if seg[1] > seg[0]]


def self_times(spans):
    """Self time of every span id, splitting concurrent instants among threads.

    A span whose child is open on another thread is waiting for it, so it
    gets no time while that child runs.
    """
    by_id = {sp.id: sp for sp in spans}
    by_thread = defaultdict(list)
    for sp in spans:
        by_thread[sp.thread].append(sp)
    events = []  # (time, 0 for a close / 1 for an open, is-wait, span id)
    for thread_spans in by_thread.values():
        for t0, t1, span_id in _innermost_segments(thread_spans):
            events += [(t0, 1, False, span_id), (t1, 0, False, span_id)]
    for sp in spans:
        parent = by_id.get(sp.parent)
        if parent is not None and parent.thread != sp.thread:
            events += [(sp.start, 1, True, parent.id), (sp.end, 0, True, parent.id)]
    events.sort(key=lambda e: (e[0], e[1]))
    out = {sp.id: 0.0 for sp in spans}
    innermost = set()
    waiting = defaultdict(int)
    last = None
    for t, opens, is_wait, span_id in events:
        running = [sid for sid in innermost if not waiting[sid]]
        if running and t > last:
            share = (t - last) / len(running)
            for sid in running:
                out[sid] += share
        last = t
        if is_wait:
            waiting[span_id] += 1 if opens else -1
        elif opens:
            innermost.add(span_id)
        else:
            innermost.discard(span_id)
    return out


def summarize(spans, reducers=None):
    """Per span name: calls, inclusive seconds, self seconds and combined counts.

    Counts add up over the calls of a name unless `reducers` maps the count's
    key to another combining function, such as max.
    """
    reducers = reducers or {}
    own = self_times(spans)
    table = {}
    for sp in spans:
        row = table.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "counts": {}})
        row["calls"] += 1
        row["total_s"] += sp.end - sp.start
        row["self_s"] += own[sp.id]
        for key, value in sp.counts.items():
            combine = reducers.get(key, lambda a, b: a + b)
            counts = row["counts"]
            counts[key] = value if key not in counts else combine(counts[key], value)
    return table
