"""Spans recorded from outside the program, by swapping module attributes.

The engine looks up its layer functions (``x_update_round``,
``psd_project``, ``eigh``, ...) as module globals at call time, so a
wrapper set on the module attribute sees every call. Each wrapper charges
its duration to its own span and to the span that called it, so a span's
self time is its total minus the time its traced children took. The
arithmetic is untouched: a traced run must reproduce the untraced history
bit for bit.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    """Aggregated spans and counters for one or more traced solves.

    ``stats[name]`` is ``[calls, total_s, child_s]``. Spans whose names are
    in ``keep`` are also kept one by one as ``(name, start, end)``.
    Wrappers stay installed until ``restore`` (or the end of a ``with``
    block) puts the original attributes back.
    """

    def __init__(self, keep=()):
        self.keep = frozenset(keep)
        self.stats: dict[str, list] = {}
        self.kept: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Trace ``owner.attr`` as span ``name``; record it absent if missing.

        ``before`` runs on the call's arguments ahead of the call, for
        counters; its time is charged to no span.
        """
        original = None if owner is None else getattr(owner, attr, None)
        if original is None:
            if name not in self.absent:
                self.absent.append(name)
            return
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        kept = self.kept if name in self.keep else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                t = clock()
                before(*args, **kwargs)
                if stack:
                    stack[-1][0] += clock() - t
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
                if kept is not None:
                    kept.append((name, t0, t1))

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def total(self, name: str) -> float | None:
        st = self.stats.get(name)
        return None if st is None else st[1]

    def self_time(self, name: str) -> float | None:
        st = self.stats.get(name)
        return None if st is None else st[1] - st[2]

    def calls(self, name: str) -> int | None:
        st = self.stats.get(name)
        return None if st is None else st[0]
