"""Span tracing for the benchmark's traced run.

``Tracer`` replaces library functions with timing wrappers at the names
their callers look them up by, and restores the originals on exit. The
library itself is not changed. Each wrapped call is a span with a name,
start, end and parent; a span's self time is its duration minus the time
its child spans cover. Calls to hot leaf functions (about 10^6 per run on
the audit workload) are only aggregated by name, so memory stays bounded;
every other span is also kept as a record, up to ``SPAN_CAP`` of them, and
written out when the run ends.

The wrappers take no randomness and change no argument or result, so a
traced run computes exactly what an untraced one does.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 50_000


def trace_points(ipir):
    """(owner, attribute, span name, hot) for every wrapped call.

    Functions that a module imported by name are wrapped in that module
    too, because the caller resolves the name there and never sees a
    wrapper on the defining module.
    """
    core, obf, simplex = ipir.core, ipir.obfuscation, ipir.simplex
    pir, inter, loc, aud, net = (
        ipir.pir, ipir.intermittent, ipir.location, ipir.audit, ipir.net
    )
    return [
        (core.WeightedSampler, "draw", "core.draw", True),
        (obf.ObfuscationPolicy, "at", "obfuscation.policy_at", True),
        (obf, "greedy_policy", "obfuscation.greedy", False),
        (loc, "greedy_policy", "obfuscation.greedy", False),
        (obf, "build_lp", "obfuscation.build_lp", False),
        (loc, "build_lp", "obfuscation.build_lp", False),
        (obf, "solve_lp", "obfuscation.solve_lp", False),
        (loc, "solve_lp", "obfuscation.solve_lp", False),
        (obf, "minimize", "simplex.minimize", False),
        (simplex, "minimize", "simplex.minimize", False),
        (pir.PirKey, "random", "pir.key_draw", False),
        (pir, "open_session", "pir.open_session", False),
        (pir, "pir_answer", "pir.answer", False),
        (pir.PirSession, "decode", "pir.decode", False),
        (pir, "query_pattern", "audit.query_pattern", True),
        (inter, "run_two_request", "intermittent.run_two_request", False),
        (loc, "simulate", "location.simulate", False),
        (loc, "step_private", "location.step_private", False),
        (loc, "step_nonprivate", "location.step_nonprivate", False),
        (loc, "policy_for_posterior", "location.policy_for_posterior", False),
        (loc, "advance_posterior", "location.advance_posterior", False),
        (loc, "condition_posterior", "location.condition_posterior", False),
        (aud, "audit_online_privacy", "audit.audit_online_privacy", False),
        (aud, "audit_query_privacy", "audit.audit_query_privacy", False),
        (net.RemoteTransport, "__call__", "net.exchange", False),
        (net, "pir_answer", "net.server_eval", False),
    ]


class Tracer:
    """Installs span wrappers on enter and removes them on exit.

    ``calls[name]`` is [count, busy seconds, self seconds, errors];
    ``counters`` holds work counts read from results.
    Each thread has its own span stack; the server threads of the
    loopback workload record their spans without a parent.
    """

    def __init__(self, ipir):
        self._points = trace_points(ipir)
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.calls = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        self.epoch = perf_counter()

    def __enter__(self):
        for owner, attr, name, hot in self._points:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, hot))
            else:
                wrapped = self._wrap(raw, name, hot)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, hot):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, 0 if hot else next(self._ids)]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                with self._lock:
                    entry = self.calls[name]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]
                    entry[3] += failed
                    if not hot:
                        self._record(frame[1], parent, stack, name, start, end)
            if observe is not None:
                observe(self.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, span_id, parent, stack, name, start, end):
        if len(self.spans) >= SPAN_CAP:
            self.dropped_spans += 1
            return
        root = stack[0][1] if stack else span_id
        self.spans.append(
            (
                span_id,
                parent[1] if parent is not None else None,
                root,
                name,
                start - self.epoch,
                end - self.epoch,
                threading.get_ident(),
            )
        )

    def busy(self, name) -> float:
        return self.calls[name][1] if name in self.calls else 0.0

    def self_time(self, name) -> float:
        return self.calls[name][2] if name in self.calls else 0.0

    def count(self, name) -> int:
        return self.calls[name][0] if name in self.calls else 0

    def errors(self, name) -> int:
        return self.calls[name][3] if name in self.calls else 0

    def write(self, path) -> None:
        """Write the aggregates and the kept span records as JSON."""
        data = {
            "calls": {
                name: {"count": c, "busy_s": b, "self_s": s, "errors": e}
                for name, (c, b, s, e) in sorted(self.calls.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["id", "parent", "root", "name", "start_s", "end_s", "thread"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
            fh.write("\n")


def _session_bits(counters, session):
    counters["pir.answer_bits"] += sum(len(q.combos) for q in session.queries)


def _lp_size(counters, instance):
    counters["obfuscation.lp_vars"] += len(instance.variables)
    counters["obfuscation.lp_rows"] += len(instance.rows)


_OBSERVERS = {
    "pir.open_session": _session_bits,
    "obfuscation.build_lp": _lp_size,
}
