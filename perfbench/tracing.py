"""Per-layer spans for the traced run.

The tracer wraps the public calls of each layer of the program, from
the benchmark's side, for as long as it is installed.  Spans nest: a
span's self time is its duration minus the time its child spans cover,
and a layer's self time is the sum over its spans, so the layers' self
times plus the time no span covers add up to the traced wall time.

Spans are kept in memory as a call tree aggregated by (parent span,
span) and written out when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.allocator import Allocator
from repro.experiments.world import AllocationWorld
from repro.routing.scoping import ScopeMap
from repro.sap.cache import SessionCache
from repro.sap.clash_protocol import ClashHandler
from repro.sap.directory import OwnSession, SessionDirectory
from repro.sap.messages import SapMessage
from repro.sap.sdp import SessionDescription
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.topology import mbone

#: Layers in the order they are reported, outermost first.
LAYERS = (
    "sim.events",
    "sim.network",
    "sap.directory",
    "sap.clash_protocol",
    "sap.cache",
    "sap.messages",
    "sap.sdp",
    "core",
    "experiments.world",
    "routing.scoping",
    "topology.mbone",
)

#: (owner, attribute, layer, span) for every wrapped public call.
#: Allocator subclasses are found at install time.
WRAPPED = (
    (EventScheduler, "run", "sim.events", "run"),
    (NetworkModel, "send", "sim.network", "send"),
    (SessionDirectory, "create_session", "sap.directory", "create"),
    (SessionDirectory, "delete_session", "sap.directory", "delete"),
    (SessionDirectory, "owns", "sap.directory", "owns"),
    (SessionDirectory, "defend", "sap.directory", "defend"),
    (SessionDirectory, "retreat", "sap.directory", "retreat"),
    (SessionDirectory, "proxy_defend", "sap.directory", "proxy_defend"),
    (OwnSession, "message_key", "sap.directory", "message_key"),
    (ClashHandler, "on_announcement", "sap.clash_protocol",
     "on_announcement"),
    (SessionCache, "observe", "sap.cache", "observe"),
    (SessionCache, "entries_for_address", "sap.cache", "scan"),
    (SessionCache, "visible_set", "sap.cache", "visible_set"),
    (SapMessage, "announce", "sap.messages", "announce"),
    (SapMessage, "delete", "sap.messages", "delete"),
    (SapMessage, "encode", "sap.messages", "encode"),
    (SapMessage, "decode", "sap.messages", "decode"),
    (SessionDescription, "format", "sap.sdp", "format"),
    (SessionDescription, "parse", "sap.sdp", "parse"),
    (AdaptiveIprmaAllocator, "band_geometry", "core", "band_geometry"),
    (AllocationWorld, "visible_at", "experiments.world", "visible_at"),
    (AllocationWorld, "clashes", "experiments.world", "clashes"),
    (ScopeMap, "scopes_overlap", "routing.scoping", "overlap"),
    (ScopeMap, "from_topology", "routing.scoping", "build"),
    (mbone, "generate_mbone", "topology.mbone", "generate"),
)


def _allocator_classes() -> List[type]:
    found, pending = [], list(Allocator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "allocate" in cls.__dict__:
            found.append(cls)
    return found


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self) -> None:
        self._stack: List[float] = [0.0]
        self._current = "-"
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.tree: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        #: observe() outcomes: hit, miss (new entry), other
        self.cache_outcomes: Counter = Counter()
        self.entries_scanned = 0
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def span(self, layer: str, op: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``layer.op``."""
        name = f"{layer}.{op}"
        stack = self._stack
        calls, total = self.calls, self.total
        self_time, tree = self.self_time, self.tree

        def traced(*args, **kwargs):
            parent = self._current
            self._current = name
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                self._current = parent
                calls[name] += 1
                total[name] += elapsed
                self_time[layer] += elapsed - children
                node = tree[(parent, name)]
                node[0] += 1
                node[1] += elapsed
                node[2] += elapsed - children
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attribute: str, layer: str, op: str,
               after: Optional[Callable] = None) -> None:
        raw = (owner.__dict__[attribute] if isinstance(owner, type)
               else getattr(owner, attribute))
        self._restore.append((owner, attribute, raw))
        if isinstance(raw, classmethod):
            wrapped = staticmethod(
                self.span(layer, op, getattr(owner, attribute), after))
        else:
            wrapped = self.span(layer, op, raw, after)
        setattr(owner, attribute, wrapped)

    def __enter__(self) -> "Tracer":
        hooks = {"observe": self._after_observe, "scan": self._after_scan}
        for owner, attribute, layer, op in WRAPPED:
            self._patch(owner, attribute, layer, op, hooks.get(op))
        for cls in _allocator_classes():
            self._patch(cls, "allocate", "core", "allocate")
        listen = NetworkModel.__dict__["listen"]
        self._restore.append((NetworkModel, "listen", listen))
        span = self.span

        def traced_listen(network, node, callback):
            # A directory's packet handler is its receive path.
            listen(network, node,
                   span("sap.directory", "receive", callback))

        NetworkModel.listen = traced_listen
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    def _after_observe(self, args, entry) -> None:
        if entry is None:
            self.cache_outcomes["other"] += 1
        elif entry.times_heard > 1:
            self.cache_outcomes["hit"] += 1
        else:
            self.cache_outcomes["miss"] += 1

    def _after_scan(self, args, entries) -> None:
        self.entries_scanned += len(args[0])

    # ------------------------------------------------------------------
    def covered(self) -> float:
        """Seconds covered by any span (the sum of top-level spans)."""
        return self._stack[0]

    def call_tree(self) -> List[str]:
        """The aggregated spans, one line per (parent, span) edge."""
        lines = [f"  {'parent':<32} {'span':<34} {'calls':>9} "
                 f"{'total_s':>10} {'self_s':>10}"]
        for (parent, name), (count, total, own) in sorted(
                self.tree.items(), key=lambda item: -item[1][1]):
            lines.append(f"  {parent:<32} {name:<34} {count:>9d} "
                         f"{total:>10.4f} {own:>10.4f}")
        return lines
