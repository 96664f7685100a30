"""The four benchmark workloads: their inputs, one round of work, and
the checks on each round's outputs.

Every workload is built from the program's public classes and
functions; the program receives only the inputs generated here from
the workload seed.  A round is one whole unit of the workload's work
and runs the same operations every time for the same seed, so a run
may repeat rounds for as long as its time budget lasts.

* ``sap-churn`` and ``sap-refresh`` run the session directory (sdr)
  on the event kernel.  Their simulation state is consumed by a round,
  so every round builds a fresh simulation (each build is a set-up
  sample) and is checked from its end state.  A run cycles over a
  fixed set of realizations of the seed's scenario; realization ``k``
  draws from ``RandomStreams(seed + 1000003 k)``.  Each round is run
  in slices of ``slice_every`` simulated seconds, so that each slice
  can be kept at its fastest over the cycles.
* ``alloc-paper`` and ``alloc-dense`` run the allocation Monte Carlo
  of figs. 5 and 12.  The map and scope map are built once and shared
  by all rounds; a first, untimed round runs under per-call checks and
  warms the scope map's reachability cache.
"""

from __future__ import annotations

import math
import time
import zlib
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.address_space import MulticastAddressSpace
from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.informed import InformedRandomAllocator
from repro.core.iprma import StaticIprmaAllocator
from repro.experiments.algorithms import algorithm_factory
from repro.experiments.allocation_run import (
    allocations_before_first_clash,
    fig5_cell,
)
from repro.experiments.steady_state import steady_cell
from repro.experiments.ttl_distributions import DS4, TtlDistribution
from repro.experiments.world import AllocationWorld
from repro.routing.scoping import ScopeMap
from repro.sap.announcer import FixedIntervalStrategy
from repro.sap.directory import SessionDirectory
from repro.sap.sdp import SessionDescription
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.sim.rng import RandomStreams
from repro.topology import mbone

clock = time.perf_counter
#: Bound before any tracing starts, so a check's own formatting is not
#: counted as the program's.
format_payload = SessionDescription.format


class AllocProbe:
    """Times every ``allocate()`` call of the allocators it wraps, and
    cuts the timed work between :meth:`begin` and :meth:`end` into
    slices at every ``allocate()`` return.

    With ``check=True`` it also verifies each informed, unforced
    allocation: the address lies in the allocator's declared ranges
    and is not in the visible set it was given.
    """

    def __init__(self, check: bool = False) -> None:
        self.check = check
        self.latencies: List[float] = []
        self.visible_total = 0
        self.forced = 0
        self.failed = 0
        self.checked = 0
        self.violations: List[str] = []
        #: wall time of the timed work, one slice per allocate() return
        #: plus one per :meth:`end`
        self.slices: List[float] = []
        self._mark: Optional[float] = None

    def begin(self) -> None:
        self._mark = clock()

    def lap(self) -> None:
        now = clock()
        self.slices.append(now - self._mark)
        self._mark = now

    def end(self) -> None:
        self.lap()
        self._mark = None

    def wrap(self, allocator):
        inner = allocator.allocate
        space_size = allocator.space_size
        latencies = self.latencies

        def allocate(ttl, visible):
            start = clock()
            try:
                result = inner(ttl, visible)
            except Exception:
                self.failed += 1
                raise
            end = clock()
            latencies.append(end - start)
            if self._mark is not None:
                self.slices.append(end - self._mark)
                self._mark = end
            self.visible_total += len(visible)
            if result.forced:
                self.forced += 1
            if not 0 <= result.address < space_size:
                self.failed += 1
            elif self.check:
                self._verify(allocator, ttl, visible, result)
            return result

        allocator.allocate = allocate
        return allocator

    def _verify(self, allocator, ttl, visible, result) -> None:
        if result.forced or not result.informed:
            return
        self.checked += 1
        address = result.address
        ranges = allocator.declared_ranges(ttl, visible)
        if not any(lo <= address < hi for lo, hi in ranges):
            self.violations.append(
                f"{allocator.name}: address {address} outside declared "
                f"ranges {ranges} for ttl {ttl}")
        if np.any(visible.addresses == address):
            self.violations.append(
                f"{allocator.name}: address {address} is in the visible "
                f"set of {len(visible)} sessions")


@dataclass
class RoundResult:
    """What one round did and what its checks found."""

    wall: float
    attempted: int
    failed: int = 0
    events: int = 0
    deliveries: int = 0
    losses: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    #: outputs that must repeat exactly whenever the inputs repeat
    digest: Tuple = ()
    errors: List[str] = field(default_factory=list)
    checks: int = 0


# ----------------------------------------------------------------------
# SAP workloads
# ----------------------------------------------------------------------
class MeshRouting:
    """Full-mesh routing oracle for the SAP workloads.

    Per-pair delays are deterministic and asymmetric.  Every call is a
    multicast send, so the oracle also tallies the fan-out the sends
    should have, from the benchmark's own partition schedule: the
    network's deliveries plus losses must add up to it, but for packets
    still in flight.
    """

    def __init__(self, num_sites: int, scheduler: EventScheduler,
                 split: Optional[Tuple[frozenset, float, float]],
                 jitter: float) -> None:
        self.num_sites = num_sites
        self.scheduler = scheduler
        self.split = split
        #: longest possible send-to-delivery time
        self.latency = 0.01 + 0.002 * 4 + jitter
        self.expected = 0
        self.recent: Deque[Tuple[float, int]] = deque()

    def __call__(self, source: int, ttl: int):
        receivers = [(node, 0.01 + 0.002 * ((source + 3 * node) % 5))
                     for node in range(self.num_sites) if node != source]
        fanout = len(receivers)
        now = self.scheduler.now
        if self.split is not None:
            group, start, end = self.split
            if start <= now < end:
                side = source in group
                fanout = sum(1 for node, __ in receivers
                             if (node in group) == side)
        self.expected += fanout
        recent = self.recent
        recent.append((now, fanout))
        while recent[0][0] < now - self.latency:
            recent.popleft()
        return receivers

    def fanout_errors(self, network: NetworkModel, when: str) -> List[str]:
        """Deliveries plus losses against the expected fan-out; only
        packets sent within the last ``latency`` may still be missing."""
        now = self.scheduler.now
        in_flight = sum(fanout for sent, fanout in self.recent
                        if sent >= now - self.latency)
        accounted = network.packets_delivered + network.packets_lost
        if 0 <= self.expected - accounted <= in_flight:
            return []
        return [f"{when}: deliveries {network.packets_delivered} + losses "
                f"{network.packets_lost} do not match the fan-out "
                f"{self.expected} from the receiver map and partition "
                f"schedule ({in_flight} may be in flight)"]


@dataclass
class SapSim:
    """One built SAP simulation, ready to run to its horizon."""

    scheduler: EventScheduler
    network: NetworkModel
    routing: MeshRouting
    directories: List[SessionDirectory]
    space: MulticastAddressSpace
    tally: Dict[str, int]


def c_line_index(payload: str, base: int) -> Optional[int]:
    """Address index of an SDP payload's ``c=`` line, read without the
    program's SDP parser."""
    for line in payload.split("\n"):
        if line.startswith("c=IN IP4 "):
            dotted = line[len("c=IN IP4 "):].split("/")[0]
            octets = [int(part) for part in dotted.split(".")]
            value = ((octets[0] << 24) | (octets[1] << 16)
                     | (octets[2] << 8) | octets[3])
            return value - base
    return None


def cache_address_errors(sim: SapSim, when: str) -> Tuple[int, List[str]]:
    """Every cache entry's address index against its payload's c= line."""
    errors = []
    checked = 0
    for directory in sim.directories:
        for entry in directory.cache.entries():
            checked += 1
            expected = c_line_index(entry.message.payload, sim.space.base)
            if entry.address_index != expected:
                errors.append(
                    f"{when}: node {directory.node} caches address "
                    f"{entry.address_index} for a payload whose c= line "
                    f"gives {expected}")
    return checked, errors


class SapWorkload:
    """Shared shape of the two SAP workloads."""

    name = ""
    reuses_state = False
    check_round = False
    #: realizations a run cycles over; each is a set-up sample
    realizations = 0
    num_sites = 0
    space_size = 0
    sessions_per_site = 0
    interval = 20.0
    horizon = 600.0
    #: simulated time of the mid-run cache check
    check_at = 300.0
    #: simulated seconds per wall-time slice of a round
    slice_every = 0.5

    def make_allocator(self, rng):
        raise NotImplementedError

    def arrivals(self, workload_rng) -> Tuple[float, Optional[float]]:
        """(creation time, lifetime) of one session."""
        raise NotImplementedError

    def split(self) -> Optional[Tuple[frozenset, float, float]]:
        return None

    def setup(self, seed: int, probe: AllocProbe,
              realization: int = 0) -> SapSim:
        streams = RandomStreams(seed + 1_000_003 * realization)
        scheduler = EventScheduler()
        split = self.split()
        routing = MeshRouting(self.num_sites, scheduler, split,
                              jitter=0.01)
        network = NetworkModel(scheduler, routing, streams=streams,
                               loss_rate=0.01, jitter=0.01)
        space = MulticastAddressSpace.abstract(self.space_size)
        interval = self.interval
        directories = [
            SessionDirectory(
                node, scheduler, network,
                probe.wrap(self.make_allocator(
                    streams.get(f"alloc.{node}"))),
                space,
                strategy_factory=lambda: FixedIntervalStrategy(interval),
                rng=streams.get(f"dir.{node}"),
            )
            for node in range(self.num_sites)
        ]
        tally = {"attempted": 0, "failed": 0}
        sim = SapSim(scheduler, network, routing, directories, space, tally)
        # Realization 0 uses the seed itself and the observability
        # layer's stream key, so sap-churn at seed 1998 replays that
        # layer's steady harness event for event.
        workload_rng = streams.get("obs.workload")
        index = 0
        for node, directory in enumerate(directories):
            for __ in range(self.sessions_per_site):
                when, lifetime = self.arrivals(workload_rng)
                scheduler.schedule_at(  # simlint: disable=discarded-handle
                    when, _creation(sim, directory, f"s{index}@{node}",
                                    lifetime))
                index += 1
        if split is not None:
            group, start, end = split
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                start, lambda: network.partition(group))
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                end, network.heal)
        return sim

    def run_round(self, sim: SapSim, probe: AllocProbe) -> RoundResult:
        wall = self.advance(sim, probe, self.check_at)
        checks, errors = cache_address_errors(sim, f"t={self.check_at:g}")
        errors += sim.routing.fanout_errors(sim.network,
                                            f"t={self.check_at:g}")
        wall += self.advance(sim, probe, self.horizon)
        final_checks, final_errors = cache_address_errors(
            sim, f"t={self.horizon:g}")
        checks += final_checks + 2
        errors += final_errors
        errors += sim.routing.fanout_errors(sim.network,
                                            f"t={self.horizon:g}")
        network = sim.network
        end_checks, end_errors = self.end_state_errors(sim)
        errors += end_errors
        handlers = [d.clash_handler for d in sim.directories]
        counters = {
            "hash_collisions": sim.tally.get("hash_collisions", 0),
            "stale_versions": sim.tally.get("stale_versions", 0),
            "address_changes": sum(d.address_changes
                                   for d in sim.directories),
            "clashes": sum(h.clashes_seen for h in handlers),
            "defences": sum(h.defences_sent for h in handlers),
            "retreats": sum(h.retreats for h in handlers),
        }
        return RoundResult(
            wall=wall,
            attempted=sim.tally["attempted"],
            failed=sim.tally["failed"],
            events=sim.scheduler.events_run,
            deliveries=network.packets_delivered,
            losses=network.packets_lost,
            counters=counters,
            digest=(sim.scheduler.events_run, network.packets_delivered,
                    network.packets_lost, counters["address_changes"]),
            errors=errors,
            checks=checks + end_checks,
        )

    def advance(self, sim: SapSim, probe: AllocProbe, until: float
                ) -> float:
        """Run the simulation to ``until``, one wall-time slice per
        ``slice_every`` simulated seconds; returns the wall time."""
        scheduler = sim.scheduler
        steps = math.ceil((until - scheduler.now) / self.slice_every)
        start = scheduler.now
        probe.begin()
        began = clock()
        for step in range(1, steps):
            scheduler.run(until=start + step * self.slice_every)
            probe.lap()
        scheduler.run(until=until)
        wall = clock() - began
        probe.end()
        return wall

    def end_state_errors(self, sim: SapSim) -> Tuple[int, List[str]]:
        raise NotImplementedError


def _creation(sim: SapSim, directory: SessionDirectory, name: str,
              lifetime: Optional[float]) -> Callable[[], None]:
    def create() -> None:
        sim.tally["attempted"] += 1
        try:
            directory.create_session(name, ttl=127, lifetime=lifetime)
        except Exception:
            # A failed creation is the workload's failed operation; the
            # simulation carries on, as sdr would after a user error.
            sim.tally["failed"] += 1
    return create


class SapChurn(SapWorkload):
    """8-site full mesh, 16 addresses under AIPR-1, 48 sessions living
    60-180 s, 1% loss, partitioned from 25% to 45% of a 600 s horizon:
    clash-heavy and write-heavy.  This is the observability layer's
    steady harness; see the README for why a realization holds 48
    sessions rather than 80."""

    name = "sap-churn"
    realizations = 24
    num_sites = 8
    space_size = 16
    sessions_per_site = 6
    interval = 20.0
    horizon = 600.0
    check_at = 300.0

    def make_allocator(self, rng):
        return AdaptiveIprmaAllocator.aipr1(self.space_size, rng=rng)

    def arrivals(self, workload_rng):
        when = float(workload_rng.uniform(0.0, self.horizon * 0.6))
        lifetime = float(workload_rng.uniform(60.0, 180.0))
        return when, lifetime

    def split(self):
        group = frozenset(range(self.num_sites // 2))
        return group, self.horizon * 0.25, self.horizon * 0.45

    def end_state_errors(self, sim):
        live = sum(len(d.own_sessions()) for d in sim.directories)
        errors = []
        if live:
            errors.append(f"{live} sessions still announced at the "
                          f"{self.horizon:g} s horizon")
        created = self.num_sites * self.sessions_per_site
        if sim.tally["attempted"] != created:
            errors.append(f"{sim.tally['attempted']} creations ran, "
                          f"{created} were scheduled")
        return 2, errors


class SapRefresh(SapWorkload):
    """12-site full mesh, 20 long-lived sessions per site in a loose
    4,096-address space under IR, refreshed every 30 s, no partition:
    read-heavy, with hundreds of cached entries per site."""

    name = "sap-refresh"
    realizations = 1
    num_sites = 12
    space_size = 4096
    sessions_per_site = 20
    interval = 30.0
    #: sessions arrive within this window, then settle
    arrival_window = 60.0
    horizon = 180.0
    check_at = 120.0

    def make_allocator(self, rng):
        return InformedRandomAllocator(self.space_size, rng)

    def arrivals(self, workload_rng):
        return float(workload_rng.uniform(0.0, self.arrival_window)), None

    def end_state_errors(self, sim):
        errors = []
        live = [(d.node, own.description.session_id, own.session.address,
                 message_hash(format_payload(own.description)))
                for d in sim.directories for own in d.own_sessions()]
        created = self.num_sites * self.sessions_per_site
        if len(live) != created:
            errors.append(f"{len(live)} live sessions, {created} created")
        # Two sessions of one site whose payloads share a 16-bit message
        # id hash have the same cache key everywhere, so every other
        # site keeps only one of them.  That fault (see CHANGES.md) hits
        # some seeds and not others; such sessions are counted and left
        # out of the comparisons below.
        keys = Counter((origin, key) for origin, __, __, key in live)
        hidden = {item for item, count in keys.items() if count > 1}
        sim.tally["hash_collisions"] = sum(keys[item] for item in hidden)
        visible = [item for item in live if item[::3] not in hidden]
        addresses = [address for __, __, address, __ in visible]
        if len(set(addresses)) != len(addresses):
            errors.append(f"{len(addresses) - len(set(addresses))} live "
                          f"sessions share an address after settling")
        stale = 0
        for directory in sim.directories:
            # A third-party defence can re-announce a version its
            # originator has since replaced, and the cache then holds
            # both (see CHANGES.md); only the newest version of each
            # session is compared, the older ones are counted.
            newest = {}
            for entry in directory.cache.entries():
                if entry.message.key() in hidden:
                    continue
                description = entry.description
                session = (entry.message.origin, description.session_id)
                if session in newest:
                    stale += 1
                    if newest[session][0] > description.version:
                        continue
                newest[session] = (description.version,
                                   entry.address_index)
            cached = sorted(session + (address,) for session, (
                __, address) in newest.items())
            expected = sorted(item[:3] for item in visible
                              if item[0] != directory.node)
            if cached != expected:
                errors.append(
                    f"node {directory.node} caches {len(cached)} sessions, "
                    f"{len(set(cached) ^ set(expected))} differ from the "
                    f"other sites' live sessions")
        sim.tally["stale_versions"] = stale
        return 2 + len(sim.directories), errors


def message_hash(payload: str) -> int:
    """SAP message id hash of a payload: the low 16 bits of its CRC-32."""
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFF


# ----------------------------------------------------------------------
# Allocation workloads
# ----------------------------------------------------------------------
@dataclass
class AllocState:
    scope_map: ScopeMap
    #: the workload seed, which drives the trials
    seed: int


def brute_force_clashes(world: AllocationWorld, session) -> bool:
    """Clash verdict recomputed from the need matrix over every live
    session, without the world's address index or reach cache."""
    need = world.scope_map.need
    reach = need[session.source] <= session.ttl
    for other in world.sessions:
        if other.address == session.address and np.any(
                reach & (need[other.source] <= other.ttl)):
            return True
    return False


class ClashAudit:
    """Compares every ``AllocationWorld.clashes`` verdict with
    :func:`brute_force_clashes` while installed."""

    def __init__(self) -> None:
        self.checked = 0
        self.errors: List[str] = []

    def __enter__(self):
        original = AllocationWorld.__dict__["clashes"]
        self._original = original

        def clashes(world, session):
            verdict = original(world, session)
            self.checked += 1
            if verdict != brute_force_clashes(world, session):
                self.errors.append(
                    f"clashes() said {verdict} for address "
                    f"{session.address} ttl {session.ttl} at node "
                    f"{session.source}")
            return verdict

        AllocationWorld.clashes = clashes
        return self

    def __exit__(self, *exc) -> None:
        AllocationWorld.clashes = self._original


class AllocWorkload:
    """Shared shape of the two allocation workloads."""

    name = ""
    reuses_state = True
    check_round = True
    setup_repeats = 3
    realizations = 1
    map_nodes = 0
    #: None: the map is generated from the workload seed
    map_seed: Optional[int] = None

    def setup(self, seed: int, probe: AllocProbe,
              realization: int = 0) -> AllocState:
        map_seed = seed if self.map_seed is None else self.map_seed
        topology = mbone.generate_mbone(
            mbone.MboneParams(total_nodes=self.map_nodes, seed=map_seed))
        scope_map = ScopeMap.from_topology(topology)
        return AllocState(scope_map, seed)

    def run_round(self, state: AllocState, probe: AllocProbe
                  ) -> RoundResult:
        attempted = len(probe.latencies)
        failed = probe.failed
        audit = ClashAudit() if probe.check else None
        probe.begin()
        start = clock()
        if audit is None:
            outputs = self.cells(state, probe)
        else:
            with audit:
                outputs = self.cells(state, probe)
        wall = clock() - start
        probe.end()
        errors = self.output_errors(state, outputs)
        checks = len(outputs)
        if audit is not None:
            errors += audit.errors + probe.violations
            checks += audit.checked + probe.checked
        return RoundResult(
            wall=wall,
            attempted=len(probe.latencies) - attempted,
            failed=probe.failed - failed,
            digest=tuple(outputs.items()),
            errors=errors,
            checks=checks,
        )

    def cells(self, state: AllocState, probe: AllocProbe) -> Dict:
        raise NotImplementedError

    def output_errors(self, state: AllocState, outputs: Dict) -> List[str]:
        raise NotImplementedError


class AllocPaper(AllocWorkload):
    """Fig. 5 fill-to-first-clash and fig. 12 churn cells on the
    1,864-node map with DS4.  The map is the one the figure benchmarks
    use (seed 1998), as the paper's figures share one map; the workload
    seed drives the trials."""

    name = "alloc-paper"
    map_nodes = 1864
    map_seed = 1998
    fig5_algorithms = ("random", "informed", "ipr7", "aipr1")
    fig5_spaces = (100, 400)
    fig5_trials = 5
    fig12_algorithms = ("ipr7", "aipr1", "aipr2")
    fig12_spaces = (100,)
    fig12_trials = 2

    def cells(self, state, probe):
        outputs = {}
        for algorithm in self.fig5_algorithms:
            factory = _probed(algorithm_factory(algorithm), probe)
            for space in self.fig5_spaces:
                row = fig5_cell(state.scope_map, factory, algorithm, DS4,
                                space, self.fig5_trials, seed=state.seed)
                outputs[("fig5", algorithm, space)] = row.mean_allocations
        for algorithm in self.fig12_algorithms:
            factory = _probed(algorithm_factory(algorithm), probe)
            for space in self.fig12_spaces:
                row = steady_cell(state.scope_map, factory, algorithm,
                                  space, DS4, trials=self.fig12_trials,
                                  seed=state.seed)
                outputs[("fig12", algorithm, space)] = (
                    row.allocations_at_half)
        return outputs

    def output_errors(self, state, outputs):
        errors = []
        # The paper's fig. 5 anchor: perfect partitioning (IPR 7-band)
        # packs far more sessions than random allocation, and scales
        # with the space.
        for space in self.fig5_spaces:
            ipr7 = outputs[("fig5", "ipr7", space)]
            rand = outputs[("fig5", "random", space)]
            if not ipr7 >= 5 * rand:
                errors.append(f"fig. 5 at space {space}: IPR-7 {ipr7} is "
                              f"under 5x R {rand}")
        sizes = [outputs[("fig5", "ipr7", space)]
                 for space in self.fig5_spaces]
        if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
            errors.append(f"fig. 5: IPR-7 does not grow with space: "
                          f"{sizes}")
        return errors


class AllocDense(AllocWorkload):
    """Fill-to-first-clash with every session visible everywhere, on
    spaces of thousands of addresses: IR fills the space uniformly,
    IPR 7-band fills it in two dense bands."""

    name = "alloc-dense"
    setup_repeats = 15
    map_nodes = 122
    #: TTLs at or above the map's largest need, so every site sees
    #: every session
    ttls = TtlDistribution("dense", (127, 191))
    ir_space = 4096
    banded_space = 8192

    def cells(self, state, probe):
        runs = {
            "IR": (lambda n, rng: InformedRandomAllocator(n, rng),
                   self.ir_space),
            "IPR-7": (lambda n, rng: StaticIprmaAllocator.seven_band(
                n, rng), self.banded_space),
        }
        outputs = {}
        for index, (label, (make, space)) in enumerate(runs.items()):
            rng = np.random.default_rng((state.seed, index))
            outputs[(label, space)] = allocations_before_first_clash(
                state.scope_map, _probed(make, probe), space, self.ttls,
                rng, max_allocations=space + 1)
        return outputs

    def output_errors(self, state, outputs):
        errors = []
        largest_need = int(state.scope_map.need.max())
        if largest_need > min(self.ttls.values):
            errors.append(f"map needs TTL {largest_need}: sessions are "
                          f"not visible everywhere")
        count = outputs[("IR", self.ir_space)]
        if count != self.ir_space:
            errors.append(f"IR with full visibility made {count} "
                          f"allocations before its first clash, not "
                          f"{self.ir_space}")
        banded = outputs[("IPR-7", self.banded_space)]
        # Two of seven equal bands are in use, so the first clash comes
        # once one of them is full: after at least one band's worth of
        # allocations and before both are full.
        band = self.banded_space // 7
        if not band <= banded <= 2 * band + 1:
            errors.append(f"IPR-7 made {banded} allocations before its "
                          f"first clash, outside [{band}, {2 * band + 1}]")
        return errors


def _probed(factory, probe: AllocProbe):
    return lambda n, rng: probe.wrap(factory(n, rng))


WORKLOADS = {
    workload.name: workload
    for workload in (SapChurn, SapRefresh, AllocPaper, AllocDense)
}
