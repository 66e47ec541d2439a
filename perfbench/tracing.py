"""Span recorders for the traced (``--trace 1``) benchmark run.

The program itself carries no tracing: every span here is recorded by a
wrapper that the benchmark installs around a layer's public entry point,
patched in the namespace where its callers look the name up (a class
attribute, or the module global a caller imports from).  Spans are kept in
memory as ``(name, start, end, parent)`` records and reduced to per-layer
metrics when the run ends.

A layer's *self time* is the time its spans cover minus the time covered
by their direct child spans, so work a layer delegates to another traced
layer is charged to that layer, not twice.

Everything runs in one process at one worker while traced: calls made in
a worker process would not be seen.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

LAYERS = (
    "workloads",
    "pipeline",
    "mapping",
    "core",
    "pack",
    "arch",
    "place",
    "route",
    "bitgen",
    "netlist",
    "engine",
    "campaign",
)

#: Per-layer metrics: (name, unit, better, the end-to-end metric it should
#: move, on which workload).  ``BENCHMARK.json``'s ``per_layer`` list and
#: ``perfbench/README.md`` mirror this table.
PER_LAYER = (
    ("workloads.screen_s", "s", "lower", "setup_s on campaign-warm and campaign-cold"),
    ("pipeline.compile_calls", "count", "lower", "throughput_per_s on campaign-cold; setup_s on interactive"),
    ("pipeline.compile_s", "s", "lower", "throughput_per_s on campaign-cold; setup_s on interactive"),
    ("pipeline.store_hit_ratio", "ratio", "higher", "throughput_per_s on campaign-warm (reads) and campaign-cold (writes)"),
    ("pipeline.store_disk_hits", "count", "higher", "throughput_per_s on campaign-warm"),
    ("pipeline.store_get_s", "s", "lower", "throughput_per_s on campaign-warm"),
    ("pipeline.store_put_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("mapping.map_calls", "count", "lower", "throughput_per_s on campaign-cold"),
    ("mapping.map_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("core.trace_network_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("pack.busy_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("arch.rr_graph_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("place.busy_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("place.hpwl_mean", "count", "lower", "routed_wires_mean on campaign-cold"),
    ("route.busy_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("route.iterations_mean", "count", "lower", "throughput_per_s on campaign-cold"),
    ("route.wires_mean", "count", "lower", "routed_wires_mean on campaign-cold"),
    ("bitgen.busy_s", "s", "lower", "throughput_per_s on campaign-cold"),
    ("core.retarget_s", "s", "lower", "request_ms_p50 on interactive"),
    ("core.specialize_s", "s", "lower", "request_ms_p50 on interactive"),
    ("core.frames_touched_per_turn", "count", "lower", "modeled_retarget_us on interactive"),
    ("core.expr_nodes_per_turn", "count", "lower", "modeled_retarget_us on interactive"),
    ("netlist.program_calls", "count", "lower", "setup_s on interactive; throughput_per_s on both campaigns"),
    ("netlist.compiles", "count", "lower", "setup_s on interactive; throughput_per_s on both campaigns"),
    ("netlist.program_hit_ratio", "ratio", "higher", "setup_s on interactive; throughput_per_s on both campaigns"),
    ("netlist.compile_s", "s", "lower", "setup_s on interactive; throughput_per_s on both campaigns"),
    ("engine.run_s", "s", "lower", "request_ms_p50 on interactive (1 lane); throughput_per_s on campaign-warm (64 lanes)"),
    ("engine.lane_cycles", "count", "lower", "throughput_per_s on campaign-warm"),
    ("engine.lane_cycles_per_s", "1/s", "higher", "request_ms_p50 on interactive; throughput_per_s on campaign-warm"),
    ("engine.lane_occupancy", "ratio", "higher", "throughput_per_s on campaign-warm"),
    ("engine.waveforms_s", "s", "lower", "request_ms_p50 on interactive"),
    ("campaign.batch_s", "s", "lower", "throughput_per_s on campaign-warm"),
    ("campaign.walk_s", "s", "lower", "throughput_per_s on campaign-warm"),
    ("campaign.golden_s", "s", "lower", "throughput_per_s on campaign-warm"),
    ("campaign.turns_per_scenario", "count", "lower", "throughput_per_s on campaign-warm"),
    ("campaign.localized_frac", "ratio", "higher", "none: localization quality of both campaigns"),
    ("campaign.orchestration_self_s", "s", "lower", "throughput_per_s on both campaigns"),
) + tuple(
    (f"{layer}.self_s", "s", "lower", "the layer's share of every timed metric")
    for layer in LAYERS
) + (
    ("trace.overhead_frac", "ratio", "lower", "none: traced over untraced time of the same operation, minus 1"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    """Records spans and counters around patched layer entry points."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, hook=None):
        """Run ``fn`` inside a span; ``hook(tracer, fn, args, kwargs)``,
        when given, makes the call itself and records counters."""
        idx = self._open(name)
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(self, fn, args, kwargs)
        finally:
            self._close(idx)

    def generator(self, name: str, gen):
        """Proxy a generator, timing every resume as one span."""
        to_send = None
        while True:
            idx = self._open(name)
            try:
                item = gen.send(to_send)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(idx)
            to_send = yield item

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, name: str, *, hook=None, gen=False):
        original = getattr(owner, attr)
        tracer = self
        if gen:
            def wrapper(*args, **kwargs):
                return tracer.generator(name, original(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, hook)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point (see :func:`_entry_points`)."""
        if self._saved:
            return
        for owner, attr, name, hook, gen in _entry_points():
            self.patch(owner, attr, name, hook=hook, gen=gen)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def busy(self, *names: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def n(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counting hooks -------------------------------------------------------------


def _store_get(tracer, fn, args, kwargs):
    store, stage = args[0], args[1]
    disk_before = store.stats.for_stage(stage).disk_hits
    found = fn(*args, **kwargs)
    tracer.count("store.lookups")
    if found is not None:
        tracer.count("store.hits")
    if store.stats.for_stage(stage).disk_hits > disk_before:
        tracer.count("store.disk_hits")
    return found


def _place(tracer, fn, args, kwargs):
    placement = fn(*args, **kwargs)
    tracer.count("place.designs")
    tracer.count("place.hpwl", float(placement.cost))
    return placement


def _route(tracer, fn, args, kwargs):
    routing = fn(*args, **kwargs)
    tracer.count("route.designs")
    tracer.count("route.iterations", float(routing.iterations))
    tracer.count("route.wires", float(routing.total_wires_used()))
    return routing


def _respecialize(tracer, fn, args, kwargs):
    record = fn(*args, **kwargs)
    tracer.count("core.turns")
    tracer.count("core.frames", float(len(record.frames_touched)))
    tracer.count("core.expr_nodes", float(record.stats.n_expr_nodes_evaluated))
    return record


def _lane_cycles(tracer, engine, n_cycles: int) -> None:
    tracer.count("engine.lane_cycles", float(n_cycles * engine.n_lanes))
    tracer.count("engine.word_lanes", float(n_cycles * 64 * engine.n_words))


def _run(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    n_cycles = args[1] if len(args) > 1 else kwargs["n_cycles"]
    _lane_cycles(tracer, args[0], n_cycles)
    return result


def _run_outputs(tracer, fn, args, kwargs):
    packed = fn(*args, **kwargs)
    _lane_cycles(tracer, args[0], int(packed.shape[0]))
    return packed


def _entry_points():
    """``(owner, attribute, span name, hook, is_generator)`` per
    traced entry point, patched where the callers look the name up."""
    m = importlib.import_module
    pipeline = m("repro.pipeline")
    scheduler = m("repro.pipeline.scheduler")
    stages = m("repro.pipeline.stages")
    store = m("repro.pipeline.store")
    mapping = m("repro.mapping")
    physical = m("repro.physical")
    simulate = m("repro.netlist.simulate")
    compiled = m("repro.netlist.compiled")
    engine = m("repro.engine")
    pconf = m("repro.core.pconf")
    scg = m("repro.core.scg")
    workloads = m("repro.workloads")
    campaign = m("repro.campaign")
    orchestrator = m("repro.campaign.orchestrator")
    runner = m("repro.campaign.runner")
    localize = m("repro.campaign.localize")
    return (
        (workloads, "stuck_at_scenarios", "workloads.screen", None, False),
        (workloads, "mutation_scenarios", "workloads.screen", None, False),
        (pipeline, "compile_design", "pipeline.compile", None, False),
        (scheduler, "_segment_worker", "pipeline.compile", None, False),
        (store.ArtifactStore, "get_if_present", "pipeline.store_get", _store_get, False),
        (store.ArtifactStore, "put", "pipeline.store_put", None, False),
        (mapping.AbcMap, "map", "mapping.map", None, False),
        (mapping.TconMap, "map", "mapping.map", None, False),
        (stages, "build_trace_network", "core.trace_network", None, False),
        (engine.LaneEngine, "observe", "core.retarget", None, False),
        (scg.SpecializedConfigGenerator, "respecialize", "core.respecialize", _respecialize, False),
        (pconf.ParameterizedBitstream, "specialize", "core.specialize", None, False),
        (physical, "build_atoms", "pack.busy", None, False),
        (physical, "pack_design", "pack.busy", None, False),
        (physical, "build_rr_graph", "arch.rr_graph", None, False),
        (physical, "place_design", "place.busy", _place, False),
        (physical, "route_design", "route.busy", _route, False),
        (physical, "build_config_layout", "bitgen.busy", None, False),
        (physical, "generate_bitstream", "bitgen.busy", None, False),
        (simulate, "program_for", "netlist.program", None, False),
        (compiled, "compile_network", "netlist.compile", None, False),
        (engine.LaneEngine, "run", "engine.run", _run, False),
        (engine.LaneEngine, "run_outputs", "engine.run", _run_outputs, False),
        (engine.LaneEngine, "waveforms", "engine.waveforms", None, False),
        (campaign, "run_campaign", "campaign.orchestration", None, False),
        (orchestrator, "run_scenario_batch", "campaign.batch", None, False),
        (orchestrator, "run_scenario", "campaign.batch", None, False),
        (runner, "divergence_walk", "campaign.walk", None, True),
        (localize, "divergence_walk", "campaign.walk", None, True),
        (runner, "packed_signal_traces", "campaign.golden", None, False),
        (runner, "golden_signal_traces", "campaign.golden", None, False),
    )


def layer_metrics(
    tracer: Tracer,
    *,
    scenarios: int,
    turns: int,
    localized: int,
    overhead_frac: float,
) -> dict[str, float]:
    """Reduce ``tracer``'s spans to every metric in :data:`PER_LAYER`.

    ``scenarios``/``turns``/``localized`` come from the traced campaign's
    report (zero on the interactive workload).
    """
    c = tracer.counts.get
    selfs = tracer.self_times()
    run_s = tracer.busy("engine.run")
    lookups = c("store.lookups", 0.0)
    programs = tracer.n("netlist.program")
    compiles = tracer.n("netlist.compile")
    places = c("place.designs", 0.0)
    routes = c("route.designs", 0.0)
    retargets = c("core.turns", 0.0)
    metrics = {
        "workloads.screen_s": tracer.busy("workloads.screen"),
        "pipeline.compile_calls": float(tracer.n("pipeline.compile")),
        "pipeline.compile_s": tracer.busy("pipeline.compile"),
        "pipeline.store_hit_ratio": _ratio(c("store.hits", 0.0), lookups),
        "pipeline.store_disk_hits": c("store.disk_hits", 0.0),
        "pipeline.store_get_s": tracer.busy("pipeline.store_get"),
        "pipeline.store_put_s": tracer.busy("pipeline.store_put"),
        "mapping.map_calls": float(tracer.n("mapping.map")),
        "mapping.map_s": tracer.busy("mapping.map"),
        "core.trace_network_s": tracer.busy("core.trace_network"),
        "pack.busy_s": tracer.busy("pack.busy"),
        "arch.rr_graph_s": tracer.busy("arch.rr_graph"),
        "place.busy_s": tracer.busy("place.busy"),
        "place.hpwl_mean": _ratio(c("place.hpwl", 0.0), places),
        "route.busy_s": tracer.busy("route.busy"),
        "route.iterations_mean": _ratio(c("route.iterations", 0.0), routes),
        "route.wires_mean": _ratio(c("route.wires", 0.0), routes),
        "bitgen.busy_s": tracer.busy("bitgen.busy"),
        "core.retarget_s": tracer.busy("core.retarget"),
        "core.specialize_s": tracer.busy("core.specialize"),
        "core.frames_touched_per_turn": _ratio(c("core.frames", 0.0), retargets),
        "core.expr_nodes_per_turn": _ratio(c("core.expr_nodes", 0.0), retargets),
        "netlist.program_calls": float(programs),
        "netlist.compiles": float(compiles),
        "netlist.program_hit_ratio": _ratio(programs - compiles, programs),
        "netlist.compile_s": tracer.busy("netlist.compile"),
        "engine.run_s": run_s,
        "engine.lane_cycles": c("engine.lane_cycles", 0.0),
        "engine.lane_cycles_per_s": _ratio(c("engine.lane_cycles", 0.0), run_s),
        "engine.lane_occupancy": _ratio(
            c("engine.lane_cycles", 0.0), c("engine.word_lanes", 0.0)
        ),
        "engine.waveforms_s": tracer.busy("engine.waveforms"),
        "campaign.batch_s": tracer.busy("campaign.batch"),
        "campaign.walk_s": tracer.busy("campaign.walk"),
        "campaign.golden_s": tracer.busy("campaign.golden"),
        "campaign.turns_per_scenario": _ratio(turns, scenarios),
        "campaign.localized_frac": _ratio(localized, scenarios),
        "campaign.orchestration_self_s": selfs.get("campaign.orchestration", 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for name, t in selfs.items() if name.split(".", 1)[0] == layer
        )
    return metrics
