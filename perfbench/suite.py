"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, sets up (timed,
repeated), runs its timed operation for the requested time, and checks
every output against an independent reference outside the timed region.

* ``interactive`` — one engineer in a closed loop on one sequential paper
  design: retarget the watch list, reset, run 64 cycles, read waveforms.
* ``campaign-warm`` — a stuck-at localization campaign restarted against
  a pre-warmed disk store, so the offline layers only read.
* ``campaign-cold`` — physical mutation campaigns, one mutant each, against
  an empty disk store, so every offline stage builds and writes.

A workload's *operation* (what ``request_ms_p50`` times) is one debug turn
on ``interactive``, one campaign of all scenarios on ``campaign-warm`` and
one single-mutant campaign on ``campaign-cold``; ``throughput_per_s``
counts debug turns and scenarios respectively.

The paper designs are the suite's fixed stand-ins (design seed 2016); the
workload seed draws everything else: watch lists, stimulus, fault sites
and mutants.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import campaign as campaign_api
from repro import workloads as workloads_api
from repro.campaign import CampaignConfig
from repro.core.debug import DebugSession
from repro.core.flow import DebugFlowConfig, run_generic_stage
from repro.pipeline import (
    DEBUG_FLOW_GRAPH,
    GENERIC_STAGES,
    PHYSICAL_STAGES,
    ArtifactStore,
)
from repro.util.rng import derive_seed
from repro.workloads.scenarios import signal_traces, stimulus_script


#: Duration of one :func:`host_tick` at the reference host speed.
#:
#: Shared hosts change speed by up to 1.5x over tens of seconds: other
#: tenants' load slows every instruction, CPU time included.  All timed work
#: is therefore serial, in this process, and timed next to host ticks; it is
#: reported at reference speed, ``raw * REFERENCE_TICK_S / tick``, with raw
#: times printed beside it.
REFERENCE_TICK_S = 1.8e-3

#: Seconds between the host ticks :func:`timed` takes while its call runs.
TICK_INTERVAL_S = 0.05


def host_tick() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) & 0xFFFF_FFFF
    return time.perf_counter() - t0


def timed(fn, ends: int = 5):
    """``(fn(), raw seconds, seconds at reference speed)``.

    The host speed is sampled while ``fn`` runs: a ``SIGALRM`` every
    :data:`TICK_INTERVAL_S` runs one host tick, and ``ends`` ticks run
    before and after the call.  The ticks taken during the call are not
    counted in its raw time.  Over a set-up or a campaign of several
    seconds the host's speed changes, so ticks at the ends alone follow
    it less closely.
    """
    ticks = [host_tick() for _ in range(ends)]
    inside: list[float] = []
    busy = False

    def sample(_signum, _frame) -> None:
        nonlocal busy
        if not busy:  # a tick stalled past the next alarm
            busy = True
            inside.append(host_tick())
            busy = False

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        value = fn()
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    raw = wall - sum(inside)
    ticks += inside + [host_tick() for _ in range(ends)]
    return value, raw, raw * REFERENCE_TICK_S / statistics.median(ticks)


def peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stream(seed: int, name: str) -> int:
    """A 32-bit input seed for ``name``, derived from the workload seed."""
    return derive_seed(seed, f"perfbench/{name}") & 0xFFFF_FFFF


@dataclass
class Outcome:
    """What one workload run produced: metrics, checks and report lines."""

    metrics: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    """Taken when the timed work ends, before any checks run after it."""
    attempted: int = 0
    failed: int = 0
    lines: list[str] = field(default_factory=list)
    # inputs to the per-layer metrics of a traced run
    scenarios: int = 0
    turns: int = 0
    localized: int = 0
    overhead_frac: float = 0.0

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        self.lines.append(f"FAIL {message}")


class NoTrace:
    """Stand-in for :class:`tracing.Tracer` on untraced runs."""

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


# -- interactive ------------------------------------------------------------------


class Interactive:
    """Closed-loop debug turns on ``diffeq1`` through :class:`DebugSession`.

    The turn plan is a cycle of ``cycle_turns`` watch lists (one signal
    per trace group) that alternately change one group and every group,
    so the SCG frame diff sees both small and full changes.  One untimed
    pass of the cycle runs first; after it every pass starts from the same
    configuration, so each plan position's modelled cost repeats exactly
    and any difference is drift.
    """

    name = "interactive"
    design = "diffeq1"
    setup_reps = 5
    cycles = 64
    cycle_turns = 64
    n_stimuli = 4
    min_turns = 200
    """Enough turns that at least ten samples lie beyond p95."""

    def setup(self, seed: int, tmp: str) -> DebugSession:
        net = workloads_api.generate_circuit(workloads_api.get_spec(self.design))
        return DebugSession(run_generic_stage(net))

    def identity(self, session: DebugSession) -> tuple:
        design = session.design
        return (session.offline.mapping.n_luts, len(design.groups), len(design.taps))

    def _plan(self, session: DebugSession, seed: int) -> list[list[str]]:
        rng = np.random.default_rng(_stream(seed, "interactive/plan"))
        groups = session.design.groups
        name = session.design.network.node_name
        picks = [int(rng.integers(len(g.leaves))) for g in groups]
        plan = []
        for t in range(self.cycle_turns):
            if t % 2 == 0:
                gi = int(rng.integers(len(groups)))
                picks[gi] = int(rng.integers(len(groups[gi].leaves)))
            else:
                picks = [int(rng.integers(len(g.leaves))) for g in groups]
            plan.append([name(g.leaves[p]) for g, p in zip(groups, picks)])
        return plan

    def run(self, session: DebugSession, seed: int, seconds: float, trace) -> Outcome:
        out = Outcome()
        plan = self._plan(session, seed)
        source = session.offline.source
        taps = sorted({n for names in plan for n in names})
        stims, refs = [], []
        for i in range(self.n_stimuli):
            stim = stimulus_script(
                source, self.cycles, _stream(seed, f"interactive/stim{i}")
            )
            stims.append(stim)
            # independent reference: the source netlist on the interpreter
            refs.append(signal_traces(source, stim, taps, interpreted=True))
        expected: dict[int, tuple] = {}
        n_done = 0

        def turn() -> tuple[float, float, float]:
            nonlocal n_done
            i, n_done = n_done, n_done + 1
            pos = i % self.cycle_turns
            names = plan[pos]
            stim = stims[i % self.n_stimuli]
            scale = REFERENCE_TICK_S / host_tick()
            t0 = time.perf_counter()
            session.observe(names)
            t1 = time.perf_counter()
            session.reset()
            session.run(self.cycles, lambda c: stim[c])
            waves = session.waveforms()
            t2 = time.perf_counter()
            out.attempted += 1
            ref = refs[i % self.n_stimuli]
            bad = [
                n for n in names
                if n not in waves or not np.array_equal(waves[n], ref.get(n))
            ]
            if bad:
                out.fail(f"turn {i}: {len(bad)} waveforms differ from the reference, e.g. {bad[0]}")
            rec = session.scg.history[-1]
            cost = (
                rec.device_cost.specialization_s,
                len(rec.frames_touched),
                rec.stats.n_expr_nodes_evaluated,
            )
            # turn 0 diffs against the initial configuration, not against
            # the end of a pass, so it is the one turn left unchecked
            if i > 0:
                if expected.setdefault(pos, cost) != cost:
                    out.fail(f"turn {i}: modelled cost drifted at plan position {pos}")
            return (t2 - t0) * scale, (t1 - t0) * scale, t2 - t0

        def block(min_turns: int, budget: float) -> list[tuple[float, float, float]]:
            samples = []
            t_end = time.perf_counter() + budget
            while len(samples) < min_turns or time.perf_counter() < t_end:
                samples.append(turn())
            return samples

        block(self.cycle_turns, 0.0)  # warm-up pass, untimed
        if isinstance(trace, NoTrace):
            samples = block(self.min_turns, seconds)
        else:
            # equal untraced and traced blocks of whole plan cycles
            n = len(block(self.cycle_turns, seconds / 2))
            n = max(self.cycle_turns, n - n % self.cycle_turns)
            untraced = block(n, 0.0)
            trace.install()
            samples = block(n, 0.0)
            trace.uninstall()
            out.overhead_frac = (
                sum(t for t, _, _ in samples) / sum(t for t, _, _ in untraced) - 1.0
            )
        out.peak_rss_mb = peak_rss_mb()
        turns = [t for t, _, _ in samples]
        retargets = [r for _, r, _ in samples]
        raw = [w for _, _, w in samples]
        p95 = float(np.percentile(turns, 95))
        modeled = [expected[p][0] for p in range(self.cycle_turns)]
        out.metrics = {
            "request_ms_p50": 1e3 * statistics.median(turns),
            "throughput_per_s": len(turns) / sum(turns),
            "modeled_retarget_us": 1e6 * statistics.fmean(modeled),
            "luts_mean": float(session.offline.mapping.n_luts),
        }
        out.lines += [
            f"turn_ms_p50 {1e3 * statistics.median(turns):.4f} ms",
            f"turn_ms_p95 {1e3 * p95:.4f} ms ({len(turns)} turns, "
            f"{sum(t > p95 for t in turns)} beyond p95)",
            f"retarget_ms_p50 {1e3 * statistics.median(retargets):.4f} ms",
            f"raw turn_ms_p50 {1e3 * statistics.median(raw):.4f} ms, "
            f"turn_ms_p95 {1e3 * float(np.percentile(raw, 95)):.4f} ms",
        ]
        return out


# -- campaigns ------------------------------------------------------------------


@dataclass
class CampaignState:
    scenarios: list
    tmp: str
    cache_dir: str | None = None
    """The pre-warmed store (``campaign-warm``); ``None`` means every
    campaign gets an empty one."""


@dataclass
class _Run:
    scenarios: list
    report: object
    raw: float
    time: float
    """Campaign time at reference host speed."""
    cache_dir: str


class _Campaign:
    """Measurement loop and checks shared by the two campaign workloads.

    Campaigns run serially in this process (``workers=1``) and are timed
    at reference host speed.  On a 2-core shared host, two pool workers
    and the parent measured the scheduler: two runs of one campaign
    differed by 20%, and no host tick followed their walls.

    The scenarios are split into campaigns of ``per_campaign`` (all of
    them when ``None``).  A run times each of these campaigns once, in
    order, and keeps cycling through them until its time is up.
    """

    per_campaign: int | None = None
    reference_sample = 2
    with_physical = False

    def identity(self, state: CampaignState) -> tuple:
        return tuple(state.scenarios)

    def config(self) -> CampaignConfig:
        raise NotImplementedError

    def reference_config(self) -> CampaignConfig:
        raise NotImplementedError

    def _chunks(self, state: CampaignState) -> list[list]:
        n = self.per_campaign or len(state.scenarios)
        return [state.scenarios[i : i + n] for i in range(0, len(state.scenarios), n)]

    def _campaign(self, state: CampaignState, scenarios: list) -> _Run:
        cache_dir = state.cache_dir or tempfile.mkdtemp(prefix="store-", dir=state.tmp)
        store = ArtifactStore(cache_dir=cache_dir)
        # start every campaign from the same heap, so that neither its time
        # nor the peak RSS depends on when the collector last ran
        gc.collect()
        report, raw, scaled = timed(
            lambda: campaign_api.run_campaign(scenarios, config=self.config(), cache=store)
        )
        return _Run(scenarios, report, raw, scaled, cache_dir)

    def _read_back(self, run: _Run) -> dict:
        """``{tcon-map key: (LUTs, routed wires or None)}`` of every
        distinct design of the campaign, read back from its store."""
        stages = GENERIC_STAGES + (PHYSICAL_STAGES if self.with_physical else ())
        store = ArtifactStore(cache_dir=run.cache_dir)
        designs = {}
        for sc in run.scenarios:
            keys = DEBUG_FLOW_GRAPH.stage_keys(
                sc.debug_network(), DebugFlowConfig(), stages=stages
            )
            if keys["tcon-map"] in designs:
                continue
            wires = None
            if self.with_physical:
                _rr, routing = store.get("route", keys["route"]).value
                wires = routing.total_wires_used()
            designs[keys["tcon-map"]] = (
                store.get("tcon-map", keys["tcon-map"]).value.n_luts,
                wires,
            )
        return designs

    def _summary(self, run: _Run) -> tuple:
        results = run.report.results
        return (
            sum(r.status == "localized" for r in results),
            sum(r.turns for r in results),
            sum(r.modeled_overhead_s for r in results),
            self._read_back(run),
        )

    def run(self, state: CampaignState, seed: int, seconds: float, trace) -> Outcome:
        out = Outcome()
        chunks = self._chunks(state)
        if isinstance(trace, NoTrace):
            t_end = time.perf_counter() + seconds
            runs = []
            while len(runs) < len(chunks) or time.perf_counter() < t_end:
                runs.append(self._campaign(state, chunks[len(runs) % len(chunks)]))
            timed_runs = runs
        else:
            # traced runs stay in-process so every layer call is seen
            untraced = [self._campaign(state, c) for c in chunks]
            trace.install()
            traced = [self._campaign(state, c) for c in chunks]
            trace.uninstall()
            out.overhead_frac = (
                sum(r.time for r in traced) / sum(r.time for r in untraced) - 1.0
            )
            runs = untraced + traced
            timed_runs = traced
        out.peak_rss_mb = peak_rss_mb()

        # the first run of each campaign is the one later runs must repeat
        first: list[tuple[_Run, tuple]] = []
        for i, run in enumerate(runs):
            out.attempted += len(run.report.results)
            errors = [r for r in run.report.results if r.status == "error"]
            if errors:
                out.fail(
                    f"{len(errors)} scenarios errored, e.g. "
                    f"{errors[0].scenario}: {errors[0].error}",
                    len(errors),
                )
            summary = self._summary(run)
            if i < len(chunks):
                first.append((run, summary))
                continue
            ref_run, ref_summary = first[i % len(chunks)]
            if run.report.outcomes() != ref_run.report.outcomes():
                out.fail(f"campaign {i % len(chunks)}: scenario outcomes drifted between runs")
            if summary != ref_summary:
                out.fail(
                    f"campaign {i % len(chunks)}: deterministic aggregates drifted: "
                    f"{ref_summary} vs {summary}"
                )
        self._check_reference(state, seed, [run for run, _ in first], out)

        designs = {}
        for _, (_, _, _, read_back) in first:
            designs.update(read_back)
        localized = sum(s[0] for _, s in first)
        turns = sum(s[1] for _, s in first)
        modeled_s = sum(s[2] for _, s in first)
        luts = [n for n, _ in designs.values()]
        wires = [w for _, w in designs.values() if w is not None]
        n = len(state.scenarios)
        times = [run.time for run in timed_runs]
        n_timed = sum(len(run.scenarios) for run in timed_runs)
        out.scenarios, out.turns, out.localized = n, turns, localized
        out.metrics = {
            "request_ms_p50": 1e3 * statistics.median(times),
            "throughput_per_s": n_timed / sum(times),
            "modeled_retarget_us": 1e6 * modeled_s / turns,
            "luts_mean": statistics.fmean(luts),
        }
        out.lines += [
            f"scenarios_per_s {n_timed / sum(times):.4f} 1/s "
            f"({len(times)} campaigns, {n_timed} scenarios)",
            f"campaign_s {[round(t, 4) for t in times]}",
            f"raw campaign_s {[round(run.raw, 4) for run in timed_runs]}",
            f"localized_frac {localized / n:.6f} ({localized}/{n})",
            f"turns_per_scenario {turns / n:.4f}",
        ]
        if wires:
            out.lines.append(f"routed_wires_mean {statistics.fmean(wires):.4f} wires")
        return out

    def _check_reference(
        self, state: CampaignState, seed: int, runs: list[_Run], out: Outcome
    ) -> None:
        """Re-run a seeded sample of scenarios on the one-lane reference
        path, untimed, and compare their deterministic outcomes.  Each
        sampled scenario reuses the store of the campaign that ran it."""
        rng = np.random.default_rng(_stream(seed, f"{self.name}/sample"))
        picks = sorted(
            int(i)
            for i in rng.choice(
                len(state.scenarios), self.reference_sample, replace=False
            )
        )
        per = self.per_campaign or len(state.scenarios)
        for i in picks:
            run = runs[i // per]
            ref = campaign_api.run_campaign(
                [state.scenarios[i]],
                config=self.reference_config(),
                cache=ArtifactStore(cache_dir=run.cache_dir),
            )
            out.attempted += 1
            if ref.results[0].outcome() != run.report.results[i % per].outcome():
                out.fail(
                    f"{ref.results[0].scenario}: outcome differs from the one-lane reference"
                )


class CampaignWarm(_Campaign):
    """Stuck-at localization on ``diffeq1`` and ``diffeq2`` as a warm
    restart: setup pre-warms a disk store, and every campaign opens it
    with a fresh store object, so every hit is a disk read."""

    name = "campaign-warm"
    # a set-up screens 128 faults, half as long as a campaign; two keep a
    # run within the time the benchmark's runs may take together
    setup_reps = 2
    designs = ("diffeq1", "diffeq2")
    per_design = 64
    horizon = 64

    def setup(self, seed: int, tmp: str) -> CampaignState:
        cache_dir = tempfile.mkdtemp(prefix="warm-", dir=tmp)
        store = ArtifactStore(cache_dir=cache_dir)
        scenarios = []
        for design in self.designs:
            spec = workloads_api.get_spec(design)
            offline = run_generic_stage(
                workloads_api.generate_circuit(spec), store=store
            )
            scenarios += workloads_api.stuck_at_scenarios(
                spec,
                self.per_design,
                seed=_stream(seed, f"warm/{design}/faults"),
                horizon=self.horizon,
                stimulus_seed=_stream(seed, f"warm/{design}/stimulus"),
                offline=offline,
            )
        return CampaignState(scenarios, tmp, cache_dir)

    def config(self) -> CampaignConfig:
        return CampaignConfig(workers=1, lane_width=64)

    def reference_config(self) -> CampaignConfig:
        # the interpreter costs 20-60 s per diffeq scenario, so the
        # reference is the one-lane python-kernel path instead of the
        # packed 64-lane numpy path under test
        return CampaignConfig(workers=1, lane_width=1, backend="python")


class CampaignCold(_Campaign):
    """Physical mutation campaigns on a ~200-gate combinational design,
    one mutant each: every mutant is a distinct netlist, so every lookup
    misses and every offline stage builds and writes to an empty disk
    store.  A run times each mutant at least once, so its median covers
    every mutant the seed drew."""

    name = "campaign-cold"
    setup_reps = 9
    mutants = 8
    per_campaign = 1
    with_physical = True

    def setup(self, seed: int, tmp: str) -> CampaignState:
        spec = workloads_api.campaign_spec(
            "perfbench-cold", n_gates=200, depth=10, n_pis=24, n_pos=12
        )
        scenarios = workloads_api.mutation_scenarios(
            spec,
            self.mutants,
            seed=_stream(seed, "cold/mutants"),
            stimulus_seed=_stream(seed, "cold/stimulus"),
        )
        return CampaignState(scenarios, tmp)

    def config(self) -> CampaignConfig:
        return CampaignConfig(workers=1, with_physical=True)

    def reference_config(self) -> CampaignConfig:
        return CampaignConfig(
            workers=1, lane_width=1, interpreted=True, with_physical=True
        )


WORKLOADS = {w.name: w for w in (Interactive(), CampaignWarm(), CampaignCold())}
