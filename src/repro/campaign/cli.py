"""Command-line entry point: ``python -m repro.campaign``.

Builds a scenario batch for the requested designs, runs the campaign and
prints (optionally persists) the aggregated report.  Examples::

    # 3 stuck-at scenarios on each of two designs, stage-granular cache
    python -m repro.campaign --designs stereov. diffeq2 --per-design 3

    # mixed fault kinds, 4 online workers, artifacts persisted on disk
    python -m repro.campaign --kind mixed --workers 4 --cache-dir .repro-cache

    # PR 1's whole-artifact cache granularity instead of per-stage
    python -m repro.campaign --whole-artifact --cache-dir .repro-cache

    # cold baseline (no offline amortization), report saved to results/
    python -m repro.campaign --no-cache --save campaign_cold

    # CI cache-correctness: run twice on one dir; the second run must be
    # all stage-hits and produce identical deterministic outcomes
    python -m repro.campaign --cache-dir /tmp/c --outcomes-json /tmp/a.json
    python -m repro.campaign --cache-dir /tmp/c --outcomes-json /tmp/b.json \
        --assert-warm

    # checkpointed campaign: if this process is killed mid-run, the
    # second command replays the journaled scenarios and finishes the
    # rest — outcomes byte-identical to an uninterrupted run
    python -m repro.campaign --cache-dir /tmp/c --campaign-id nightly
    python -m repro.campaign --cache-dir /tmp/c --resume nightly

Exit status: 0 on success, 1 when any scenario ended in an error result
(a failing design is isolated by default — ``--keep-going`` — or aborts
the batch under ``--fail-fast``), 2 on usage errors, 3 when
``--assert-warm`` saw a cache miss.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.campaign.cache import ArtifactStore, OfflineCache, resolve_offline
from repro.campaign.orchestrator import (
    CampaignConfig,
    _offline_group_key,
    prebuild_offline,
    run_campaign,
)
from repro.netlist.compiled import BACKENDS, numpy_available
from repro.errors import WorkloadError
from repro.workloads.scenarios import (
    DebugScenario,
    mutation_scenarios,
    stuck_at_scenarios,
)
from repro.workloads.suites import PAPER_SUITE

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Batch debug campaign over many (design, bug) scenarios.",
    )
    p.add_argument(
        "--designs",
        nargs="+",
        default=["stereov."],
        metavar="NAME",
        help=f"benchmark designs (known: {', '.join(sorted(PAPER_SUITE))})",
    )
    p.add_argument(
        "--per-design",
        type=int,
        default=3,
        help="bug scenarios generated per design (default 3)",
    )
    p.add_argument(
        "--kind",
        choices=["stuck-at", "mutation", "mixed"],
        default="stuck-at",
        help="emulation-level faults (amortized offline stage), netlist "
        "mutations (one offline run each), or half/half",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="online-phase worker processes (default 1 = serial)",
    )
    p.add_argument(
        "--offline-workers",
        type=int,
        default=1,
        metavar="N",
        help="offline-phase build processes: distinct cold designs "
        "pack/place/route concurrently, artifacts landing under the same "
        "content-addressed cache keys as serial builds (default 1 = "
        "serial; outcomes are byte-identical either way)",
    )
    p.add_argument(
        "--lane-width",
        type=int,
        default=64,
        metavar="N",
        help="scenarios packed per emulation batch, >= 1 (default 64; "
        "widths beyond 64 span multiple uint64 words); 1 runs the "
        "historical one-session-per-scenario path — outcomes are "
        "byte-identical at every width (the CI lane-equivalence job "
        "diffs them)",
    )
    p.add_argument(
        "--sim-backend",
        choices=("auto",) + BACKENDS,
        default="auto",
        help="compiled simulation kernel backend: 'python' (big-int "
        "kernels), 'numpy' (vectorized whole-array kernels — the wide-"
        "lane fast path), or 'auto' (default: numpy at lane widths >= "
        "256 when numpy is installed, python otherwise; the "
        "REPRO_SIM_BACKEND environment variable overrides auto). "
        "Outcomes are byte-identical across backends",
    )
    p.add_argument(
        "--interpreted",
        action="store_true",
        help="run the online phase on the reference per-gate interpreter "
        "instead of the compiled simulation kernels (escape hatch / "
        "benchmark baseline; outcomes are bit-identical)",
    )
    p.add_argument(
        "--synthetic-gates",
        type=int,
        default=None,
        metavar="N",
        help="replace --designs with one synthetic N-gate campaign design "
        "(sized freely — how the CI jobs build >64-scenario campaigns "
        "without a paper benchmark large enough)",
    )
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument(
        "--horizon",
        type=int,
        default=64,
        help="stimulus cycles within which failures must appear (default 64)",
    )
    p.add_argument(
        "--max-turns",
        type=int,
        default=48,
        help="debugging-turn budget per localization (default 48)",
    )
    p.add_argument(
        "--physical",
        action="store_true",
        help="include pack/place/route + bitstream in the offline artifact "
        "(combinational designs only)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist offline artifacts under DIR (reused across runs)",
    )
    p.add_argument(
        "--whole-artifact",
        action="store_true",
        help="cache whole offline artifacts (PR 1 granularity) instead of "
        "the default per-stage store (incremental across config changes)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="run cold: every scenario pays its own offline stage",
    )
    p.add_argument(
        "--save",
        default=None,
        metavar="NAME",
        help="also write the report to results/NAME.txt",
    )
    p.add_argument(
        "--outcomes-json",
        default=None,
        metavar="PATH",
        help="write the deterministic per-scenario outcomes to PATH as "
        "JSON (timings excluded; identical across repeated runs)",
    )
    p.add_argument(
        "--assert-warm",
        action="store_true",
        help="exit with status 3 unless every cache lookup hit — the CI "
        "cache-correctness check for a second run on a warm --cache-dir",
    )
    p.add_argument(
        "--campaign-id",
        default=None,
        metavar="ID",
        help="checkpoint every finished scenario to an append-only "
        "journal under <cache-dir>/journal/ID.jsonl, so a killed "
        "campaign can be continued with --resume ID (requires "
        "--cache-dir)",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="ID",
        help="resume campaign ID: replay scenarios already journaled "
        "under <cache-dir>/journal/ID.jsonl and run only the remainder "
        "— outcomes are byte-identical to an uninterrupted run",
    )
    p.add_argument(
        "--journal-fsync",
        action="store_true",
        help="fsync the journal after every appended scenario "
        "(crash-consistent against power loss, at an I/O cost)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per pooled task attempt; a timed-out "
        "task is retried (see --task-retries) then reported as an error "
        "result (default: no timeout)",
    )
    p.add_argument(
        "--task-retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts for a task that timed out or crashed its "
        "worker (default 1; deterministic stage errors are never "
        "retried)",
    )
    fail = p.add_mutually_exclusive_group()
    fail.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="isolate a failing design to its own scenarios' error "
        "results and keep running everything else (the default)",
    )
    fail.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="abort the whole campaign at the first failing design; "
        "pending scenarios complete as error placeholders (which are "
        "not journaled, so --resume recomputes them)",
    )
    p.set_defaults(fail_fast=False)
    return p


def _build_scenarios(
    args: argparse.Namespace, cache
) -> list[DebugScenario]:
    from repro.workloads import campaign_spec, generate_circuit, get_spec

    designs: list = list(args.designs)
    if args.synthetic_gates is not None:
        # one freely-sized synthetic design; scale the PI/PO interface
        # with the gate count so wide campaigns find enough taps
        n_gates = args.synthetic_gates
        designs = [
            campaign_spec(
                f"synthetic-{n_gates}",
                n_gates=n_gates,
                depth=8,
                n_pis=max(16, n_gates // 16),
                n_pos=max(8, n_gates // 32),
            )
        ]

    # Stuck-at screening needs each design's offline artifact (its tap
    # directory picks the fault sites) before any scenario exists.  Warm
    # the cache for every distinct design in one pass through the same
    # scheduler path the campaign's --offline-workers phase uses, and
    # keep the returned {cache key: artifact} map — screening consumes
    # those build results directly instead of probing the cache for
    # warmth again (mutation-only runs never need it: each mutation is
    # its own design content).
    prebuilt: dict = {}
    if args.kind != "mutation" and cache is not None:
        nets = []
        for design in designs:
            spec = get_spec(design) if isinstance(design, str) else design
            nets.append(generate_circuit(spec))
        prebuilt = prebuild_offline(
            nets,
            cache=cache,
            with_physical=args.physical,
            workers=args.offline_workers,
        )

    scenarios: list[DebugScenario] = []
    for design in designs:
        n = args.per_design
        kw = dict(seed=args.seed, horizon=args.horizon)

        def screening_offline():
            if cache is None:
                return None
            spec = get_spec(design) if isinstance(design, str) else design
            net = generate_circuit(spec)
            found = prebuilt.get(
                _offline_group_key(net, CampaignConfig().flow, args.physical)
            )
            if found is not None:
                return found
            # a design missing from the prebuild failed to build (e.g. a
            # physical back-end rejection).  Screening only needs the
            # generic artifact; the campaign's offline phase surfaces the
            # physical-stage failure as a per-scenario error result.
            return resolve_offline(net, cache=cache)[0]

        if args.kind == "stuck-at":
            scenarios += stuck_at_scenarios(
                design, n, offline=screening_offline(), **kw
            )
        elif args.kind == "mutation":
            scenarios += mutation_scenarios(design, n, **kw)
        else:
            n_mut = n // 2
            scenarios += stuck_at_scenarios(
                design, n - n_mut, offline=screening_offline(), **kw
            )
            if n_mut:
                scenarios += mutation_scenarios(design, n_mut, **kw)
    return scenarios


def _make_cache(args: argparse.Namespace):
    if args.no_cache:
        return None
    if args.whole_artifact:
        return OfflineCache(cache_dir=args.cache_dir)
    return ArtifactStore(cache_dir=args.cache_dir)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.assert_warm and args.no_cache:
        print(
            "error: --assert-warm requires a cache (drop --no-cache)",
            file=sys.stderr,
        )
        return 2
    if args.resume is not None and args.campaign_id is not None:
        print(
            "error: --resume already names the campaign; drop --campaign-id",
            file=sys.stderr,
        )
        return 2
    campaign_id = args.resume if args.resume is not None else args.campaign_id
    if campaign_id is not None and (args.no_cache or args.cache_dir is None):
        print(
            "error: the campaign journal lives under the cache directory; "
            "--campaign-id/--resume require --cache-dir",
            file=sys.stderr,
        )
        return 2
    names = (
        [f"synthetic-{args.synthetic_gates}"]
        if args.synthetic_gates is not None
        else args.designs
    )
    print(
        f"generating {args.per_design} {args.kind} scenario(s) per design "
        f"for: {', '.join(names)}"
    )
    cache = _make_cache(args)
    try:
        scenarios = _build_scenarios(args, cache)
    except (KeyError, WorkloadError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    if args.lane_width < 1:
        print("error: --lane-width must be at least 1", file=sys.stderr)
        return 2
    if args.interpreted and args.lane_width > 64:
        print(
            "error: --interpreted is single-word; use --lane-width <= 64 "
            "(multi-word lanes need the compiled kernels)",
            file=sys.stderr,
        )
        return 2
    if args.interpreted and args.sim_backend != "auto":
        print(
            "error: --interpreted bypasses the compiled kernels; drop "
            "--sim-backend or drop --interpreted",
            file=sys.stderr,
        )
        return 2
    if args.sim_backend == "numpy" and not numpy_available():
        print(
            "error: --sim-backend numpy requires numpy, which is not "
            "importable in this environment",
            file=sys.stderr,
        )
        return 2
    config = CampaignConfig(
        workers=args.workers,
        offline_workers=args.offline_workers,
        with_physical=args.physical,
        max_turns=args.max_turns,
        lane_width=args.lane_width,
        interpreted=args.interpreted,
        backend=None if args.sim_backend == "auto" else args.sim_backend,
        task_timeout_s=args.task_timeout,
        task_retries=args.task_retries,
        fail_fast=args.fail_fast,
        campaign_id=campaign_id,
        resume=args.resume is not None,
        journal_fsync=args.journal_fsync,
    )
    try:
        report = run_campaign(scenarios, config=config, cache=cache)
    except FileNotFoundError as exc:
        print(
            f"error: --resume {campaign_id}: no journal found ({exc})",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print()
    print(report.render())
    if args.save:
        path = report.save(args.save)
        print(f"\n[saved to {path}]")
    if args.outcomes_json:
        with open(args.outcomes_json, "w", encoding="utf-8") as fh:
            json.dump(report.outcomes(), fh, indent=2, default=str)
        print(f"[outcomes written to {args.outcomes_json}]")
    if args.assert_warm:
        misses = cache.stats.as_dict()["misses"]
        if misses:
            print(
                f"--assert-warm failed: {misses} cache miss(es) on a run "
                "that should have been fully warm",
                file=sys.stderr,
            )
            return 3
        print("[--assert-warm ok: every cache lookup hit]")
    return 1 if any(r.status == "error" for r in report.results) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
