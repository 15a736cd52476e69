"""The ``python -m repro`` command-line interface.

Five subcommands expose the scenario catalog, the experiment drivers and the
results store without writing any Python:

``list``
    Show every registered scenario and routing protocol.
``run``
    Run one named scenario (averaged over seeds, optionally in parallel).
``sweep``
    Run a scenario across a parameter grid; with ``--store`` the grid is
    resumable and dedupes against everything already computed.
``figure``
    Regenerate one of the paper's figures or ablations — or all of them
    (``figure all``); with ``--from-store`` only missing cells simulate.
``serve``
    Drain a spool directory of queued run requests into a results store,
    streaming one progress line per resolved cell.

Output flags are uniform: **every** subcommand takes ``--json`` (the payload
on stdout; the default is a human-aligned text rendering) and ``--output
FILE`` (the same payload written to a file, combinable with either stdout
mode).  See ``docs/cli.md`` for the full reference with copy-paste examples
and ``docs/results-store.md`` for the store workflow.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.experiments.catalog import (
    available_scenarios,
    make_scenario,
    scenario_entries,
)
from repro.experiments.figures import FIGURE_NAMES
from repro.experiments import figures as figure_drivers
from repro.checkpoint import CheckpointError
from repro.experiments.results import AveragedResult
from repro.experiments.runner import (
    resume_scenario,
    run_averaged,
    run_scenario_checkpointed,
)
from repro.experiments.scenario import ScenarioConfig, apply_overrides
from repro.experiments.sweep import sweep as run_sweep
from repro.experiments.tables import (
    format_figure,
    format_report_table,
)
from repro.routing.registry import available_routers, router_summary
from repro.store import StoreError, open_store, serve

_HEADLINE_METRICS = ("delivery_ratio", "latency", "goodput", "overhead_ratio")
#: the counter telemetry ``repro run`` prints: (line title, (label, meter)...)
_COUNTER_LINES = (
    ("router sweep", (("ticked", "routers_ticked"),
                      ("skipped", "routers_skipped"),
                      ("batched", "routers_batched"))),
    ("movement", (("batched", "moves_batched"), ("loop", "moves_loop"))),
    ("knowledge layer", (("kernel runs", "kernel_runs"),
                         ("memd hits", "memd_hits"))),
)


# ----------------------------------------------------------------- arg parsing
def parse_seeds(spec: str) -> List[int]:
    """Parse a seed specification into a list of ints.

    Accepts a single seed (``"7"``), an inclusive range (``"1-4"``) or a
    comma list (``"1,3,9"``).
    """
    spec = spec.strip()
    try:
        if "," in spec:
            return [int(part) for part in spec.split(",") if part.strip()]
        if "-" in spec[1:]:  # allow a leading minus to fail int() below
            low, _, high = spec.partition("-")
            first, last = int(low), int(high)
            if last < first:
                raise ValueError
            return list(range(first, last + 1))
        return [int(spec)]
    except ValueError:
        raise ValueError(
            f"invalid seed spec {spec!r}; expected N, A-B or A,B,C") from None


def parse_value(text: str) -> object:
    """Parse one override value: JSON first, bare string as fallback.

    JSON covers numbers, booleans, null, quoted strings and lists; lists are
    converted to tuples so they fit tuple-typed scenario fields like
    ``message_interval``.
    """
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text
    if isinstance(value, list):
        return tuple(value)
    return value


def parse_assignments(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``key=value`` strings (``--set``) into an override dict."""
    overrides: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"invalid --set {pair!r}; expected key=value")
        overrides[key.strip()] = parse_value(value.strip())
    return overrides


def parse_grid(specs: Sequence[str]) -> Dict[str, List[object]]:
    """Parse repeated ``key=v1,v2,...`` strings (``--grid``) into a sweep grid."""
    grid: Dict[str, List[object]] = {}
    for spec in specs:
        key, sep, values = spec.partition("=")
        if not sep or not key or not values:
            raise ValueError(f"invalid --grid {spec!r}; expected key=v1,v2,...")
        grid[key.strip()] = [parse_value(v.strip())
                             for v in values.split(",") if v.strip()]
    return grid


def _csv_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _csv_names(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# --------------------------------------------------------------- output flags
def _emit(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def emit_payload(args, payload: object) -> bool:
    """Apply the uniform output contract to a subcommand's JSON payload.

    Writes *payload* to ``--output FILE`` when given (announced on stderr)
    and prints it to stdout with ``--json``.  Returns whether stdout was
    consumed — when False the caller renders its human text instead.
    """
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}", file=sys.stderr)
    if args.json:
        _emit(payload)
        return True
    return False


def _check_protocol(name: Optional[str]) -> None:
    if name is not None and name not in available_routers():
        raise KeyError(f"unknown protocol {name!r}; known: "
                       f"{', '.join(available_routers())}")


def _scenario_config(args) -> ScenarioConfig:
    """Resolve a subcommand's scenario + overrides into one config."""
    overrides = parse_assignments(args.set or [])
    _check_protocol(getattr(args, "protocol", None))
    if getattr(args, "protocol", None):
        overrides["protocol"] = args.protocol
    return make_scenario(args.scenario, overrides)


# --------------------------------------------------------------- store plumbing
class _StoreProgress:
    """Stream one stderr line per resolved cell; count the cached/computed
    split for the ``store:`` summary line (what the CI smoke asserts on)."""

    def __init__(self) -> None:
        self.cached = 0
        self.computed = 0

    def __call__(self, event: Dict[str, object]) -> None:
        if event.get("status") == "cached":
            self.cached += 1
        else:
            self.computed += 1
        print(f"cell {int(event['index']) + 1}/{event['total']} "
              f"{event['status']:<8s} {event['scenario']}/{event['protocol']} "
              f"seed={event['seed']}", file=sys.stderr)

    def summary(self, path: str) -> str:
        return (f"store: reused {self.cached} cells, computed {self.computed} "
                f"({path})")


# ----------------------------------------------------------------- subcommands
def cmd_list(args) -> int:
    """``list``: show the scenario catalog and the protocol registry."""
    scenarios = [entry.describe() for entry in scenario_entries()]
    protocols = [{"name": name, "summary": router_summary(name)}
                 for name in available_routers()]
    if emit_payload(args, {"scenarios": scenarios, "protocols": protocols}):
        return 0
    print(f"Scenarios ({len(scenarios)}):")
    width = max(len(s["name"]) for s in scenarios)
    for entry in scenarios:
        print(f"  {entry['name']:<{width}}  [{entry['kind']:9s}] "
              f"{entry['summary']}")
    print()
    print(f"Protocols ({len(protocols)}):")
    width = max(len(p["name"]) for p in protocols)
    for proto in protocols:
        print(f"  {proto['name']:<{width}}  {proto['summary']}")
    return 0


def _run_checkpointed(args) -> "tuple[AveragedResult, List[str]]":
    """The checkpoint/resume arm of ``run`` (single seed, serial only)."""
    seeds = parse_seeds(args.seeds)
    if len(seeds) != 1:
        raise ValueError(
            "--checkpoint-every/--resume run a single simulation; pass one "
            "seed (snapshots pin the seed, averaging would need one file "
            "per seed)")
    if args.backend not in (None, "serial"):
        raise ValueError(
            "--checkpoint-every/--resume require the serial backend")
    if args.resume:
        overrides = parse_assignments(args.set or [])
        unsupported = set(overrides) - {"sim_time"}
        if unsupported or getattr(args, "protocol", None):
            raise ValueError(
                "--resume only accepts a sim_time override; the snapshot "
                "pins every other field (protocol, traffic, topology, seed)")
        report, config, written = resume_scenario(
            args.resume, sim_time=overrides.get("sim_time"),
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir)
    else:
        config = _scenario_config(args).with_overrides(seed=seeds[0])
        report, written = run_scenario_checkpointed(
            config, args.checkpoint_every, directory=args.checkpoint_dir)
    result = AveragedResult(protocol=config.protocol,
                            num_nodes=config.num_nodes,
                            seeds=[config.seed], reports=[report],
                            config=config)
    return result, written


def cmd_run(args) -> int:
    """``run``: run one scenario averaged over seeds."""
    written: List[str] = []
    if args.resume or args.checkpoint_every:
        if args.store:
            raise ValueError(
                "--store does not combine with --checkpoint-every/--resume; "
                "record the finished run into a store with a plain run")
        result, written = _run_checkpointed(args)
        protocol = result.protocol
        for path in written:
            print(f"wrote checkpoint {path}", file=sys.stderr)
    else:
        config = _scenario_config(args)
        protocol = config.protocol
        seeds = parse_seeds(args.seeds)
        if args.store:
            progress = _StoreProgress()
            with open_store(args.store) as store:
                result = run_averaged(config, seeds, backend=args.backend,
                                      store=store, progress=progress)
            print(progress.summary(args.store), file=sys.stderr)
        else:
            result = run_averaged(config, seeds, backend=args.backend)
    payload = {
        "scenario": args.scenario,
        "protocol": protocol,
        "backend": args.backend or "serial",
        "checkpoints": written,
        "resumed_from": args.resume,
        "summary": result.as_dict(),
        # each report's outcome plus its telemetry: the CI smoke uploads
        # this as the per-phase breakdown artifact
        "reports": [dict(report.as_dict(), telemetry=report.telemetry)
                    for report in result.reports],
    }
    if emit_payload(args, payload):
        return 0
    print(f"scenario {args.scenario!r} protocol {protocol!r} "
          f"seeds {result.seeds} backend {args.backend or 'serial'}")
    print()
    print(format_report_table(result.reports))
    print()
    for metric in _HEADLINE_METRICS:
        print(f"mean {metric:<22s} {result.mean(metric):10.4f} "
              f"(std {result.std(metric):.4f})")
    if result.mean("community_detections") > 0:
        print(f"mean community_detections   "
              f"{result.mean('community_detections'):10.4f} "
              f"({result.mean('community_detection_seconds'):.4f} s compute, "
              f"{result.mean('community_reassignments'):.1f} reassignments)")
    runs = len(result.reports)
    metered = result.metered_reports()
    phases = [r.telemetry.get("tick_phase_seconds", {}) for r in metered]
    samples = [r.telemetry.get("tick_phase_samples", {}) for r in metered]
    phase_names = sorted({name for seconds in phases for name in seconds})
    if phase_names:
        breakdown = "  ".join(
            f"{name} {sum(s.get(name, 0.0) for s in phases) / len(metered):.3f}s"
            for name in phase_names)
        print(f"tick phases (mean wall time per run): {breakdown}")
        rates = []
        for name in phase_names:
            seconds = sum(s.get(name, 0.0) for s in phases)
            ticks = sum(s.get(name, 0) for s in samples)
            if ticks and seconds > 0:
                rates.append(f"{name} {ticks / seconds:,.0f}")
        if rates:
            print(f"tick phase throughput (ticks/s): {'  '.join(rates)}")
    for title, meters in _COUNTER_LINES:
        means = {label: result.mean(meter) for label, meter in meters}
        if any(means.values()):
            print(f"{title} (mean per run): " + "  ".join(
                f"{label} {value:,.0f}" for label, value in means.items()))
    if any(r.transfers_completed or r.transfers_aborted
           for r in result.reports):
        delivered_mb = (sum(r.bytes_delivered for r in result.reports)
                        / runs / (1024 * 1024))
        print("transfers (mean per run): "
              f"completed {sum(r.transfers_completed for r in result.reports) / runs:,.0f}  "
              f"aborted {sum(r.transfers_aborted for r in result.reports) / runs:,.0f}  "
              f"delivered {delivered_mb:,.1f} MB")
    return 0


def _sweep_resumed(args, grid):
    """Fork every grid cell of a horizon sweep from one warm snapshot.

    Only the ``sim_time`` axis is admissible: everything else — protocol,
    traffic model, topology — is baked into the serialized world, so a
    non-horizon override would silently not take effect.  Each cell loads
    the snapshot fresh and runs forward to its own horizon, which turns an
    N-cell warmup-heavy sweep into one warmup plus N cheap continuations.
    """
    from repro.experiments.results import SweepPoint

    unsupported = set(grid) - {"sim_time"}
    if unsupported or getattr(args, "protocol", None) or args.set:
        raise ValueError(
            "sweep --resume supports only the sim_time grid axis (the "
            "snapshot pins every other field); got "
            f"{sorted(unsupported) or 'non-horizon overrides'}")
    points = []
    for value in grid["sim_time"]:
        report, config, _ = resume_scenario(args.resume, sim_time=value)
        result = AveragedResult(protocol=config.protocol,
                                num_nodes=config.num_nodes,
                                seeds=[config.seed], reports=[report],
                                config=config)
        points.append(SweepPoint(overrides={"sim_time": value}, result=result))
    return points


def cmd_sweep(args) -> int:
    """``sweep``: run a scenario across a parameter grid."""
    grid = parse_grid(args.grid)
    if args.resume:
        if args.store:
            raise ValueError(
                "--store does not combine with --resume (snapshot-forked "
                "cells bypass the cell-identity dedupe)")
        points = _sweep_resumed(args, grid)
        seeds = points[0].result.seeds if points else []
    else:
        config = _scenario_config(args)
        seeds = parse_seeds(args.seeds)
        if args.store:
            progress = _StoreProgress()
            with open_store(args.store) as store:
                points = run_sweep(config, grid, seeds=seeds,
                                   backend=args.backend, store=store,
                                   progress=progress)
            print(progress.summary(args.store), file=sys.stderr)
        else:
            points = run_sweep(config, grid, seeds=seeds, backend=args.backend)
    rows = [{"overrides": point.overrides,
             "delivery_ratio": point.value("delivery_ratio"),
             "latency": point.value("average_latency"),
             "goodput": point.value("goodput"),
             "overhead_ratio": point.value("overhead_ratio")}
            for point in points]
    payload = {"scenario": args.scenario, "grid": grid, "seeds": seeds,
               "points": rows}
    if emit_payload(args, payload):
        return 0
    keys = list(grid)
    header = keys + ["delivery_ratio", "latency", "goodput", "overhead_ratio"]
    table = [header]
    for row in rows:
        table.append([str(row["overrides"][key]) for key in keys]
                     + [f"{row['delivery_ratio']:.4f}",
                        f"{row['latency']:.1f}",
                        f"{row['goodput']:.4f}",
                        f"{row['overhead_ratio']:.2f}"])
    widths = [max(len(line[col]) for line in table)
              for col in range(len(header))]
    for index, line in enumerate(table):
        text = "  ".join(cell.ljust(widths[col])
                         for col, cell in enumerate(line)).rstrip()
        print(text)
        if index == 0:
            print("-" * len(text))
    return 0


def _figure_kwargs(name: str, args) -> Dict[str, object]:
    """Driver-specific keyword arguments for one figure, from the CLI args."""
    if name == "fig2":
        return {"node_counts": args.nodes,
                "protocols": _csv_names(args.protocols)}
    if name in ("fig3", "fig4"):
        return {"node_counts": args.nodes, "lambdas": args.lambdas}
    defaults = {"ablation-alpha": ("alphas", "0.1,0.28,0.5,1.0"),
                "ablation-ttl": ("ttls", "300,600,1200,2400"),
                "ablation-buffer": ("buffers",
                                    "262144,524288,1048576,2097152")}
    keyword, fallback = defaults[name]
    # --values carries ablation sweep values; for `figure all` every
    # ablation uses its own defaults (one shared list cannot fit all three)
    values = args.values if args.figure != "all" else None
    return {keyword: _csv_floats(values or fallback)}


def cmd_figure(args) -> int:
    """``figure``: regenerate one paper figure / ablation — or all of them."""
    if args.scale == "paper":
        base = ScenarioConfig.paper_scale()
    else:
        base = ScenarioConfig.bench_scale()
    overrides = parse_assignments(args.set or [])
    if overrides:
        base = apply_overrides(base, overrides)
    seeds = parse_seeds(args.seeds)
    names = FIGURE_NAMES if args.figure == "all" else (args.figure,)
    progress = _StoreProgress() if args.store else None
    store = open_store(args.store) if args.store else None
    try:
        rendered = {
            name: figure_drivers.figure(
                name, seeds=seeds, base=base, backend=args.backend,
                store=store, progress=progress, **_figure_kwargs(name, args))
            for name in names}
    finally:
        if store is not None:
            store.close()
    if progress is not None:
        print(progress.summary(args.store), file=sys.stderr)
    if args.figure == "all":
        payload: Dict[str, object] = {
            "figures": {name: fig.as_dict()
                        for name, fig in rendered.items()}}
    else:
        payload = rendered[args.figure].as_dict()
    if emit_payload(args, payload):
        return 0
    for name in names:
        print(format_figure(rendered[name]))
    return 0


def cmd_serve(args) -> int:
    """``serve``: drain a spool of run requests into a results store."""

    def emit(event: Dict[str, object]) -> None:
        if args.json:
            print(json.dumps(event, sort_keys=True), flush=True)
        elif event.get("event") == "cell":
            print(f"[{event['request']}] cell {int(event['index']) + 1}/"
                  f"{event['total']} {event['status']} "
                  f"{event['scenario']}/{event['protocol']} "
                  f"seed={event['seed']}", flush=True)
        elif event.get("status") == "failed":
            print(f"[{event['request']}] failed: {event['error']}", flush=True)
        else:
            print(f"[{event['request']}] done "
                  f"(computed {event['cells_computed']}, "
                  f"cached {event['cells_cached']})", flush=True)

    with open_store(args.store) as store:
        summary = serve(args.spool, store, once=args.once, poll=args.poll,
                        backend=args.backend, emit=emit,
                        max_requests=args.max_requests)
    payload = {"spool": args.spool, "store": args.store, **summary}
    if args.json:
        print(json.dumps({"event": "summary", **payload}, sort_keys=True),
              flush=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}", file=sys.stderr)
    if not args.json:
        print(f"serve: {summary['requests_done']} done, "
              f"{summary['requests_failed']} failed; "
              f"cells computed {summary['cells_computed']}, "
              f"cached {summary['cells_cached']}")
    return 0 if summary["requests_failed"] == 0 else 1


# ---------------------------------------------------------------------- parser
def _add_output_flags(p) -> None:
    """The uniform output contract: every subcommand has these two."""
    p.add_argument("--json", action="store_true",
                   help="machine-readable payload on stdout")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the JSON payload to FILE")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DTN routing reproduction (conf_icpp_ChenL11): run "
                    "scenarios, sweeps and paper figures from the command "
                    "line.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list registered scenarios and protocols")
    _add_output_flags(list_parser)
    list_parser.set_defaults(func=cmd_list)

    def add_common(p, scenario: bool = True):
        if scenario:
            p.add_argument("scenario", choices=available_scenarios(),
                           metavar="SCENARIO",
                           help="a scenario name from 'list'")
            p.add_argument("--protocol", default=None,
                           help="routing protocol (default: the scenario's)")
        p.add_argument("--seeds", default="1",
                       help="seed spec: N, A-B or A,B,C (default: 1)")
        p.add_argument("--backend", choices=("serial", "process"),
                       default=None,
                       help="execution backend (default: serial)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario field (repeatable; "
                            "router.NAME goes to router_params)")
        _add_output_flags(p)

    run_parser = sub.add_parser(
        "run", help="run one scenario, averaged over seeds")
    add_common(run_parser)
    run_parser.add_argument(
        "--store", default=None, metavar="FILE",
        help="results store: serve already-recorded seeds from it, append "
             "fresh ones (see docs/results-store.md)")
    run_parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="snapshot the world every SECONDS of simulated time (single "
             "seed, serial backend; see docs/checkpointing.md)")
    run_parser.add_argument(
        "--checkpoint-dir", default=".", metavar="DIR",
        help="directory for --checkpoint-every snapshots (default: .)")
    run_parser.add_argument(
        "--resume", default=None, metavar="FILE",
        help="resume a snapshot instead of starting fresh; only a sim_time "
             "--set override is accepted (the snapshot pins the rest)")
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="run a scenario across a parameter grid")
    add_common(sweep_parser)
    sweep_parser.add_argument(
        "--grid", action="append", required=True, metavar="KEY=V1,V2,...",
        help="one grid axis (repeatable; crossed as a Cartesian product)")
    sweep_parser.add_argument(
        "--store", default=None, metavar="FILE",
        help="results store: skip cells already in it, append fresh cells "
             "as they complete — an interrupted sweep resumes for free")
    sweep_parser.add_argument(
        "--resume", default=None, metavar="FILE",
        help="fork every cell from a warmed-up snapshot (sim_time axis only)")
    sweep_parser.set_defaults(func=cmd_sweep)

    figure_parser = sub.add_parser(
        "figure", help="regenerate paper figures / ablations")
    figure_parser.add_argument("figure", choices=FIGURE_NAMES + ("all",),
                               metavar="FIGURE",
                               help=f"one of: {', '.join(FIGURE_NAMES)}, all")
    figure_parser.add_argument("--scale", choices=("bench", "paper"),
                               default="bench",
                               help="base scenario scale (default: bench)")
    figure_parser.add_argument("--nodes", type=_csv_ints, default=[40, 80, 120],
                               metavar="N1,N2,...",
                               help="node counts (default: 40,80,120)")
    figure_parser.add_argument("--lambdas", type=_csv_ints,
                               default=[6, 8, 10, 12], metavar="L1,L2,...",
                               help="replica quotas for fig3/fig4")
    figure_parser.add_argument("--protocols",
                               default="eer,cr,ebr,maxprop,spray-and-wait,"
                                       "spray-and-focus",
                               metavar="P1,P2,...",
                               help="protocols for fig2")
    figure_parser.add_argument("--values", default=None, metavar="V1,V2,...",
                               help="sweep values for a single ablation "
                                    "(ignored by 'all': each ablation keeps "
                                    "its defaults)")
    figure_parser.add_argument("--store", "--from-store", dest="store",
                               default=None, metavar="FILE",
                               help="render from a results store, simulating "
                                    "only the missing cells (--from-store is "
                                    "an alias)")
    add_common(figure_parser, scenario=False)
    figure_parser.set_defaults(func=cmd_figure)

    serve_parser = sub.add_parser(
        "serve", help="serve queued run requests from a spool directory")
    serve_parser.add_argument("spool", metavar="SPOOL_DIR",
                              help="directory watched for *.json run "
                                   "requests (see docs/results-store.md)")
    serve_parser.add_argument("--store", required=True, metavar="FILE",
                              help="results store every cell resolves "
                                   "through")
    serve_parser.add_argument("--once", action="store_true",
                              help="drain the queued requests, then exit "
                                   "(default: keep polling)")
    serve_parser.add_argument("--poll", type=float, default=2.0,
                              metavar="SECONDS",
                              help="idle poll interval (default: 2.0)")
    serve_parser.add_argument("--max-requests", type=int, default=None,
                              metavar="N",
                              help="stop after N processed requests")
    serve_parser.add_argument("--backend", choices=("serial", "process"),
                              default=None,
                              help="execution backend per request "
                                   "(default: serial)")
    _add_output_flags(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, TypeError, OSError, CheckpointError,
            StoreError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
