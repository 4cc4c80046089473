"""Command-line interface: drive the reproduction without writing code.

Subcommands::

    python -m repro run        one workload on one counter
    python -m repro counters   list the counter registry (specs + caps)
    python -m repro sweep      bottleneck table over counters × sizes
    python -m repro explore    search schedules for invariant violations
    python -m repro adversary  play the §3 lower-bound game
    python -m repro bound      print the k·kᵏ = n curve
    python -m repro quorum     quorum systems: loads + counter bottleneck
    python -m repro tree       inspect a communication tree's geometry
    python -m repro serve      run a counter (or keyed keyspace) over TCP
    python -m repro loadgen    open-loop load against a running service
    python -m repro chaos      fault-injecting TCP proxy
    python -m repro replay     verify a keyed-service fixture bundle

Counters are named by registry spec strings
(:mod:`repro.registry`): a canonical name optionally followed by
``?key=value`` tunables, e.g. ``--counter combining-tree?window=3.0``.
Every command prints the same ASCII tables the benchmark suite saves,
so the CLI doubles as a quick re-run of any experiment slice.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import LoadProfile, format_table
from repro.core import TreeGeometry
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.lowerbound import (
    GreedyAdversary,
    am_gm_holds,
    bound_series,
    evaluate_ledger,
    lower_bound_k,
    message_load_bound,
)
from repro.quorum import (
    CrumblingWall,
    MaekawaGrid,
    QuorumCounter,
    RotatingMajorityQuorum,
    SingletonQuorum,
    TreePathQuorum,
    WheelQuorum,
    optimal_load,
    uniform_load,
)
from repro.registry import (
    POLICY_NAMES,
    RunSession,
    parse_spec,
    registered_names,
    registered_specs,
)
from repro.sim.network import Network
from repro.workloads import one_shot, run_sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for Wattenhofer & Widmayer, 'An Inherent "
            "Bottleneck in Distributed Counting' (PODC 1997)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload on one counter")
    run.add_argument(
        "--counter", default="ww-tree", metavar="SPEC",
        help="counter spec string, e.g. ww-tree or "
             "combining-tree?window=3.0 (see: repro counters)",
    )
    run.add_argument("--n", type=int, default=81)
    run.add_argument(
        "--order", choices=["identity", "shuffled"], default="identity"
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--policy", choices=sorted(POLICY_NAMES), default="unit",
        help="message delivery policy",
    )
    run.add_argument(
        "--concurrent", action="store_true",
        help="inject all incs as one concurrent batch",
    )
    run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-spec string, e.g. drop=0.05,dup=0.01, crash=3@t50 or "
             "crash=3@t50,recover=3@t90 (seeded by --seed; lossy specs "
             "require --reliable or a loss-tolerant counter; permanent "
             "crashes require a crash-tolerant counter)",
    )
    run.add_argument(
        "--reliable", action="store_true",
        help="run the counter behind the ack/retransmit transport so it "
             "tolerates message loss",
    )
    run.add_argument(
        "--runtime", default="sim", choices=["sim", "sync"],
        help="scheduler: sim (event-driven, default) or sync "
             "(deterministic lockstep rounds — the model phase-king "
             "agreement assumes)",
    )
    run.add_argument("--top", type=int, default=5, help="hottest processors shown")

    counters = commands.add_parser(
        "counters", help="list registered counters with caps + tunables"
    )
    counters.add_argument(
        "--verbose", action="store_true",
        help="also list each counter's tunables with defaults",
    )

    sweep = commands.add_parser(
        "sweep", help="bottleneck table over counters x sizes"
    )
    sweep.add_argument(
        "--counters", default="central,ww-tree",
        help="comma-separated counter specs (or 'all')",
    )
    sweep.add_argument("--ns", default="64,256,1024", help="comma-separated sizes")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep grid (default: serial)",
    )
    sweep.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-spec string applied to every grid point "
             "(lossy specs require --reliable)",
    )
    sweep.add_argument(
        "--reliable", action="store_true",
        help="run every grid point behind the ack/retransmit transport",
    )

    explore = commands.add_parser(
        "explore",
        help="search message schedules for invariant violations",
        description=(
            "Drive one counter through many controlled interleavings and "
            "judge every execution with the invariant-oracle suite "
            "(linearizability, Hot-Spot, no-lost-increment, retirement "
            "monotonicity).  Failures are delta-shrunk and saved as "
            "replayable repro files.  Exit code 1 means a failing "
            "schedule was found (or a --replay did not reproduce)."
        ),
    )
    explore.add_argument(
        "--counter", default="central", metavar="SPEC",
        help="counter spec string, or a mutant name such as "
             "mutant[stale-central] (see: repro counters)",
    )
    explore.add_argument("--n", type=int, default=8)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--strategy", default="random", metavar="PLAN",
        help="budget/strategy plan: comma-separated legs of "
             "NAME[:BUDGET][?key=value], names random|permute|guided|"
             "baseline — e.g. 'guided', 'random:50,guided:150', "
             "'guided:100?base=4' (legs without :BUDGET use --budget)",
    )
    explore.add_argument(
        "--budget", type=int, default=100,
        help="episodes for plan legs without an explicit budget",
    )
    explore.add_argument(
        "--workload", choices=["staggered", "sequential"],
        default="staggered",
        help="staggered overlaps ops (linearizability); sequential "
             "quiesces between ops (Hot-Spot footprints)",
    )
    explore.add_argument("--gap", type=float, default=3.0,
                         help="stagger gap between request injections")
    explore.add_argument("--rounds", type=int, default=1,
                         help="incs per client (round-robin when > 1)")
    explore.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-spec string explored under (same grammar as run)",
    )
    explore.add_argument(
        "--reliable", action="store_true",
        help="explore behind the ack/retransmit transport",
    )
    explore.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (episode windows fan out; results are "
             "identical for any worker count)",
    )
    explore.add_argument(
        "--no-shrink", action="store_true",
        help="keep failing schedules as found (skip delta-shrinking)",
    )
    explore.add_argument(
        "--save-repros", default=None, metavar="DIR",
        help="write each failure's repro file into DIR",
    )
    explore.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay a saved repro file instead of exploring; exit 0 "
             "iff the recorded failure reproduces",
    )
    explore.add_argument(
        "--json", action="store_true",
        help="print the exploration report as JSON",
    )

    adversary = commands.add_parser(
        "adversary", help="play the §3 greedy longest-list adversary"
    )
    adversary.add_argument(
        "--counter", default="central", metavar="SPEC",
        help="counter spec string (see: repro counters)",
    )
    adversary.add_argument("--n", type=int, default=16)
    adversary.add_argument(
        "--sample", type=int, default=None,
        help="candidates evaluated per step (default: all)",
    )
    adversary.add_argument("--seed", type=int, default=0)

    bound = commands.add_parser("bound", help="print the k·kᵏ = n curve")
    bound.add_argument("--ns", default="8,81,1024,15625,1000000")

    quorum = commands.add_parser("quorum", help="quorum-system loads + counter")
    quorum.add_argument("--n", type=int, default=64)

    tree = commands.add_parser("tree", help="inspect tree geometry")
    group = tree.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="paper shape parameter")
    group.add_argument("--n", type=int, help="derive shape from processor count")

    validate = commands.add_parser(
        "validate", help="run a quick end-to-end self-check battery"
    )
    validate.add_argument(
        "--n", type=int, default=81, help="size of the self-check workload"
    )

    experiment = commands.add_parser(
        "experiment", help="run one experiment of the E-index (see DESIGN.md)"
    )
    experiment.add_argument(
        "id", nargs="?", default=None,
        help="experiment id, e.g. E4 (omit to list all)",
    )

    figures = commands.add_parser(
        "figures", help="regenerate the headline SVG figures"
    )
    figures.add_argument(
        "--out", default="benchmarks/figures", help="output directory"
    )
    figures.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for figure simulations (default: serial)",
    )

    serve = commands.add_parser(
        "serve", help="run a counter as a live TCP service (asyncio runtime)"
    )
    serve.add_argument(
        "spec", metavar="SPEC",
        help="counter spec string; sequential-only specs are rejected "
             "(see: repro counters)",
    )
    serve.add_argument(
        "--n", type=int, default=16,
        help="client processors = max in-flight operations",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one; the bound address is "
             "printed as 'SERVING <spec> n=<n> <host>:<port>')",
    )
    serve.add_argument(
        "--policy", choices=sorted(POLICY_NAMES), default="unit",
        help="message delivery policy",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--time-scale", type=float, default=0.0,
        help="real seconds per unit of simulated time (0 = flat out)",
    )
    serve.add_argument(
        "--max-backlog", type=int, default=256, metavar="OPS",
        help="queued operations beyond the n in flight before arrivals "
             "are shed with ERR OVERLOADED (-1 = never shed)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="server-side default deadline for INC requests that do "
             "not carry one (default: none)",
    )
    serve.add_argument(
        "--line-limit", type=int, default=8192, metavar="BYTES",
        help="protocol line length bound; longer lines answer "
             "ERR LINE_TOO_LONG and drop the connection",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long SHUTDOWN waits for in-flight operations",
    )
    serve.add_argument(
        "--dedup-capacity", type=int, default=4096, metavar="RIDS",
        help="request-id ledger bound for exactly-once retries",
    )
    serve.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="serve a sharded counter keyspace instead of one counter: "
             "K independent shard pools behind 'INC <key>' / "
             "'STATS <key>' / SPLIT / MERGE (any registered spec works "
             "— batches serialize per shard)",
    )
    serve.add_argument(
        "--batch-max", type=int, default=32, metavar="OPS",
        help="keyed mode: largest window one combined shard traversal "
             "may carry",
    )
    serve.add_argument(
        "--fixture", default=None, metavar="DIR",
        help="keyed mode: record the run and write a replayable "
             "fixture bundle into DIR at shutdown (verify with "
             "'repro replay DIR')",
    )

    loadgen = commands.add_parser(
        "loadgen", help="open-loop load against a running 'repro serve'"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument(
        "--ops", type=int, default=200, help="increments per rate point"
    )
    loadgen.add_argument(
        "--rate", type=float, default=100.0,
        help="offered load in ops/second (single run; see --rates)",
    )
    loadgen.add_argument(
        "--rates", default=None, metavar="R1,R2,...",
        help="ascending rate sweep with saturation-knee detection "
             "(overrides --rate)",
    )
    loadgen.add_argument(
        "--process", choices=["poisson", "bursty"], default="poisson",
        help="arrival process",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--max-connections", type=int, default=64,
        help="client-side concurrency cap",
    )
    loadgen.add_argument(
        "--expect-final", type=int, default=None, metavar="VALUE",
        help="exit nonzero unless the highest value seen + 1 equals "
             "VALUE (smoke-test assertion)",
    )
    loadgen.add_argument(
        "--shutdown", action="store_true",
        help="send SHUTDOWN to the server after the run",
    )
    loadgen.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retries per request beyond the first attempt; > 0 "
             "attaches a unique request id to every INC so the "
             "server's dedup makes retries exactly-once",
    )
    loadgen.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="total retries shared across the run "
             "(default: ops * retries)",
    )
    loadgen.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline carried on each INC",
    )
    loadgen.add_argument(
        "--backoff-base-ms", type=float, default=10.0, metavar="MS",
        help="retry backoff scale (full jitter)",
    )
    loadgen.add_argument(
        "--backoff-max-ms", type=float, default=500.0, metavar="MS",
        help="retry backoff cap",
    )
    loadgen.add_argument(
        "--breaker-threshold", type=int, default=0, metavar="N",
        help="consecutive transport failures before the client circuit "
             "breaker opens (0 = no breaker)",
    )
    loadgen.add_argument(
        "--breaker-reset", type=float, default=1.0, metavar="SECONDS",
        help="seconds an open breaker waits before its half-open probe",
    )
    loadgen.add_argument(
        "--keys", type=int, default=None, metavar="K",
        help="keyed mode against 'repro serve --shards': draw each "
             "increment's key from a Zipf popularity distribution over "
             "K names and check per-key exactness after the run",
    )
    loadgen.add_argument(
        "--zipf", type=float, default=1.1, metavar="SKEW",
        help="keyed mode: Zipf skew of the key popularity (1.1 is a "
             "realistic hot-key regime; higher = hotter head)",
    )

    replay = commands.add_parser(
        "replay",
        help="re-execute and verify a keyed-service fixture bundle",
        description=(
            "Rebuild the recorded shard map on the simulated runtime, "
            "replay every batch and topology event at its recorded "
            "position, and verify every request's value, the final "
            "keyspace snapshot, the shard ranges and the per-shard "
            "trace fingerprints.  Exit 0 iff the bundle verifies."
        ),
    )
    replay.add_argument(
        "bundle", metavar="DIR",
        help="bundle directory written by 'repro serve --shards "
             "--fixture DIR'",
    )

    chaos = commands.add_parser(
        "chaos",
        help="deterministic fault-injecting TCP proxy in front of "
             "'repro serve'",
    )
    chaos.add_argument(
        "--upstream", required=True, metavar="HOST:PORT",
        help="address of the service to proxy",
    )
    chaos.add_argument("--host", default="127.0.0.1")
    chaos.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = pick a free one; the bound address is "
             "printed as 'CHAOS <plan> <host>:<port> -> <upstream>')",
    )
    chaos.add_argument(
        "--plan", default="reset@0.05", metavar="SPEC",
        help="fault plan, e.g. 'delay=0.002@0.2,stall=0.05@0.1,"
             "reset@0.1,blackhole@0.02,trunc=8@0.05'",
    )
    chaos.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        session = RunSession(
            args.counter,
            args.n,
            policy=args.policy,
            seed=args.seed,
            faults=args.faults,
            reliable=args.reliable,
            runtime=args.runtime,
        )
    except ConfigurationError as error:
        print(f"bad counter spec: {error}", file=sys.stderr)
        return 2
    from repro.workloads import shuffled

    order = (
        one_shot(args.n)
        if args.order == "identity"
        else shuffled(args.n, seed=args.seed)
    )
    try:
        if session.recovery is not None:
            return _run_with_recovery(args, session)
        if args.concurrent:
            result = session.run_concurrent([order])
        else:
            result = session.run_sequence(order)
    except ConfigurationError as error:  # e.g. CapabilityError
        print(str(error), file=sys.stderr)
        return 2
    except SimulationError as error:  # a protocol failure, not bad input
        print(f"run failed: {error}", file=sys.stderr)
        return 1
    profile = LoadProfile.from_trace(result.trace, population=args.n)
    print(f"counter:    {session.canonical}  (n={args.n}, "
          f"policy={args.policy}, "
          f"{'concurrent' if args.concurrent else 'sequential'})")
    if args.runtime == "sync":
        print(f"runtime:    sync — {session.runtime.rounds} lockstep rounds")
    if session.fault_plan is not None:
        _print_faults(session.fault_plan)
    if session.transport is not None:
        stats = session.transport_stats()
        print(f"transport:  reliable — {stats['data_sent']} data, "
              f"{stats['retransmissions']} retransmits, "
              f"{stats['duplicates_suppressed']} dupes suppressed, "
              f"overhead {session.transport.overhead_ratio():.3f}")
    print(f"operations: {result.operation_count}, all values correct")
    print(f"messages:   {result.total_messages} total, "
          f"{result.average_messages_per_op():.2f} per op")
    print(f"bottleneck: m_b = {profile.bottleneck_load} at processor "
          f"{profile.bottleneck_processor}  "
          f"(lower bound k(n) = {lower_bound_k(args.n):.2f})")
    print(f"loads:      mean {profile.mean_load:.2f}, p99 "
          f"{profile.percentile(0.99)}, gini {profile.gini():.3f}")
    print("hottest:    " + ", ".join(
        f"p{pid}:{load}" for pid, load in profile.top(args.top)
    ))
    return 0


def _print_faults(plan) -> None:
    counts = ", ".join(f"{kind}:{n}" for kind, n in sorted(plan.counts.items()))
    print(f"faults:     {plan.spec}  (injected: {counts or 'none'})")


def _run_with_recovery(args: argparse.Namespace, session: RunSession) -> int:
    """The ``run`` path for crash-recovery sessions.

    Crash-tolerant counters are driven with the staggered workload
    (overlapping ops, so the failover happens under load) and judged by
    linearizability instead of the dense-prefix value check — under
    at-most-once semantics crashed combines legitimately burn values.
    """
    from repro.analysis.linearizability import check_linearizable_counting

    ops = session.run_staggered()
    report = check_linearizable_counting(ops)
    manager = session.recovery
    trace = session.network.trace
    profile = LoadProfile.from_trace(trace, population=args.n).restrict(
        range(1, args.n + 1)
    )
    print(f"counter:    {session.canonical}  (n={args.n}, "
          f"policy={args.policy}, staggered — crash-recovery run)")
    _print_faults(session.fault_plan)
    print(f"operations: {len(ops)} completed of {args.n}, "
          f"linearizable: {'yes' if report.linearizable else 'NO'} "
          f"({len(report.inversions)} inversions, "
          f"{report.precedence_pairs} precedence pairs)")
    latency = manager.failover_latency()
    print(f"recovery:   {manager.suspicion_count()} suspicions, "
          f"{manager.failover_count()} failovers"
          + (f" (first after {latency:g} time units)" if latency is not None
             else "")
          + f", {manager.recovery_count()} checkpoint recoveries")
    print(f"bottleneck: m_b = {profile.bottleneck_load} at processor "
          f"{profile.bottleneck_processor}  (clients only; "
          f"lower bound k(n) = {lower_bound_k(args.n):.2f})")
    print("hottest:    " + ", ".join(
        f"p{pid}:{load}" for pid, load in profile.top(args.top)
    ))
    return 0 if report.linearizable else 1


def _cmd_counters(args: argparse.Namespace) -> int:
    rows = []
    for spec in registered_specs():
        flags = ", ".join(spec.capabilities.flags()) or "-"
        loss = (
            "yes"
            if spec.capabilities.tolerates_message_loss
            else "via --reliable"
        )
        crash = "yes" if spec.capabilities.tolerates_crash else "no"
        byzantine = "yes" if spec.capabilities.tolerates_byzantine else "no"
        tunables = (
            ", ".join(
                f"{t.name}={t.format(t.default)}" for t in spec.tunables
            )
            or "-"
        )
        rows.append(
            [spec.name, flags, loss, crash, byzantine, tunables, spec.summary]
        )
    print(
        format_table(
            ["counter", "capabilities", "msg loss", "crash", "byzantine",
             "tunables (defaults)", "summary"],
            rows,
            title=f"Counter registry ({len(rows)} specs)",
            align=["l", "l", "l", "l", "l", "l", "l"],
        )
    )
    print("\nmsg loss: no bare protocol tolerates dropped messages (the "
          "paper's model is failure-free);\npass --reliable to run any spec "
          "behind the ack/retransmit transport ('loss-tolerant' flag).\n"
          "crash: only protocols with built-in redundancy survive permanent "
          "processor crashes ('crash-tolerant'\nflag); --reliable does not "
          "help there — retransmission cannot resurrect a dead processor.\n"
          "byzantine: only replicated protocols that vote on every "
          "increment survive lying processors\n('byzantine-tolerant' flag, "
          "f < n/3); neither --reliable nor crash recovery helps against "
          "a liar.")
    if args.verbose:
        for spec in registered_specs():
            if not spec.tunables:
                continue
            print(f"\n{spec.name}:")
            for tunable in spec.tunables:
                bounds = []
                if tunable.minimum is not None:
                    bounds.append(f">= {tunable.minimum}")
                if tunable.choices:
                    bounds.append("one of " + "|".join(tunable.choices))
                if tunable.power_of_two:
                    bounds.append("power of two")
                suffix = f"  ({', '.join(bounds)})" if bounds else ""
                print(f"  {tunable.name}: {tunable.kind.__name__} = "
                      f"{tunable.format(tunable.default)}{suffix} — "
                      f"{tunable.doc}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    names = (
        list(registered_names())
        if args.counters == "all"
        else args.counters.split(",")
    )
    ns = [int(value) for value in args.ns.split(",")]
    unknown = []
    for name in names:
        try:
            parse_spec(name)
        except ConfigurationError:
            unknown.append(name)
    if unknown:
        print(f"unknown counters: {', '.join(unknown)}", file=sys.stderr)
        return 2
    from repro.workloads import SweepPoint, SweepRunner

    runner = SweepRunner(workers=args.workers)
    transport = "reliable" if args.reliable else "bare"
    points = [
        SweepPoint(
            counter=name,
            n=n,
            faults=args.faults or "",
            transport=transport,
        )
        for name in names
        for n in ns
    ]
    try:
        loads = runner.bottlenecks(points)
    except ConfigurationError as error:  # e.g. lossy faults without --reliable
        print(str(error), file=sys.stderr)
        return 2
    rows = []
    for index, name in enumerate(names):
        start = index * len(ns)
        rows.append([name, *loads[start : start + len(ns)]])
    rows.append(["k(n) bound"] + [f"{lower_bound_k(n):.2f}" for n in ns])
    title = "Sequential one-shot bottleneck sweep"
    if args.faults:
        title += f" (faults: {args.faults}, transport: {transport})"
    print(
        format_table(
            ["counter"] + [f"m_b @ n={n}" for n in ns],
            rows,
            title=title,
        )
    )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import json as json_module
    import time

    from repro.explore import (
        ExploreConfig,
        ExploreRunner,
        ExploreTask,
        ReproFile,
        replay_repro,
    )

    if args.replay is not None:
        try:
            repro = ReproFile.load(args.replay)
        except (OSError, ConfigurationError, KeyError, ValueError) as error:
            print(f"cannot load repro file: {error}", file=sys.stderr)
            return 2
        outcome = replay_repro(repro)
        failure = outcome.failure
        reproduced = failure is not None and failure.oracle == repro.oracle
        print(f"repro:      {args.replay}")
        episode = repro.config
        print(f"counter:    {episode.counter}  (n={episode.n}, "
              f"seed={episode.seed}, workload={episode.workload})")
        print(f"schedule:   {len(repro.decisions)} decisions "
              f"({sum(1 for d in repro.decisions if d)} non-default)")
        print(f"expected:   {repro.oracle} failure")
        if failure is None:
            print("observed:   all oracles passed — DOES NOT REPRODUCE")
        else:
            status = "reproduces" if reproduced else "DIFFERENT FAILURE"
            print(f"observed:   {failure.oracle}: {failure.message} "
                  f"[{status}]")
        return 0 if reproduced else 1

    config = ExploreConfig(
        counter=args.counter,
        n=args.n,
        seed=args.seed,
        strategy=args.strategy,
        budget=args.budget,
        faults=args.faults or "",
        transport="reliable" if args.reliable else "bare",
        workload=args.workload,
        gap=args.gap,
        rounds=args.rounds,
        shrink=not args.no_shrink,
    )
    runner = ExploreRunner(workers=args.workers)
    started = time.perf_counter()
    try:
        report = runner.explore(ExploreTask(config))
    except ConfigurationError as error:  # includes CapabilityError
        print(str(error), file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    rate = report.episodes / elapsed if elapsed > 0 else 0.0
    if args.json:
        payload = report.to_json()
        payload["elapsed_seconds"] = round(elapsed, 3)
        payload["schedules_per_second"] = round(rate, 1)
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"counter:    {config.counter}  (n={config.n}, "
              f"seed={config.seed}, workload={config.workload}"
              + (f", faults={config.faults}" if config.faults else "") + ")")
        print(f"plan:       {config.strategy}  "
              f"(default budget {config.budget})")
        print(f"explored:   {report.episodes} schedules, "
              f"{report.decisions} decisions "
              f"({rate:.0f} schedules/s)")
        for oracle, counts in report.verdict_counts.items():
            print(f"  {oracle:<24} pass {counts['pass']:>5}  "
                  f"fail {counts['fail']:>3}  skip {counts['skip']:>5}")
        if report.ok:
            print("result:     no invariant violation found")
        else:
            print(f"result:     {len(report.failures)} failing schedule(s)")
            for index, repro in enumerate(report.failures):
                print(f"  [{index}] episode {repro.episode} "
                      f"({repro.strategy}): {repro.oracle} — "
                      f"{repro.message} "
                      f"[{len(repro.decisions)} decisions after shrink]")
    saved_paths = []
    if args.save_repros and report.failures:
        import pathlib

        directory = pathlib.Path(args.save_repros)
        for index, repro in enumerate(report.failures):
            safe = "".join(
                ch if ch.isalnum() else "-" for ch in repro.config.counter
            ).strip("-")
            path = directory / (
                f"{safe}-seed{repro.config.seed}-ep{repro.episode}-"
                f"{repro.oracle}.json"
            )
            saved_paths.append(repro.save(path))
        for path in saved_paths:
            print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_adversary(args: argparse.Namespace) -> int:
    try:
        adversary = GreedyAdversary(
            args.counter, args.n, sample_size=args.sample, seed=args.seed
        )
    except ConfigurationError as error:
        print(f"bad counter spec: {error}", file=sys.stderr)
        return 2
    run = adversary.run()
    report = evaluate_ledger(run.ledger, base=run.bottleneck_load + 1)
    print(f"adversary vs {args.counter}, n={args.n}")
    print(f"chosen order: {run.order}")
    print(f"list lengths: {run.chosen_lengths}")
    print(f"bottleneck m_b = {run.bottleneck_load} "
          f">= floor(k) = {message_load_bound(args.n)}: "
          f"{run.bottleneck_load >= message_load_bound(args.n)}")
    print(f"weight growth {report.growth_steps}/{len(report.weights) - 1}, "
          f"AM-GM holds: {am_gm_holds(report)}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    ns = [int(value) for value in args.ns.split(",")]
    print(
        format_table(
            ["n", "k(n)", "floor", "ln n/ln ln n"],
            bound_series(ns),
            title="Lower bound curve: k·kᵏ = n",
        )
    )
    return 0


def _cmd_quorum(args: argparse.Namespace) -> int:
    n = args.n
    systems = [
        SingletonQuorum(n),
        RotatingMajorityQuorum(n),
        TreePathQuorum(n),
        WheelQuorum(n),
        CrumblingWall(n),
    ]
    import math

    if math.isqrt(n) ** 2 == n:
        systems.insert(2, MaekawaGrid(n))
    rows = []
    for system in systems:
        network = Network()
        counter = QuorumCounter(network, n, system)
        result = run_sequence(counter, one_shot(n))
        rows.append(
            [
                type(system).__name__,
                system.max_quorum_size(),
                f"{uniform_load(system).system_load:.3f}",
                f"{optimal_load(system).system_load:.3f}",
                result.bottleneck_load(),
            ]
        )
    print(
        format_table(
            ["system", "max |Q|", "uniform load", "optimal load", "counter m_b"],
            rows,
            title=f"Quorum systems over n={n}",
        )
    )
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    geometry = (
        TreeGeometry.paper_shape(args.k)
        if args.k is not None
        else TreeGeometry.for_processors(args.n)
    )
    print(f"shape:           arity=depth={geometry.arity} "
          f"(paper k={geometry.arity})")
    print(f"leaves:          {geometry.leaf_count} = "
          f"{geometry.arity}^{geometry.depth + 1}")
    print(f"inner nodes:     {geometry.total_inner_nodes()}")
    print(f"ids required:    {geometry.processor_requirement()} "
          f"(max interval id {geometry.max_interval_id()}, "
          f"root walk budget {geometry.root_walk_budget()})")
    rows = []
    for level in geometry.inner_levels():
        if level == 0:
            interval = "1,2,3,... (walk)"
        else:
            example = geometry.id_interval(geometry.level_nodes(level)[0])
            interval = f"width {len(example)} (e.g. {example.start}..{example.stop - 1})"
        rows.append([level, geometry.nodes_on_level(level), interval])
    print(
        format_table(
            ["level", "nodes", "replacement ids per node"],
            rows,
            title="Identifier scheme (§4)",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """A fast self-check: every counter counts, every lemma holds."""
    from repro.core.invariants import check_all
    from repro.lowerbound import check_hot_spot, message_load_bound

    n = args.n
    failures = 0

    def report(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" — {detail}" if detail else ""
        print(f"  [{'OK' if ok else 'FAIL'}] {label}{suffix}")

    print(f"self-check battery, n={n}")
    for spec in registered_specs():
        # Byzantine voting costs Θ(n²·f) messages per op, so the
        # "fast battery" promise caps its run size; the bound and
        # hot-spot checks are still exercised at the capped n.
        run_n = min(n, 7) if spec.capabilities.tolerates_byzantine else n
        restriction = spec.supports_n(run_n)
        if restriction is not None:
            print(f"  [SKIP] {spec.name}: {restriction}")
            continue
        network = Network()
        counter = spec.build(network, run_n)
        result = run_sequence(counter, one_shot(run_n))
        values_ok = result.values() == list(range(run_n))
        hotspot_ok = check_hot_spot(result).holds
        bound_ok = result.bottleneck_load() >= message_load_bound(run_n)
        label = f"{spec.name}: counts, hot-spot, bound"
        if run_n != n:
            label += f" (capped at n={run_n})"
        report(
            label,
            values_ok and hotspot_ok and bound_ok,
            f"m_b={result.bottleneck_load()}",
        )
        policy = getattr(counter, "policy", None)
        if (
            counter.capabilities.supports_retirement
            and policy is not None
            and policy.retires
        ):
            for lemma in check_all(counter, result):
                report(f"{spec.name}: {lemma.lemma}", lemma.holds, lemma.detail)
    print("result:", "ALL OK" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run one E-index experiment (or list them)."""
    from repro.experiments import REGISTRY

    if args.id is None:
        print("available experiments:")
        for experiment_id in sorted(REGISTRY, key=lambda e: int(e[1:])):
            runner = REGISTRY[experiment_id]
            doc = (runner.__doc__ or "").strip().splitlines()[0]
            doc = doc.removeprefix(f"{experiment_id}: ")
            print(f"  {experiment_id:>4}: {doc}")
        return 0
    experiment_id = args.id.upper()
    if experiment_id not in REGISTRY:
        print(f"unknown experiment {args.id!r}; run without an id to list",
              file=sys.stderr)
        return 2
    result = REGISTRY[experiment_id]()
    print(f"{result.experiment_id}: {result.claim}\n")
    print(result.to_text())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the SVG figures (F1-F3)."""
    from repro.experiments.figures import save_all_figures
    from repro.workloads import SweepRunner

    written = save_all_figures(args.out, runner=SweepRunner(workers=args.workers))
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ResilienceConfig, serve_counter, serve_keyed_counter

    try:
        resilience = ResilienceConfig(
            max_backlog=None if args.max_backlog < 0 else args.max_backlog,
            default_deadline=(
                None if args.deadline_ms is None else args.deadline_ms / 1000.0
            ),
            dedup_capacity=args.dedup_capacity,
            line_limit=args.line_limit,
            drain_timeout=args.drain_timeout,
        )
        if args.shards is not None:
            asyncio.run(
                serve_keyed_counter(
                    args.spec,
                    args.n,
                    args.host,
                    args.port,
                    shards=args.shards,
                    batch_max=args.batch_max,
                    policy=args.policy,
                    seed=args.seed,
                    time_scale=args.time_scale,
                    resilience=resilience,
                    fixture_dir=args.fixture,
                    announce=True,
                )
            )
        else:
            asyncio.run(
                serve_counter(
                    args.spec,
                    args.n,
                    args.host,
                    args.port,
                    policy=args.policy,
                    seed=args.seed,
                    time_scale=args.time_scale,
                    resilience=resilience,
                    announce=True,
                )
            )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        CircuitBreaker,
        RetryBudget,
        RetryPolicy,
        run_keyed_load,
        run_load,
        run_rate_sweep,
    )

    retry = None
    if args.retries > 0:
        retry = RetryPolicy(
            attempts=args.retries + 1,
            base_delay=args.backoff_base_ms / 1000.0,
            max_delay=max(args.backoff_base_ms, args.backoff_max_ms) / 1000.0,
        )
    retry_budget = (
        RetryBudget(args.retry_budget) if args.retry_budget is not None else None
    )
    breaker = (
        CircuitBreaker(args.breaker_threshold, args.breaker_reset)
        if args.breaker_threshold > 0
        else None
    )
    deadline = None if args.deadline_ms is None else args.deadline_ms / 1000.0

    async def go() -> int:
        final_value = -1
        expect_final = args.expect_final
        if args.keys is not None:
            if args.rates is not None:
                print(
                    "error: --keys runs a single keyed load; "
                    "drop --rates",
                    file=sys.stderr,
                )
                return 2
            run = await run_keyed_load(
                args.host, args.port, args.ops, args.rate,
                keys=args.keys, zipf=args.zipf,
                process=args.process, seed=args.seed,
                max_connections=args.max_connections,
                retry=retry, retry_budget=retry_budget,
                deadline=deadline, breaker=breaker,
            )
            print(run.summary())
            violations = run.exactness_violations()
            print(
                f"keys: {run.key_population} touched, "
                + ("all exact"
                   if not violations
                   else f"EXACTNESS VIOLATED on {violations}")
            )
            failed = bool(run.errors or violations)
            expect_final = None  # per-key values; no single counter to check
        elif args.rates is not None:
            rates = [float(rate) for rate in args.rates.split(",")]
            sweep = await run_rate_sweep(
                args.host, args.port, args.ops, rates,
                process=args.process, seed=args.seed,
                max_connections=args.max_connections,
                retry=retry, retry_budget=retry_budget,
                deadline=deadline, breaker=breaker,
            )
            for run in sweep.runs:
                print(run.summary())
                final_value = max(final_value, run.final_value - 1)
            if sweep.knee_rate is not None:
                print(f"knee at ~{sweep.knee_rate:g} ops/s")
            else:
                print("no saturation knee within the swept rates")
            failed = any(run.errors for run in sweep.runs)
            final_value += 1
        else:
            run = await run_load(
                args.host, args.port, args.ops, args.rate,
                process=args.process, seed=args.seed,
                max_connections=args.max_connections,
                retry=retry, retry_budget=retry_budget,
                deadline=deadline, breaker=breaker,
            )
            print(run.summary())
            failed = run.errors > 0
            final_value = run.final_value
        if args.shutdown:
            reader, writer = await asyncio.open_connection(
                args.host, args.port
            )
            writer.write(b"SHUTDOWN\n")
            await writer.drain()
            await reader.readline()
            writer.close()
        if expect_final is not None and final_value != expect_final:
            print(
                f"error: expected final counter value {expect_final}, "
                f"observed {final_value}",
                file=sys.stderr,
            )
            return 1
        return 1 if failed else 0

    try:
        return asyncio.run(go())
    except (ConnectionRefusedError, OSError) as error:
        print(
            f"error: cannot reach {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.errors import ReplayMismatchError
    from repro.shard import replay_bundle

    try:
        report = replay_bundle(args.bundle)
    except ReplayMismatchError as error:
        print(f"REPLAY FAILED: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ChaosProxy, parse_chaos_spec

    host, _, port_text = args.upstream.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --upstream must be HOST:PORT, got {args.upstream!r}",
            file=sys.stderr,
        )
        return 2
    try:
        plan = parse_chaos_spec(args.plan, seed=args.seed)
    except ReproError as error:
        print(f"bad chaos plan: {error}", file=sys.stderr)
        return 2
    proxy = ChaosProxy(
        host, int(port_text), plan=plan, host=args.host, port=args.port
    )

    async def go() -> None:
        await proxy.start()
        print(
            f"CHAOS {plan.canonical()} {proxy.address} "
            f"-> {proxy.upstream_host}:{proxy.upstream_port}",
            flush=True,
        )
        await proxy.serve_forever()

    try:
        asyncio.run(go())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "counters": _cmd_counters,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "adversary": _cmd_adversary,
    "bound": _cmd_bound,
    "quorum": _cmd_quorum,
    "tree": _cmd_tree,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "figures": _cmd_figures,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
    "replay": _cmd_replay,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
