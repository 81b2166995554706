"""Command-line interface: run the paper's machinery from a shell.

``python -m repro --help`` lists the verbs and ``python -m repro <verb>
--help`` documents each one.  A verb parses its flags, makes one library
call and renders the result.  :func:`main` is the one error boundary: a
``ValueError`` from any verb exits 1 with the single line
``repro <verb>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import api, lint, obs
from .core.adversary import run_adversary
from .core.canonical_order import tree_ball, tree_sort_key
from .core.exhaustive import half_integral_grid, one_round_universe, search_view_function
from .core.witness import AlgorithmFailure
from .engine import CellExecutionError, GridSpec, e1_grid, smoke_grid, verify_store
from .engine.executors import ExecutionOptions
from .engine.grid import CHAINS, make_algorithm
from .graphs.families import (
    caterpillar,
    complete_graph,
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    random_loopy_tree,
    random_regular_graph,
    star_graph,
)
from .lint.rules import RULE_MODULES
from .local.context import NodeContext
from .local.sanitize import LocalityViolation
from .matching.fm import fm_from_node_outputs
from .matching.proposal import ProposalFM
from .matching.verify import verify_distributed
from .matching.vertex_cover import is_vertex_cover, vertex_cover_quality

__all__ = ["main", "build_parser", "add_common_options"]


def add_common_options(
    parser: argparse.ArgumentParser,
    *,
    json_flag: bool = False,
    delta: Optional[int] = None,
    chain: Optional[str] = None,
    out: bool = False,
    execution: bool = False,
) -> argparse.ArgumentParser:
    """Attach the shared flag vocabulary to a subcommand parser.

    ``--json [PATH]`` (bare prints JSON to stdout, with a PATH writes it),
    ``--delta N`` and ``--chain {ec,po,oi,id}`` (defaults per subcommand)
    and ``--out DIR`` are spelled the same by every verb that takes them.
    ``execution=True`` adds the engine-driving verbs' execution-control
    group; its defaults and rules are those of
    :class:`repro.engine.executors.ExecutionOptions`.
    """
    if json_flag:
        parser.add_argument(
            "--json",
            nargs="?",
            const=True,
            metavar="PATH",
            help="machine-readable output (bare: print to stdout; PATH: write file)",
        )
    if delta is not None:
        parser.add_argument(
            "--delta", type=int, default=delta, help=f"maximum degree (default {delta})"
        )
    if chain is not None:
        parser.add_argument(
            "--chain",
            choices=list(CHAINS),
            default=chain,
            help="simulation chain to stack in front of the base machine "
            "(ec: none; po: EC<=PO; oi: EC<=PO<=OI; id: the full "
            f"EC<=PO<=OI<=ID; default {chain})",
        )
    if out:
        parser.add_argument(
            "--out", metavar="DIR", help="directory for result artifacts"
        )
    if execution:
        group = parser.add_argument_group(
            "execution control",
            "one vocabulary for every engine-driving subcommand; validated "
            "together (workers >= 1, positive timeouts)",
        )
        group.add_argument(
            "--workers",
            type=int,
            default=ExecutionOptions.workers,
            metavar="N",
            help="shard fan-out (default 1: the serial inline baseline; "
            ">= 2 shards over a pool of N spawned worker processes)",
        )
        group.add_argument(
            "--cell-timeout",
            type=float,
            default=ExecutionOptions.cell_timeout,
            metavar="SECONDS",
            help="per-cell watchdog: a cell running longer is abandoned and "
            "retried (default: no timeout)",
        )
        group.add_argument(
            "--retries",
            type=int,
            default=ExecutionOptions.retries,
            metavar="N",
            help="extra attempts per cell after a timeout or error (default 1)",
        )
        group.add_argument(
            "--max-restarts",
            type=int,
            default=ExecutionOptions.max_restarts,
            metavar="N",
            help="rounds of dead-worker recovery before giving up (default 2)",
        )
    return parser


def _execution_options(args) -> ExecutionOptions:
    """The execution-control flags, validated as one object."""
    return ExecutionOptions(
        workers=args.workers,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        max_restarts=args.max_restarts,
    )


def _emit_json(args, payload: str) -> None:
    """Honour the shared ``--json`` flag: stdout when bare, a file when PATH."""
    if isinstance(args.json, str):
        Path(args.json).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote JSON to {args.json}")
    else:
        print(payload)


def _make_graph(family: str, n: int, delta: int, seed: int):
    factories = {
        "path": lambda: path_graph(n),
        "cycle": lambda: cycle_graph(n),
        "star": lambda: star_graph(delta),
        "complete": lambda: complete_graph(n),
        "caterpillar": lambda: caterpillar(n // 3, max(delta - 2, 1)),
        "random": lambda: random_bounded_degree_graph(n, delta, seed),
        "regular": lambda: random_regular_graph(n if (n * delta) % 2 == 0 else n + 1, delta, seed),
        "loopy-tree": lambda: random_loopy_tree(n, max(delta - 1, 1), seed),
    }
    if family not in factories:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(factories)}")
    return factories[family]()


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and ``--help`` generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Linear-in-Delta lower bounds in the LOCAL model, executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the option group two verbs share, declared once as an argparse parent
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--family", default="random")
    graph.add_argument("--n", type=int, default=20)
    graph.add_argument("--delta", type=int, default=4)
    graph.add_argument("--seed", type=int, default=0)
    graph.add_argument("--algorithm", default="greedy")

    sub.add_parser(
        "solve", parents=[graph], help="run a maximal-FM algorithm on a graph family"
    ).set_defaults(handler=_cmd_solve)

    adv = sub.add_parser("adversary", help="run the Section 4 lower-bound construction")
    adv.set_defaults(handler=_cmd_adversary)
    adv.add_argument("--delta", type=int, default=5)
    adv.add_argument("--algorithm", default="greedy")
    adv.add_argument("--deep-verify", action="store_true")

    sub.add_parser(
        "cover", parents=[graph], help="2-approximate vertex cover from a maximal FM"
    ).set_defaults(handler=_cmd_cover)

    order = sub.add_parser("order", help="print a T-ball in the Appendix A order")
    order.set_defaults(handler=_cmd_order)
    order.add_argument("--generators", type=int, default=2)
    order.add_argument("--radius", type=int, default=2)

    ex = sub.add_parser(
        "exhaustive",
        help="prove 1-round impossibility by enumerating all grid-valued algorithms",
    )
    ex.set_defaults(handler=_cmd_exhaustive)
    ex.add_argument("--delta", type=int, default=3)
    ex.add_argument("--grid-denominator", type=int, default=6)

    lint_verb = sub.add_parser(
        "lint",
        help="model-contract static analysis (per-line rules plus the "
        "interprocedural effect/concurrency/kernel/suppression checks)",
    )
    lint_verb.set_defaults(handler=_cmd_lint)
    lint_verb.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    add_common_options(lint_verb, json_flag=True)
    lint_verb.add_argument(
        "--sanitize-demo",
        action="store_true",
        help="run the runtime locality sanitizer against a cheating and an "
        "honest EC algorithm instead of linting",
    )
    lint_verb.add_argument(
        "--baseline",
        nargs="?",
        const="lint-baseline.json",
        metavar="PATH",
        help="ratchet mode: fail only on findings not in the committed "
        "baseline (default path: lint-baseline.json)",
    )
    lint_verb.add_argument(
        "--update-baseline",
        nargs="?",
        const="lint-baseline.json",
        metavar="PATH",
        help="rewrite the baseline to the current findings and exit 0",
    )
    lint_verb.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write the findings as a SARIF 2.1.0 log (GitHub "
        "code scanning)",
    )
    lint_verb.add_argument(
        "--explain",
        metavar="RULE",
        help="print a rule's full documentation and exit",
    )
    lint_verb.add_argument(
        "--effects",
        metavar="MODULE.FUNC",
        help="print the inferred effect report for a function (or MODULE "
        "for its module body) instead of linting",
    )

    trace = sub.add_parser(
        "trace",
        help="run a workload under the repro.obs tracer and print the span tree",
    )
    trace.set_defaults(handler=_cmd_trace)
    trace.add_argument(
        "target",
        choices=["demo", "adversary", "theorem"],
        help="demo: one simulator run + distributed verification; "
        "adversary: the Section 4 construction; "
        "theorem: the EC<=PO chain fed to the adversary (Section 5)",
    )
    trace.add_argument("--algorithm", default="greedy")
    add_common_options(trace, json_flag=True, delta=5, chain="po")
    trace.add_argument("--jsonl", metavar="PATH", help="write a flat JSONL span log")
    trace.add_argument(
        "--profile", action="store_true", help="also print the hottest spans"
    )
    trace.add_argument(
        "--top", type=int, default=10, help="profile rows to print (default 10)"
    )
    trace.add_argument(
        "--max-depth",
        type=int,
        default=3,
        help="span-tree print depth (the JSON export is always complete)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run an (algorithm x Delta x chain x seed) grid through the "
        "parallel experiment engine",
    )
    sweep.set_defaults(handler=_cmd_sweep)
    sweep.add_argument(
        "--algorithms",
        help="comma-separated algorithm names (default: greedy,proposal)",
    )
    sweep.add_argument(
        "--deltas",
        help="Delta values, comma-separated or A..B (default: 3..8)",
    )
    sweep.add_argument(
        "--seeds", help="comma-separated seeds (default: 0)"
    )
    add_common_options(sweep, json_flag=True, chain="ec", out=True, execution=True)
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in --out's result shards",
    )
    sweep.add_argument(
        "--smoke",
        action="store_true",
        help="run the 2-minute smoke grid (greedy+proposal, Delta in {3,4})",
    )
    sweep.add_argument(
        "--min-hit-rate",
        type=float,
        metavar="RATE",
        help="fail (exit 1) when the canonical-form cache hit rate falls "
        "below RATE (0..1) — a CI guard for the shape-keyed plan cache; "
        "reported as n/a (and never failed) when the cache saw no lookups",
    )
    sweep.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="replay a deterministic fault plan during the sweep "
        "(see docs/fault_injection.md for the schema)",
    )
    sweep.add_argument(
        "--progress",
        nargs="?",
        const=True,
        metavar="PATH",
        help="live heartbeat telemetry: a single-line status on stderr plus "
        "JSONL events written to PATH (bare: <out>/progress.jsonl when "
        "--out is set, else stderr only)",
    )

    serve_api = sub.add_parser(
        "serve-api",
        help="run the sweep-as-a-service HTTP/JSON job server "
        "(POST /v1/jobs; see docs/service.md)",
    )
    serve_api.set_defaults(handler=_cmd_serve_api)
    serve_api.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; 0.0.0.0 to serve other "
        "hosts)",
    )
    serve_api.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default 0: an OS-assigned free port, printed "
        "on startup)",
    )
    serve_api.add_argument(
        "--data-dir",
        default="service-data",
        metavar="DIR",
        help="root for job artifacts (jobs/<id>/ stores, progress JSONL; "
        "default service-data)",
    )
    serve_api.add_argument(
        "--queue-size",
        type=int,
        default=16,
        metavar="N",
        help="bounded job queue depth; submissions past it get 429 + "
        "Retry-After (default 16)",
    )
    serve_api.add_argument(
        "--job-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker threads draining the job queue (default 1; jobs in "
        "one process serialise on the engine's ambient hooks anyway)",
    )
    serve_api.add_argument(
        "--rate",
        type=float,
        default=0.0,
        metavar="PER_SECOND",
        help="per-tenant submission rate limit in jobs/second "
        "(default 0: unlimited)",
    )
    serve_api.add_argument(
        "--burst",
        type=int,
        default=4,
        metavar="N",
        help="per-tenant burst allowance for --rate (default 4)",
    )
    add_common_options(serve_api, execution=True)

    ver = sub.add_parser(
        "verify",
        aliases=["refute"],
        help="verify a claimed round count through the repro.api facade, "
        "or replay a finished sweep store against fresh computation",
    )
    ver.set_defaults(handler=_cmd_verify)
    ver.add_argument(
        "--algorithm",
        help="registered algorithm to test (default: greedy on the 'ec' "
        "chain; deeper chains always run the proposal dynamics)",
    )
    ver.add_argument(
        "--claimed-rounds",
        type=int,
        help="claimed round count to refute (required unless --store)",
    )
    ver.add_argument(
        "--store",
        metavar="DIR",
        help="replay a finished sweep store: recompute every persisted row "
        "serially and fail unless they match byte-for-byte",
    )
    add_common_options(ver, json_flag=True, delta=5, chain="ec")

    return parser


def _cmd_solve(args) -> int:
    g = _make_graph(args.family, args.n, args.delta, args.seed)
    alg = make_algorithm(args.algorithm)
    outputs = alg.run_on(g)
    fm = fm_from_node_outputs(g, outputs)
    ok, _, check_rounds = verify_distributed(g, outputs)
    print(f"graph: {args.family} (n={g.num_nodes()}, m={g.num_edges()}, Delta={g.max_degree()})")
    print(f"algorithm: {alg.name} ({alg.rounds_used(g)} rounds)")
    print(f"feasible: {fm.is_feasible()}  maximal: {fm.is_maximal()}  "
          f"total weight: {fm.total_weight()}")
    print(f"1-round distributed verifier: {'accepts' if ok else 'REJECTS'} "
          f"(rounds={check_rounds})")
    return 0 if (fm.is_feasible() and fm.is_maximal()) else 1


def _cmd_adversary(args) -> int:
    alg = make_algorithm(args.algorithm)
    try:
        witness = run_adversary(alg, args.delta, deep_verify=args.deep_verify)
    except AlgorithmFailure as failure:
        print(f"algorithm {alg.name!r} caught as incorrect: {failure}")
        return 1
    for step in witness.steps:
        print(
            f"step {step.index} [{step.side:>4}]  |G|={step.graph_g.num_nodes():>3} "
            f"|H|={step.graph_h.num_nodes():>3}  colour {step.color!r}: "
            f"{step.weight_g} vs {step.weight_h}  "
            f"(iso={step.balls_isomorphic}, loops>={step.loop_budget})"
        )
    print(witness.conclusion())
    return 0


def _cmd_cover(args) -> int:
    g = _make_graph(args.family, args.n, args.delta, args.seed)
    alg = make_algorithm(args.algorithm)
    fm = fm_from_node_outputs(g, alg.run_on(g))
    cover, ratio, lower = vertex_cover_quality(fm)
    assert is_vertex_cover(g, cover)
    print(f"graph: {args.family} (n={g.num_nodes()}, m={g.num_edges()})")
    print(f"vertex cover size: {len(cover)}  LP lower bound: {lower:.2f}  "
          f"certified ratio: {ratio:.3f} (guarantee: 2)")
    return 0


def _cmd_exhaustive(args) -> int:
    universe = one_round_universe(args.delta)
    outcome = search_view_function(
        universe, t=1, grid=half_integral_grid(args.grid_denominator)
    )
    print(
        f"universe: {len(universe)} graphs of max degree {args.delta}; "
        f"{outcome.views} distinct radius-1 views; "
        f"{outcome.candidates_total} candidate outputs"
    )
    if outcome.impossible:
        print(
            f"IMPOSSIBLE: no 1-round algorithm over the 1/{args.grid_denominator} grid "
            f"exists ({outcome.nodes_explored} search nodes explored)"
        )
        return 0
    print("a satisfying view function exists on this universe:")
    for view, weights in outcome.function.items():
        print(f"  view {view!r} -> { {c: str(w) for c, w in weights.items()} }")
    return 2


def _sanitize_demo() -> int:
    """Show the locality sanitizer catching a cheat and passing an honest run."""
    class CheatingFM(ProposalFM):
        """Proposal dynamics, except it peeks at the node label."""

        def initial_state(self, ctx: NodeContext):
            state = super().initial_state(ctx)
            state["who_am_i"] = ctx.node  # the out-of-model read
            return state

    g = path_graph(5)
    try:
        api.run(CheatingFM("EC"), g, sanitize=True)
    except LocalityViolation as violation:
        print(f"cheating algorithm caught: {violation}")
        caught = True
    else:
        print("ERROR: the cheating algorithm was not caught")
        caught = False

    result = api.run(ProposalFM("EC"), g, sanitize=True)
    log = result.access_log
    reads = ", ".join(f"{attr}={n}" for attr, n in sorted(log.reads.items()))
    print(f"honest algorithm clean: {log.clean} (model {log.model}; reads: {reads})")
    return 0 if caught and log.clean else 1


def _lint_usage_error(message: str) -> int:
    """The lint verb's usage errors: one stderr line and exit status 2."""
    print(f"repro lint: {message}", file=sys.stderr)
    return 2


def _cmd_lint(args) -> int:
    if args.sanitize_demo:
        return _sanitize_demo()
    if args.explain:
        return _lint_explain(args.explain)
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        return _lint_usage_error(f"no such path: {', '.join(missing)}")
    if args.effects:
        return _lint_effects(args.paths, args.effects)
    findings = lint.lint_paths(args.paths)
    if args.sarif:
        Path(args.sarif).write_text(lint.render_sarif(findings) + "\n", encoding="utf-8")
        print(f"wrote SARIF to {args.sarif}")
    if args.update_baseline:
        lint.write_baseline(Path(args.update_baseline), findings)
        print(f"baseline updated: {args.update_baseline} now accepts {len(findings)} finding(s)")
        return 0
    fixed = 0
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            return _lint_usage_error(
                f"baseline file {args.baseline} not found; create "
                f"it with: repro lint --update-baseline {args.baseline}"
            )
        # a malformed baseline is a usage error (2), not a finding (1)
        try:
            accepted = lint.load_baseline(baseline_path)
        except ValueError as exc:
            return _lint_usage_error(str(exc))
        findings, fixed = lint.ratchet(findings, accepted)
    if args.json is not None:
        _emit_json(args, lint.render_json(findings))
    else:
        print(lint.render_text(findings))
    if fixed:
        print(f"ratchet: {fixed} baselined finding(s) no longer occur; "
              f"tighten with: repro lint --update-baseline {args.baseline}")
    return 1 if findings else 0


def _lint_explain(rule: str) -> int:
    """Print one rule's full module documentation."""
    module = RULE_MODULES.get(rule)
    if module is None:
        return _lint_usage_error(
            f"unknown rule {rule!r}; known rules: {', '.join(sorted(RULE_MODULES))}"
        )
    print((module.__doc__ or "").strip())
    return 0


def _lint_effects(paths, qualname: str) -> int:
    """Print the inferred effect report for one function or module body."""
    modules, _ = lint.load_modules(paths)
    analysis = lint.ProjectUnderLint(modules=modules).effects
    fx = analysis.lookup(qualname)
    if fx is None:
        return _lint_usage_error(
            f"no function or module {qualname!r} in the linted "
            f"paths (use the dotted qualname, e.g. repro.graphs.memo.reset_memos)"
        )
    print(f"{fx.qualname}  (module {fx.module}, line {fx.lineno})")
    print(f"  raw direct effects (pre-noqa): {', '.join(sorted(fx.raw_direct)) or '-'}")
    print(f"  direct effects:    {', '.join(sorted(fx.direct)) or '-'}")
    print(f"  visible effects:   {', '.join(sorted(fx.visible)) or '-'}")
    print(f"  contained at boundaries: {', '.join(sorted(fx.contained)) or '-'}")
    for effect in sorted(fx.visible):
        chain = analysis.path(fx.qualname, effect)
        print(f"  {effect}: {' -> '.join(chain)}")
        for src in fx.sources.get(effect, []):
            print(f"    [{src.kind}] line {src.line}: {src.detail}")
    return 0


def _cmd_trace(args) -> int:
    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        if args.target == "demo":
            g = _make_graph("random", 20, args.delta, seed=0)
            alg = make_algorithm(args.algorithm)
            with tracer.span("trace.demo", family="random", delta=args.delta):
                outputs = alg.run_on(g)
                ok, _, _ = verify_distributed(g, outputs)
            print(f"demo: {alg.name} on random(n=20, delta={args.delta}); verifier "
                  f"{'accepts' if ok else 'REJECTS'}")
        elif args.target == "adversary":
            alg = make_algorithm(args.algorithm)
            try:
                witness = run_adversary(alg, args.delta, tracer=tracer)
            except AlgorithmFailure as failure:
                print(f"algorithm {alg.name!r} caught as incorrect: {failure}")
            else:
                print(witness.conclusion())
        else:  # theorem: the Section 5 chain in front of the adversary
            result = api.refute(None, args.delta, chain=args.chain, tracer=tracer)
            print(result.summary())

    steps = obs.count_spans(tracer, "adversary.step")
    total = sum(1 for _ in tracer.iter_spans())
    print(f"\ntrace: {total} spans ({steps} adversary steps)")
    print(obs.render_tree(tracer, max_depth=args.max_depth))
    if args.profile:
        print("\nhottest spans (by self time):")
        print(obs.render_profile(obs.profile_rows(tracer), top=args.top))
    if isinstance(args.json, str):
        path = obs.write_json(tracer, args.json, command=f"trace {args.target}")
        print(f"\nwrote JSON trace to {path}")
    elif args.json:
        print(json.dumps(obs.trace_document(tracer, command=f"trace {args.target}")))
    if args.jsonl:
        path = obs.write_jsonl(tracer, args.jsonl)
        print(f"wrote JSONL span log to {path}")
    return 0


def _parse_ints(spec: str, flag: str) -> tuple:
    """Parse a shared integer-list spec: ``"3,4,5"`` or a range ``"3..8"``."""
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        try:
            return tuple(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ValueError(f"{flag}: bad range {spec!r} (want A..B)") from None
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ValueError(f"{flag}: bad value {spec!r} (want N,N,... or A..B)") from None


def _cmd_serve_api(args) -> int:
    """Run the sweep-as-a-service HTTP job server until interrupted."""
    from .service import ServiceConfig, ServiceServer, SweepService

    config = ServiceConfig(
        data_dir=Path(args.data_dir),
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        rate=args.rate,
        burst=args.burst,
        sweep_options=_execution_options(args).engine_kwargs(),
    )
    server = ServiceServer(SweepService(config), host=args.host, port=args.port)
    host, port = server.address
    print(f"sweep service listening on http://{host}:{port}/v1/", flush=True)
    print(
        f"submit with: curl -X POST http://{host}:{port}/v1/jobs "
        "-H 'X-Repro-Tenant: NAME' -d '{\"grid\": {\"deltas\": [3, 4]}}'",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    print("sweep service stopped")
    return 0


def _cmd_sweep(args) -> int:
    if args.smoke:
        grid = smoke_grid()
    else:  # unset axes keep the E1 grid's values
        base = e1_grid()
        grid = GridSpec(
            algorithms=tuple(args.algorithms.split(",")) if args.algorithms else base.algorithms,
            deltas=_parse_ints(args.deltas, "--deltas") if args.deltas else base.deltas,
            chains=(args.chain,),
            seeds=_parse_ints(args.seeds, "--seeds") if args.seeds else base.seeds,
        )
    options = _execution_options(args)
    progress = None
    progress_path = None
    if args.progress is not None:
        if isinstance(args.progress, str):
            progress_path = Path(args.progress)
        elif args.out:
            progress_path = Path(args.out) / "progress.jsonl"
        progress = obs.ProgressEmitter(path=progress_path, stream=sys.stderr)

    try:
        result = api.sweep(
            grid,
            out=args.out,
            resume=args.resume,
            faults=args.faults,
            progress=progress,
            **options.engine_kwargs(),
        )
    except CellExecutionError as error:
        # the failing cell is named here and recorded in summary.json's
        # "failed" list when --out was given
        print(f"repro sweep: {error}", file=sys.stderr)
        return 1
    print(result.summary)
    if args.out:
        print(f"results under {args.out} (summary.json, trace.json, shard-*.jsonl)")
    if progress_path is not None:
        print(f"progress events: {progress_path} ({progress.events} event(s))")
    cache = result.cache
    # the gate verdict is part of the JSON payload, so --json consumers get
    # a machine-readable account; "hit_rate": null on 0 lookups states that
    # the floor was not applied
    gate = None
    if args.min_hit_rate is not None:
        applied = cache.lookups > 0
        gate = {
            "min_hit_rate": args.min_hit_rate,
            "hit_rate": cache.hit_rate if applied else None,
            "applied": applied,
            "passed": cache.hit_rate >= args.min_hit_rate if applied else None,
        }
    if args.json is not None:
        payload = {
            "grid": grid.as_dict(),
            "workers": result.workers,
            "backend": result.backend,
            "resumed": result.resumed,
            "cache": cache.as_dict(),
            "recovery": result.recovery,
            "rows": list(result.rows),
        }
        if gate is not None:
            payload["hit_rate_gate"] = gate
        _emit_json(args, json.dumps(payload, sort_keys=True))
    if gate is not None:
        floor = f"{args.min_hit_rate:.3f}"
        if not gate["applied"]:
            # no lookups (every cell answered by the run memo, or a grid
            # whose cells never canonicalise): a rate floor is meaningless,
            # not a failure
            print(f"canonical-cache hit rate n/a (0 lookups; --min-hit-rate {floor} not applied)")
        elif not gate["passed"]:
            print(f"canonical-cache hit rate {cache.hit_rate:.3f} below required {floor} "
                  f"({cache.hits}/{cache.lookups} lookups)")
            return 1
        else:
            print(f"canonical-cache hit rate {cache.hit_rate:.3f} (>= {floor} required)")
    return 0 if all(row["status"] != "refuted" for row in result.rows) else 1


def _cmd_verify_store(args) -> int:
    """Replay a finished sweep store against fresh serial computation."""
    if not Path(args.store).is_dir():
        raise ValueError(f"no such store directory: {args.store}")
    report = verify_store(Path(args.store))
    ok = not report["mismatched"] and report["summary_consistent"]
    print(
        f"store {args.store}: {report['matched']}/{report['cells']} rows match "
        f"fresh serial computation; summary "
        f"{'consistent' if report['summary_consistent'] else 'INCONSISTENT'}"
    )
    for miss in report["mismatched"]:
        print(f"  MISMATCH {miss['key']}: stored row differs from recomputation")
    scan = report.get("scan", {})
    if any(scan.values()):
        print(
            f"  shard damage absorbed: {scan.get('torn_final', 0)} torn final line(s), "
            f"{scan.get('corrupt_lines', 0)} corrupt line(s), "
            f"{scan.get('duplicates', 0)} duplicate row(s)"
        )
    if args.json is not None:
        _emit_json(args, json.dumps(report, sort_keys=True, default=str))
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    """``verify``, and its alias ``refute``: test a claimed round count."""
    if args.store is not None:
        if args.claimed_rounds is not None:
            raise ValueError("--store and --claimed-rounds are mutually exclusive")
        return _cmd_verify_store(args)
    if args.claimed_rounds is None:
        raise ValueError("one of --claimed-rounds or --store is required")
    if args.chain == "ec":
        algorithm, chain = make_algorithm(args.algorithm or "greedy"), None
    elif args.algorithm in (None, "proposal"):
        algorithm, chain = None, args.chain
    else:
        raise ValueError(
            f"chain {args.chain!r} runs the proposal dynamics "
            f"(the one machine with PO/ID presentations); drop --algorithm "
            f"or pass --algorithm proposal"
        )
    result = api.refute(algorithm, args.delta, claimed_rounds=args.claimed_rounds, chain=chain)
    print(result.summary())
    if args.json is not None:
        payload = {
            "algorithm": result.algorithm,
            "chain": args.chain,
            "claimed_rounds": result.claimed_rounds,
            "delta": result.delta,
            "kind": result.kind,
            "summary": result.summary(),
        }
        _emit_json(args, json.dumps(payload, sort_keys=True))
    return 0 if result.kind != "consistent" else 2


def _cmd_order(args) -> int:
    def pretty(word):
        if not word:
            return "e"
        return ".".join(f"g{c}" if s > 0 else f"g{c}~" for (c, s) in word)

    words = sorted(tree_ball(args.generators, args.radius), key=tree_sort_key)
    for i, w in enumerate(words):
        print(f"{i:>4}: {pretty(w)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    The one error boundary: a ``ValueError`` from any verb (bad input the
    library rejected) exits 1 with the line ``repro <verb>: <message>``.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as error:
        raise SystemExit(f"repro {args.command}: {error}") from None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
