"""Command-line entry point.

Subcommands cover the whole pipeline: policy construction (solve-lp,
greedy), protocol simulation (two-request, simulate-location), privacy
auditing (audit), and the networked pieces (serve, upload). Reports are
deterministic JSON: same inputs and seed give byte-identical output.

Exit codes: 0 success, 2 configuration or operating-system error (such as
a missing file or a busy port), 3 failed privacy audit.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import signal
import sys
from fractions import Fraction

from . import audit as audit_mod
from . import net
from .core import (
    JointDistribution,
    MessageStore,
    SystemConfig,
    approx,
    conditional_from_joint,
    default_length,
    dump_json,
    fork_rng,
    format_rational,
    load_json,
    parse_rational,
    validate_joint,
    ConditionalMatrix,
)
from .errors import ConfigError, IpirError
from .intermittent import guaranteed_cost_bound, run_two_request
from .location import MobilityModel, PrivacySchedule, simulate
from .obfuscation import (
    DEFAULT_LP_CAP,
    ObfuscationPolicy,
    build_lp,
    expected_cost,
    greedy_policy,
    likelihood_profile,
    solve_lp,
    validate_policy,
)

log = logging.getLogger("ipir")


def _load(path, what: str, parse):
    """``parse`` applied to a JSON file; any malformed input is a ConfigError."""
    try:
        return parse(load_json(path))
    except (OSError, KeyError, TypeError, IndexError, ValueError, IpirError) as exc:
        raise ConfigError(f"bad {what} file {path}: {exc}") from exc


def _cond(data) -> ConditionalMatrix:
    return ConditionalMatrix.from_rows(
        [[parse_rational(v) for v in row] for row in data["rows"]]
    )


def _schedule(data) -> tuple[int, PrivacySchedule]:
    """The file's horizon, and its schedule shifted to start private. A
    horizon or instant that is not an int, a bool included, is refused."""
    horizon, private = data["horizon"], data["private"]
    if type(horizon) is not int:
        raise ConfigError(f"schedule horizon must be an int, got {horizon!r}")
    if any(type(t) is not int for t in private):
        raise ConfigError(f"schedule private instants must be ints, got {private!r}")
    if 0 not in private:
        log.warning("schedule lacks t=0; shifting time so it starts private")
        return horizon, PrivacySchedule.normalized(horizon, private)
    return horizon, PrivacySchedule(horizon=horizon, private=frozenset(private))


def _policy_for(joint: JointDistribution, data) -> ObfuscationPolicy:
    policy = ObfuscationPolicy.from_json_dict(data)
    if policy.K != joint.K:
        raise ConfigError(f"policy has K={policy.K}, joint has K={joint.K}")
    return policy


def _transcript(data):
    cfg = data["config"]
    joint = JointDistribution.from_json_dict(data["joint"])
    if cfg["K"] != joint.K:
        raise ConfigError(f"config has K={cfg['K']!r}, joint has K={joint.K}")
    policy = _policy_for(joint, data["policy"])
    # the audits report a leaking policy; one with entries outside [K], or
    # that fails normalization, is malformed input
    validation = validate_policy(policy, joint)
    if not (validation.support_ok and validation.normalization_ok):
        raise ConfigError(f"policy fails validation: {validation.witness}")
    return (
        joint,
        policy,
        SystemConfig(N=cfg["N"], K=cfg["K"], L=cfg["L"], seed=cfg.get("seed", 0)),
    )


def _emit(report: dict, output: str | None) -> None:
    if output:
        dump_json(report, output)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _policy_report(policy, joint, n_servers) -> tuple[dict, bool]:
    report = validate_policy(policy, joint)
    cost = expected_cost(policy, joint, n_servers)
    out = {
        "policy": policy.to_json_dict(),
        "expected_cost": format_rational(cost),
        "expected_cost_approx": float(cost),
        "validation": {
            "support": report.support_ok,
            "normalization": report.normalization_ok,
            "independence": report.independence_ok,
        },
    }
    cond = conditional_from_joint(joint)
    if cond.full_support():
        profile = likelihood_profile(cond)
        bound = guaranteed_cost_bound(profile, n_servers)
        out["cost_bound"] = format_rational(bound)
        out["size_weights"] = [format_rational(w) for w in profile.size_weights]
    return out, report.all_ok


def cmd_solve_lp(args) -> int:
    joint = _load(args.joint, "joint", JointDistribution.from_json_dict)
    policy = solve_lp(build_lp(joint, args.servers, cap=args.lp_cap))
    out, ok = _policy_report(policy, joint, args.servers)
    out["solver"] = "lp"
    _emit(out, args.output)
    return 0 if ok else 3


def cmd_greedy(args) -> int:
    cond = _load(args.cond, "conditional", _cond)
    policy = greedy_policy(cond)
    # uniform prior over the private request for reporting purposes
    K = cond.K
    joint = validate_joint(
        [[cond.rows[s][x] / K for x in range(K)] for s in range(K)]
    )
    out, ok = _policy_report(policy, joint, args.servers)
    out["solver"] = "greedy"
    out["prior"] = "uniform"
    _emit(out, args.output)
    return 0 if ok else 3


def _store_for(config: SystemConfig) -> MessageStore:
    return MessageStore.random(config.K, config.L, fork_rng(config.seed, "store"))


def _audits(joint, cond, policy, config: SystemConfig, query_mode: str) -> dict:
    """Audit reports by section name; ``cond`` is the joint's conditional
    matrix. The size bound needs full support; query privacy runs in
    ``query_mode`` unless that is "none"."""
    audits = {
        "subset-independence": audit_mod.audit_policy_independence(policy, joint)
    }
    if cond.full_support():
        audits["size-bound"] = audit_mod.check_size_bound(policy, cond)
    if query_mode != "none":
        audits["query-privacy"] = audit_mod.audit_query_privacy(
            joint, policy, config, mode=query_mode, seed=config.seed
        )
    return audits


def cmd_two_request(args) -> int:
    joint = _load(args.joint, "joint", JointDistribution.from_json_dict)
    K = joint.K
    length = args.length or default_length(args.servers, K)
    config = SystemConfig(N=args.servers, K=K, L=length, seed=args.seed)
    cond = conditional_from_joint(joint)
    if args.policy:
        policy = _load(args.policy, "policy", lambda data: _policy_for(joint, data))
    elif args.auto_greedy:
        if not cond.full_support():
            raise ConfigError("greedy construction needs full support; use --auto-lp")
        policy = greedy_policy(cond)
    else:
        policy = solve_lp(build_lp(joint, args.servers, cap=args.lp_cap))
    validation = validate_policy(policy, joint)
    if not validation.all_ok:
        raise ConfigError(f"policy fails validation: {validation.witness}")

    bound = None
    if cond.full_support():
        bound = guaranteed_cost_bound(likelihood_profile(cond), args.servers)
    store = _store_for(config)
    report = run_two_request(joint, policy, config, store, trials=args.trials)

    audits = _audits(joint, cond, policy, config, args.query_audit)

    handle = None
    if args.audit_handle:
        handle = args.audit_handle
        dump_json(
            {
                "joint": joint.to_json_dict(),
                "policy": policy.to_json_dict(),
                "config": {"N": config.N, "K": config.K, "L": config.L, "seed": config.seed},
                "samples": [[s, x, list(u)] for s, x, u in report.samples],
            },
            handle,
        )

    out = {
        "config": {"N": config.N, "K": K, "L": length, "seed": args.seed,
                   "trials": args.trials},
        "cost_s": format_rational(report.cost_s.total),
        "cost_x_expected": format_rational(report.cost_x_expected),
        "cost_x_empirical": format_rational(report.cost_x_empirical),
        "cost_x_empirical_approx": float(report.cost_x_empirical),
        "cost_bound": format_rational(bound) if bound is not None else None,
        "audits": {name: rep.to_json_dict() for name, rep in audits.items()},
        "audit_handle": handle,
    }
    _emit(out, args.output)
    # the size bound is the greedy construction's guarantee: an optimal LP
    # policy, or one read from a file, may miss it, so it is only reported
    gating = [rep for name, rep in audits.items()
              if name != "size-bound" or args.auto_greedy]
    return 0 if all(rep.passed for rep in gating) else 3


def cmd_simulate_location(args) -> int:
    model = _load(args.model, "model", MobilityModel.from_json_dict)
    horizon, schedule = _load(args.schedule, "schedule", _schedule)
    if args.horizon is not None and args.horizon != horizon:
        raise ConfigError(
            f"--horizon {args.horizon} disagrees with the schedule file horizon {horizon}"
        )
    length = args.length or default_length(args.servers, model.K)
    config = SystemConfig(N=args.servers, K=model.K, L=length, seed=args.seed)
    store = _store_for(config)
    report = simulate(model, schedule, config, store, solver=args.solver)

    steps = [
        {
            "t": step.t,
            "private": step.private,
            "subset_size": len(step.subset),
            "cost": format_rational(step.cost),
            "online_privacy_bits": step.online_privacy_bits,
            "online_privacy_zero": step.online_privacy_zero,
            "solver": step.solver,
        }
        for step in report.steps
    ]
    out = {
        "config": {"N": config.N, "K": config.K, "L": config.L, "seed": args.seed,
                   "horizon": schedule.horizon, "solver": args.solver,
                   "private": sorted(schedule.private)},
        "steps": steps,
        "total_cost": format_rational(report.total_cost),
        "total_cost_approx": float(report.total_cost),
        "all_online_privacy_zero": report.all_private_zero(),
        "all_decoded": report.all_decoded(store),
    }
    if not args.redact_trace:
        out["trace"] = list(report.trace)
    _emit(out, args.output)
    return 0 if report.all_private_zero() and report.all_decoded(store) else 3


def cmd_audit(args) -> int:
    joint, policy, config = _load(args.transcript, "transcript", _transcript)

    mode = "empirical" if args.empirical else "exact"
    sections = _audits(joint, conditional_from_joint(joint), policy, config, mode)
    out = {name: rep.to_json_dict() for name, rep in sections.items()}
    out["passed"] = all(rep.passed for rep in sections.values())
    _emit(out, args.output)
    return 0 if out["passed"] else 3


def cmd_serve(args) -> int:
    store = net.load_store(args.store)
    host, _, port = args.listen.rpartition(":")
    try:
        address = (host or "127.0.0.1", int(port))
        if not 0 <= address[1] <= 65535:
            raise ValueError(f"port {address[1]} is outside 0-65535")
    except ValueError as exc:
        raise ConfigError(f"bad --listen {args.listen!r}: {exc}") from exc
    # SIGINT is how a replica is stopped, even one started as a background
    # job of a non-interactive shell, which inherits SIGINT as ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    server = net.serve(store, address)
    # a client may send SIGINT as soon as it reads the banner, so the
    # handler is in place before it is printed
    try:
        print(f"serving K={store.K} L={store.L} on "
              f"{server.address[0]}:{server.address[1]}", flush=True)
        server.wait()
    except KeyboardInterrupt:
        server.close()
    return 0


def cmd_upload(args) -> int:
    if args.length % 8 != 0:
        raise ConfigError("store files need --length to be a multiple of 8")
    store = MessageStore.random(
        args.messages, args.length, fork_rng(args.seed, "store")
    )
    net.save_store(store, args.store)
    print(f"wrote {args.store}: K={store.K} L={store.L} seed={args.seed}")
    return 0


RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def _render(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}(empty)")
        for key in value:
            child = value[key]
            if isinstance(child, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render(child, indent + 1))
            else:
                lines.extend(_render_leaf(key, child, pad))
    elif isinstance(value, list):
        if not value:
            lines.append(f"{pad}(none)")
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(item, indent + 1))
            else:
                lines.extend(_render_leaf(None, item, pad))
    else:
        lines.extend(_render_leaf(None, value, pad))
    return lines


def _render_leaf(key, value, pad: str) -> list[str]:
    label = f"{key}: " if key is not None else ""
    if isinstance(value, str) and RATIONAL_RE.match(value):
        return [f"{pad}{label}{approx(Fraction(value))}"]
    return [f"{pad}{label}{value}"]


def cmd_report(args) -> int:
    try:
        data = load_json(args.file)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable report {args.file}: {exc}") from exc
    if isinstance(data, dict) and "audits" in data and not data["audits"]:
        print("no audits run")
    for line in _render(data):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipir",
        description="Intermittent private information retrieval toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-lp", help="optimal obfuscation policy via exact LP")
    p.add_argument("--joint", required=True, help="joint distribution JSON file")
    p.add_argument("--servers", type=int, default=2)
    p.add_argument("--lp-cap", type=int, default=DEFAULT_LP_CAP)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_solve_lp)

    p = sub.add_parser("greedy", help="constructive obfuscation policy")
    p.add_argument("--cond", required=True, help="conditional matrix JSON file")
    p.add_argument("--servers", type=int, default=2)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("two-request", help="simulate the two-request protocol")
    p.add_argument("--joint", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--policy", help="policy JSON file")
    group.add_argument("--auto-lp", action="store_true", default=False)
    group.add_argument("--auto-greedy", action="store_true", default=False)
    p.add_argument("--servers", type=int, default=2)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--lp-cap", type=int, default=DEFAULT_LP_CAP)
    p.add_argument("--query-audit", choices=["none", "exact", "empirical"],
                   default="none")
    p.add_argument("--audit-handle", help="write a transcript file for `ipir audit`")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_two_request)

    p = sub.add_parser("simulate-location", help="run the online mechanism")
    p.add_argument("--model", required=True, help="mobility model JSON file")
    p.add_argument("--schedule", required=True, help="privacy schedule JSON file")
    p.add_argument("--servers", type=int, default=2)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--solver", choices=["lp", "greedy"], default="lp")
    p.add_argument("--redact-trace", action="store_true", default=False)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_simulate_location)

    p = sub.add_parser("audit", help="audit a saved transcript")
    p.add_argument("--transcript", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=False)
    mode.add_argument("--empirical", action="store_true", default=False)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("serve", help="serve a replica over TCP")
    p.add_argument("--store", required=True, help="binary store file")
    p.add_argument("--listen", default="127.0.0.1:0")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("upload", help="generate a random store file")
    p.add_argument("--store", required=True, help="output path")
    p.add_argument("--messages", "-K", type=int, required=True)
    p.add_argument("--length", "-L", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_upload)

    p = sub.add_parser("report", help="render a JSON report for humans")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("IPIR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IpirError, OSError) as exc:
        # OSError: a missing or unwritable file, or a port that cannot be bound
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
