"""Command-line front end.

Three subcommands: ``check`` runs a scenario script against loaded
policies and topology, ``reachability`` prints the all-pairs flow matrix,
``explain`` decides one sender/receiver pair and shows the policy that
allows it or, for a denial, why each policy fails.  Exit codes: 0
success/allowed, 1 expectation mismatch or denied, 2 parse or
configuration errors, 141 when the reader of standard output closed it
early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import FlowcheckError, shown
from .ingest import (
    assemble_state,
    expand_rules,
    parse_cilium_policy,
    parse_decimal,
    parse_endpoint_fields,
    parse_scenario,
    parse_topology,
)
from .matching import MatchMode, evaluate, explain
from .model import (
    Direction,
    Endpoint,
    PolicySet,
    canonical_endpoint_text,
    describe_endpoint,
    endpoint_to_dict,
    policy_to_dict,
)
from .reachability import compute_reachability
from .scenario import run_scenario


def _load(path: str, parse):
    """``parse`` applied to the text of the file at ``path``.

    A file that cannot be read is an error naming it, and an input error
    that ``parse`` raises is prefixed with the path, as warnings are.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FlowcheckError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except FlowcheckError as exc:
        raise FlowcheckError(f"{path}: {exc}") from exc


def _load_policies(paths):
    def expand(path, text):
        doc = parse_cilium_policy(text)
        for warning in doc.warnings:
            print(f"warning: {path}: {warning}", file=sys.stderr)
        return expand_rules(doc)

    return [policy for path in paths for policy in _load(path, lambda text: expand(path, text))]


def _origin_text(policy) -> str:
    return "-" if policy.origin is None else str(policy.origin)


def _policy_json(policy) -> dict:
    data = policy_to_dict(policy)
    if policy.origin is not None:
        data["origin"] = {
            "document": policy.origin.document,
            "rule_index": policy.origin.rule_index,
        }
    return data


def parse_endpoint_spec(spec: str, role: str = "endpoint spec") -> Endpoint:
    """Parse a command-line endpoint: comma-separated key=value pairs.

    Keys: cidr, namespace (NAME or NAME/ID), port, label.
    Example: "namespace=NS-UI,label=WebUI,port=443".  A refusal names the
    spec by ``role`` (sender or receiver), never by its text.
    """
    fields = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise FlowcheckError(f"{role}: bad component {shown(part)}")
        if key in fields:
            raise FlowcheckError(f"{role}: duplicate key {shown(key)}")
        fields[key] = value.strip()
    if "namespace" in fields:
        name, sep, ns_id = fields["namespace"].partition("/")
        if sep:
            fields["namespace"] = {"name": name, "id": parse_decimal(ns_id, f"{role}.namespace.id")}
    if "port" in fields:
        fields["port"] = parse_decimal(fields["port"], f"{role}.port")
    return parse_endpoint_fields(fields, role)


def _ensure_host_cidrs(endpoints, what: str) -> None:
    """Semantic mode matches a single concrete address against policy
    blocks, so application and target endpoints must be /32 hosts; an
    endpoint only policies name may be a block."""
    bad = sorted(
        (ep for ep in endpoints if ep.cidr is not None and ep.cidr.sig_bits != 32),
        key=canonical_endpoint_text,
    )
    if bad:
        rendered = ", ".join(describe_endpoint(ep) for ep in bad)
        raise FlowcheckError(
            f"semantic mode requires /32 host addresses on {what}; offending: {rendered}"
        )


def _application_endpoints(topology) -> set[Endpoint]:
    """The endpoints a ``parse_topology`` result's applications send and listen on."""
    return {ep for app in topology[1] for ep in (app["send"], *app["listen"])}


def cmd_check(args) -> int:
    policies = _load_policies(args.policies)
    topology = None if args.topology is None else _load(args.topology, parse_topology)
    symbols = topology[0] if topology is not None else None
    script = _load(args.scenario, lambda text: parse_scenario(text, symbols=symbols))
    mode = MatchMode(args.mode) if args.mode else (script.mode or MatchMode.STRICT)
    if mode is MatchMode.SEMANTIC:
        _ensure_host_cidrs(script.concrete_endpoints(), "scenario application/target endpoints")
        if topology is not None:
            _ensure_host_cidrs(_application_endpoints(topology), "topology endpoints")
    state, _ = assemble_state(policies, topology)
    report = run_scenario(
        script.steps, mode=mode, initial_state=state, check_listen=args.check_listen
    )
    if args.format == "json":
        doc = report.to_dict()
        doc["mode"] = mode.value
        print(json.dumps(doc, indent=2))
    else:
        for outcome in report.outcomes:
            status = "ok" if outcome.matched else "MISMATCH"
            print(
                f"step {outcome.index} {outcome.step.action}: expected {outcome.step.expected}, "
                f"got {outcome.actual} [{status}] {outcome.detail}"
            )
        print(f"scenario {'PASSED' if report.passed else 'FAILED'} ({report.steps_run} steps run)")
    return 0 if report.passed else 1


def cmd_reachability(args) -> int:
    policies = _load_policies(args.policies)
    topology = _load(args.topology, parse_topology)
    mode = MatchMode(args.mode) if args.mode else MatchMode.STRICT
    if mode is MatchMode.SEMANTIC:
        _ensure_host_cidrs(_application_endpoints(topology), "topology endpoints")
    state, names = assemble_state(policies, topology)
    matrix = compute_reachability(state, mode)

    def app_label(aid: int) -> str:
        return f"{aid}:{names[aid]}" if aid in names else str(aid)

    if args.format == "json":
        entries = []
        for (sid, rid, ep), verdict in matrix.entries.items():
            entry = {
                "sender": sid,
                "receiver": rid,
                "endpoint": endpoint_to_dict(ep),
                "allowed": verdict.allowed,
            }
            if sid in names:
                entry["sender_name"] = names[sid]
            if rid in names:
                entry["receiver_name"] = names[rid]
            if verdict.matched_policy is not None:
                entry["matched_policy"] = _policy_json(verdict.matched_policy)
            entries.append(entry)
        print(json.dumps({"mode": mode.value, "entries": entries}, indent=2))
    else:
        rows = []
        for (sid, rid, ep), verdict in matrix.entries.items():
            rows.append(
                (
                    app_label(sid),
                    app_label(rid),
                    describe_endpoint(ep),
                    "allow" if verdict.allowed else "deny",
                    _origin_text(verdict.matched_policy) if verdict.matched_policy else "-",
                )
            )
        headers = ("sender", "receiver", "endpoint", "verdict", "policy")
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
            for i in range(5)
        ]
        print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        for row in rows:
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        allowed = sum(1 for v in matrix.entries.values() if v.allowed)
        print(f"{allowed} allowed / {len(matrix.entries)} evaluated ({mode.value} mode)")
    return 0


def cmd_explain(args) -> int:
    if args.receiver is None:  # missing, or read by --policies as files
        raise FlowcheckError(
            "explain needs a sender and a receiver endpoint spec: give them before --policies or after --, "
            "since --policies reads every argument up to the next option as a file"
        )
    policies = PolicySet(_load_policies(args.policies))
    sender = parse_endpoint_spec(args.sender, "sender")
    receiver = parse_endpoint_spec(args.receiver, "receiver")
    mode = MatchMode(args.mode) if args.mode else MatchMode.STRICT
    if mode is MatchMode.SEMANTIC:
        _ensure_host_cidrs([sender, receiver], "sender/receiver endpoints")
    verdict = evaluate(policies, sender, receiver, mode)
    # one line per copy: every document a denying rule came from is named
    reasons = () if verdict.allowed else [
        (copy, predicate)
        for policy, predicate in explain(policies, sender, receiver, mode)
        for copy in policies.copies(policy)
    ]

    if args.format == "json":
        doc = {
            "mode": mode.value,
            "sender": endpoint_to_dict(sender),
            "receiver": endpoint_to_dict(receiver),
            "allowed": verdict.allowed,
        }
        if verdict.matched_policy is not None:
            doc["matched_policy"] = _policy_json(verdict.matched_policy)
        doc["failed_predicates"] = [
            {"policy": _policy_json(policy), "predicate": predicate}
            for policy, predicate in reasons
        ]
        print(json.dumps(doc, indent=2))
    else:
        print(f"sender   {describe_endpoint(sender)}")
        print(f"receiver {describe_endpoint(receiver)}")
        if verdict.allowed:
            policy = verdict.matched_policy
            direction = "ingress" if policy.direction is Direction.INGRESS else "egress"
            print(f"[{_origin_text(policy)}] MATCH ({direction})")
            print("ALLOWED")
        else:
            if not reasons:
                print("no policies loaded")
            for policy, predicate in reasons:
                print(f"[{_origin_text(policy)}] FAIL {predicate}")
            print("DENIED")
    return 0 if verdict.allowed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcheck",
        description="Verify data-flow scenarios and reachability against endpoint-pair network policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, topology_required=False):
        p.add_argument("--policies", nargs="*", default=[], metavar="FILE",
                       help="CiliumNetworkPolicy YAML files to load")
        p.add_argument("--mode", choices=["strict", "semantic"],
                       help="matching mode (default: strict)")
        p.add_argument("--format", choices=["table", "json"], default="table",
                       help="output rendering")
        if topology_required is not None:
            p.add_argument("--topology", metavar="FILE", required=topology_required,
                           help="topology YAML file")

    check = sub.add_parser("check", help="run a scenario script")
    add_common(check)
    check.add_argument("--scenario", metavar="FILE", required=True, help="scenario YAML file")
    check.add_argument("--check-listen", action="store_true",
                       help="also require targets to be receiver listen endpoints")
    check.set_defaults(func=cmd_check)

    reach = sub.add_parser("reachability", help="evaluate all candidate flows")
    add_common(reach, topology_required=True)
    reach.set_defaults(func=cmd_reachability)

    explain = sub.add_parser("explain", help="explain one flow decision per policy")
    add_common(explain, topology_required=None)
    # optional to argparse, so that cmd_explain can say where the specs go
    explain.add_argument("sender", nargs="?", help="sender endpoint spec, e.g. cidr=10.28.1.2/32 (required)")
    explain.add_argument("receiver", nargs="?",
                         help="receiver endpoint spec, e.g. namespace=NS-UI,label=WebUI,port=443 (required)")
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except FlowcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left (`| head`).  End quietly with the status a shell
        # gives a process killed by SIGPIPE; stdout is pointed at devnull so
        # the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
