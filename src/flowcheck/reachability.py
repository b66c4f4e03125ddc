"""All-pairs flow evaluation over a deployed system."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .matching import MatchMode, MatchVerdict, evaluate
from .model import Endpoint, SystemState, canonical_endpoint_text


@dataclass(frozen=True)
class ReachabilityMatrix:
    """Verdict per (sender id, receiver id, receiver listen endpoint) triple.

    Covers every triple with sender != receiver and a sender that can
    actually send (not receive-only).  The entries of a matrix from
    ``compute_reachability`` iterate ordered by (sender id, receiver id,
    canonical endpoint text), the order the CLI prints them in.
    """

    entries: Mapping[tuple[int, int, Endpoint], MatchVerdict]
    mode: MatchMode

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))


def compute_reachability(state: SystemState, mode: MatchMode) -> ReachabilityMatrix:
    """Evaluate every candidate flow in the system against its policies."""
    applications = sorted(state.applications, key=lambda app: app.app_id)
    listen = {app.app_id: sorted(app.listen_endpoints, key=canonical_endpoint_text) for app in applications}
    entries = {}
    for sender in applications:
        if sender.receive_only:
            continue
        for receiver in applications:
            if receiver.app_id == sender.app_id:
                continue
            for ep in listen[receiver.app_id]:
                entries[(sender.app_id, receiver.app_id, ep)] = evaluate(
                    state.policies, sender.send_endpoint, ep, mode
                )
    return ReachabilityMatrix(entries=entries, mode=mode)
