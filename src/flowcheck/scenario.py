"""Contract-checked system operations and the scripted scenario runner.

Every operation takes a system state and returns a new one; preconditions
raise ContractViolation subclasses and leave the input state untouched.
A scenario is a sequence of steps, each carrying an expected outcome;
the runner keeps going past expected failures and halts at the first
unexpected one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .errors import (
    ContractViolation,
    DuplicateApplicationId,
    DuplicateEndpoint,
    DuplicatePolicy,
    EndpointUnknown,
    ListenEndpointViolation,
    PolicyViolation,
    ReceiverUnknown,
    SenderReceiveOnly,
    SenderUnknown,
)
from .matching import MatchMode, evaluate
from .model import (
    Application,
    Direction,
    Endpoint,
    Message,
    Policy,
    SystemState,
    canonical_policy_text,
    describe_endpoint,
    get_application,
    new_system,
    normalize_fields,
    replace_validated,
)

ACTIONS = ("create_endpoint", "create_policy", "deploy_application", "send_data")


def create_endpoint(state, cidr=None, namespace=None, port=None, label=None):
    """Register a new endpoint; sentinel field values are normalized away.

    Returns (state', endpoint). Raises DuplicateEndpoint if a structurally
    equal endpoint is already registered.
    """
    cidr, namespace, port, label = normalize_fields(cidr, namespace, port, label)
    ep = Endpoint(cidr=cidr, namespace=namespace, port=port, label=label)
    if ep in state.endpoints:
        raise DuplicateEndpoint(f"endpoint already exists: {describe_endpoint(ep)}")
    return replace_validated(state, endpoints=state.endpoints | {ep}), ep


def create_policy(state, first: Endpoint, second: Endpoint, direction: Direction):
    """Register a new policy over an ordered endpoint pair.

    Returns (state', policy). Raises DuplicatePolicy if a structurally
    equal policy is already deployed.
    """
    policy = Policy(pair=(first, second), direction=direction)
    try:
        policies = state.policies.adding(policy)
    except ValueError:
        raise DuplicatePolicy(f"policy already exists: {canonical_policy_text(policy)}") from None
    return replace_validated(state, policies=policies), policy


def deploy_application(
    state,
    aid: int,
    send_endpoint: Endpoint,
    listen_endpoints=(),
    receive_only: bool = False,
) -> SystemState:
    """Deploy an application; its received-data log starts empty.

    Raises DuplicateApplicationId if the id is taken.
    """
    if aid in state.by_id:
        raise DuplicateApplicationId(f"application id {aid} already deployed")
    app = Application(
        app_id=aid,
        send_endpoint=send_endpoint,
        listen_endpoints=frozenset(listen_endpoints),
        receive_only=receive_only,
    )
    return replace(state, applications=state.applications | {app})


def send_data(state, sid: int, rid: int, rep: Endpoint, mode=MatchMode.STRICT, check_listen=False):
    """Send a fresh opaque message from application sid to rid at rep.

    The sender must exist and not be receive-only; the transfer itself is
    checked by transfer_data. Returns (state', verdict).
    """
    sender = state.by_id.get(sid)
    if sender is None:
        raise SenderUnknown(f"no application with id {sid}")
    if sender.receive_only:
        raise SenderReceiveOnly(f"application {sid} is receive-only and cannot send")
    return transfer_data(state, sid, rid, rep, Message(), mode, check_listen)


def transfer_data(
    state, sapp: int, rapp: int, rep: Endpoint, msg: Message, mode=MatchMode.STRICT, check_listen=False
):
    """Transfer one message if the target endpoint is known and some policy
    permits the flow from the sender's send endpoint to it.

    On allow, the message is appended to the receiver's log (length grows
    by exactly one) and (state', verdict) is returned.  On any failed
    precondition the state is left unchanged and a ContractViolation is
    raised; a policy denial carries the policy set, endpoints and mode it
    was decided on, and explains itself when its verdict is read.
    """
    if rep not in state.endpoints:
        raise EndpointUnknown(f"endpoint {describe_endpoint(rep)} is not registered")
    sender = get_application(state, sapp)
    verdict = evaluate(state.policies, sender.send_endpoint, rep, mode)
    if not verdict.allowed:
        raise PolicyViolation(
            f"no policy permits {describe_endpoint(sender.send_endpoint)} -> {describe_endpoint(rep)}",
            state.policies, sender.send_endpoint, rep, mode,
        )
    receiver = state.by_id.get(rapp)
    if receiver is None:
        raise ReceiverUnknown(f"no application with id {rapp}")
    if check_listen and rep not in receiver.listen_endpoints:
        raise ListenEndpointViolation(
            f"application {rapp} does not listen on {describe_endpoint(rep)}"
        )
    app_data = dict(state.app_data)
    app_data[rapp] = app_data[rapp] + (msg,)
    return replace(state, app_data=app_data), verdict


@dataclass(frozen=True)
class Expectation:
    """Expected step result: success, or a named contract violation.

    violation_of names the operation whose contract must fail (e.g.
    "TransferData").
    """

    violation_of: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.violation_of is None

    def matches(self, error: Optional[ContractViolation]) -> bool:
        if error is None:
            return self.ok
        return error.operation == self.violation_of

    def __str__(self):
        return "ok" if self.ok else f"violation:{self.violation_of}"


EXPECT_OK = Expectation()


@dataclass(frozen=True)
class ScenarioStep:
    """One scripted action with resolved arguments and an expected outcome."""

    action: str
    arguments: Mapping[str, object]
    expected: Expectation = EXPECT_OK

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown scenario action {self.action!r}")
        object.__setattr__(self, "arguments", dict(self.arguments))


@dataclass(frozen=True)
class StepOutcome:
    """One step run: its message and the contract it broke, if any.  A
    policy denial's detail adds every member's failed predicate, read from
    the violation's verdict."""

    index: int
    step: ScenarioStep
    message: str
    error: Optional[ContractViolation] = None

    @property
    def actual(self) -> str:
        return "ok" if self.error is None else f"violation:{self.error.operation}/{self.error.kind}"

    @property
    def matched(self) -> bool:
        return self.step.expected.matches(self.error)

    @property
    def detail(self) -> str:
        if not isinstance(self.error, PolicyViolation):
            return self.message
        reasons = "; ".join(
            f"{canonical_policy_text(policy)} failed {predicate}"
            for policy, predicate in self.error.verdict.failed_predicates
        )
        return f"{self.message} [{reasons}]" if reasons else self.message

    def to_dict(self) -> dict:
        return {
            "step_index": self.index,
            "action": self.step.action,
            "expected": str(self.step.expected),
            "actual": self.actual,
            "matched": self.matched,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ScenarioReport:
    """What happened when a scenario ran: one outcome per step run."""

    outcomes: tuple[StepOutcome, ...]
    final_state: SystemState = field(default_factory=new_system, compare=False)

    @property
    def steps_run(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> bool:
        """Every outcome matched its expectation."""
        return all(outcome.matched for outcome in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "steps_run": self.steps_run,
            "passed": self.passed,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }


def _apply_step(state, step: ScenarioStep, mode: MatchMode, check_listen: bool):
    args = step.arguments
    if step.action == "create_endpoint":
        state, ep = create_endpoint(
            state, args.get("cidr"), args.get("namespace"), args.get("port"), args.get("label")
        )
        return state, f"created {describe_endpoint(ep)}"
    if step.action == "create_policy":
        state, policy = create_policy(state, args["first"], args["second"], args["direction"])
        return state, f"created {canonical_policy_text(policy)}"
    if step.action == "deploy_application":
        state = deploy_application(
            state,
            args["id"],
            args["send"],
            args.get("listen", ()),
            args.get("receive_only", False),
        )
        return state, f"deployed application {args['id']}"
    state, verdict = send_data(
        state, args["from"], args["to"], args["endpoint"], mode, check_listen
    )
    return state, f"allowed by {canonical_policy_text(verdict.matched_policy)}"


def run_scenario(
    steps: Sequence[ScenarioStep],
    mode: MatchMode = MatchMode.STRICT,
    initial_state: Optional[SystemState] = None,
    check_listen: bool = False,
) -> ScenarioReport:
    """Execute steps in order against a fresh (or given) system.

    A step expecting a violation passes iff the operation fails with the
    named contract; execution continues past expected failures and halts
    at the first unexpected outcome.
    """
    state = new_system() if initial_state is None else initial_state
    outcomes = []
    for index, step in enumerate(steps):
        try:
            state, message = _apply_step(state, step, mode, check_listen)
            outcomes.append(StepOutcome(index, step, message))
        except ContractViolation as exc:
            exc.__context__ = None  # keep no frames alive through the outcome
            outcomes.append(StepOutcome(index, step, str(exc), exc.with_traceback(None)))
        if not outcomes[-1].matched:
            break
    return ScenarioReport(outcomes=tuple(outcomes), final_state=state)
