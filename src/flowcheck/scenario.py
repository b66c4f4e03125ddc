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
from .matching import MatchMode, MatchVerdict, evaluate, explain
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
    return replace(state, endpoints=state.endpoints | {ep}), ep


def create_policy(state, first: Endpoint, second: Endpoint, direction: Direction):
    """Register a new policy over an ordered endpoint pair.

    Returns (state', policy). Raises DuplicatePolicy if a structurally
    equal policy is already deployed.
    """
    policy = Policy(pair=(first, second), direction=direction)
    if policy in state.policies:
        raise DuplicatePolicy(f"policy already exists: {canonical_policy_text(policy)}")
    return replace(state, policies=state.policies | {policy}), policy


def deploy_application(
    state,
    aid: int,
    send_endpoint: Endpoint,
    listen_endpoints=(),
    receive_only: bool = False,
) -> SystemState:
    """Deploy an application and initialize its received-data log.

    Raises DuplicateApplicationId if the id is taken.
    """
    if any(app.app_id == aid for app in state.applications):
        raise DuplicateApplicationId(f"application id {aid} already deployed")
    app = Application(
        app_id=aid,
        send_endpoint=send_endpoint,
        listen_endpoints=frozenset(listen_endpoints),
        receive_only=receive_only,
    )
    app_data = dict(state.app_data)
    app_data[aid] = ()
    return replace(state, applications=state.applications | {app}, app_data=app_data)


def send_data(state, sid: int, rid: int, rep: Endpoint, mode=MatchMode.STRICT, check_listen=False):
    """Send a fresh opaque message from application sid to rid at rep.

    The sender must exist and not be receive-only; the transfer itself is
    checked by transfer_data. Returns (state', verdict).
    """
    sender = next((app for app in state.applications if app.app_id == sid), None)
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
    raised; policy denials carry the explaining verdict on the exception.
    """
    if rep not in state.endpoints:
        raise EndpointUnknown(f"endpoint {describe_endpoint(rep)} is not registered")
    sender = get_application(state, sapp)
    verdict = evaluate(state.policies, sender.send_endpoint, rep, mode)
    if not verdict.allowed:
        raise PolicyViolation(
            f"no policy permits {describe_endpoint(sender.send_endpoint)} -> {describe_endpoint(rep)}",
            verdict=replace(verdict, failed_predicates=explain(state.policies, sender.send_endpoint, rep, mode)),
        )
    receiver = next((app for app in state.applications if app.app_id == rapp), None)
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
    "TransferData"); kind optionally narrows to one error class name.
    """

    violation_of: Optional[str] = None
    kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.violation_of is None

    def matches(self, error: Optional[ContractViolation]) -> bool:
        if error is None:
            return self.ok
        if self.ok:
            return False
        if error.operation != self.violation_of:
            return False
        return self.kind is None or error.kind == self.kind

    def __str__(self):
        if self.ok:
            return "ok"
        if self.kind is None:
            return f"violation:{self.violation_of}"
        return f"violation:{self.violation_of}/{self.kind}"


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
    index: int
    action: str
    expected: str
    actual: str
    matched: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "step_index": self.index,
            "action": self.action,
            "expected": self.expected,
            "actual": self.actual,
            "matched": self.matched,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ScenarioReport:
    """What happened when a scenario ran; passed iff every outcome matched."""

    steps_run: int
    outcomes: tuple[StepOutcome, ...]
    passed: bool
    final_state: SystemState = field(default_factory=new_system, compare=False)

    def to_dict(self) -> dict:
        return {
            "steps_run": self.steps_run,
            "passed": self.passed,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }


def _denial_detail(error: ContractViolation) -> str:
    verdict = getattr(error, "verdict", None)
    if not isinstance(verdict, MatchVerdict):
        return str(error)
    reasons = "; ".join(
        f"{canonical_policy_text(policy)} failed {predicate}"
        for policy, predicate in verdict.failed_predicates
    )
    return str(error) if not reasons else f"{error} [{reasons}]"


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
    passed = True
    for index, step in enumerate(steps):
        error = None
        detail = ""
        try:
            state, detail = _apply_step(state, step, mode, check_listen)
        except ContractViolation as exc:
            error = exc
            detail = _denial_detail(exc)
        actual = "ok" if error is None else f"violation:{error.operation}/{error.kind}"
        matched = step.expected.matches(error)
        outcomes.append(
            StepOutcome(
                index=index,
                action=step.action,
                expected=str(step.expected),
                actual=actual,
                matched=matched,
                detail=detail,
            )
        )
        if not matched:
            passed = False
            break
    return ScenarioReport(
        steps_run=len(outcomes), outcomes=tuple(outcomes), passed=passed, final_state=state
    )
