"""Endpoint-pair network policy modeling, scenario verification and
reachability analysis for Cilium-style policies."""

from .errors import (
    ContractViolation,
    DuplicateApplicationId,
    DuplicateEndpoint,
    DuplicatePolicy,
    EndpointUnknown,
    FlowcheckError,
    IngestError,
    ListenEndpointViolation,
    PolicyViolation,
    ReceiverUnknown,
    SenderReceiveOnly,
    SenderUnknown,
    UnknownApplication,
)
from .ingest import (
    CiliumPolicyDoc,
    Rule,
    ScenarioScript,
    assemble_state,
    expand_rules,
    parse_cilium_policy,
    parse_scenario,
    parse_topology,
)
from .matching import (
    MatchMode,
    MatchVerdict,
    evaluate,
    explain,
)
from .model import (
    Application,
    Cidr,
    Direction,
    Endpoint,
    Message,
    Namespace,
    Policy,
    PolicyOrigin,
    PolicySet,
    SystemState,
    canonical_endpoint_text,
    canonical_policy_text,
    describe_endpoint,
    get_application,
    new_system,
    normalize_fields,
    parse_cidr,
)
from .reachability import ReachabilityMatrix, compute_reachability
from .scenario import (
    ScenarioReport,
    ScenarioStep,
    StepOutcome,
    create_endpoint,
    create_policy,
    deploy_application,
    run_scenario,
    send_data,
    transfer_data,
)

__version__ = "0.1.0"
