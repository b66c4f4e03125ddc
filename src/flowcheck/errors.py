"""Exception hierarchy shared across the package.

Operation preconditions raise ``ContractViolation`` subclasses; each class
pins the name of the operation whose contract it guards, so scenario
expectations can match failures by operation and kind rather than by
message text.
"""


class FlowcheckError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(FlowcheckError):
    """A state operation was invoked with its precondition unsatisfied."""

    #: name of the guarded operation, e.g. "TransferData"
    operation = "?"

    @property
    def kind(self) -> str:
        return type(self).__name__


class UnknownApplication(ContractViolation):
    operation = "GetApplication"


class DuplicateEndpoint(ContractViolation):
    operation = "CreateEndpoint"


class DuplicatePolicy(ContractViolation):
    operation = "CreatePolicy"


class DuplicateApplicationId(ContractViolation):
    operation = "DeployApplication"


class SenderUnknown(ContractViolation):
    operation = "SendData"


class SenderReceiveOnly(ContractViolation):
    operation = "SendData"


class ReceiverUnknown(ContractViolation):
    operation = "TransferData"


class EndpointUnknown(ContractViolation):
    operation = "TransferData"


class PolicyViolation(ContractViolation):
    """No deployed policy permits the attempted transfer."""

    operation = "TransferData"

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class ListenEndpointViolation(ContractViolation):
    """Target endpoint is not among the receiver's listen endpoints.

    Only raised when the optional listen check is switched on; the base
    transfer contract does not require it.
    """

    operation = "TransferData"


class ContainmentUndefined(FlowcheckError):
    """CIDR containment asked for an address wider than the block."""


class IngestError(FlowcheckError):
    """Base class for document parsing failures."""


class MalformedYaml(IngestError):
    pass


class UnsupportedApiVersion(IngestError):
    pass


class UnsupportedKind(IngestError):
    pass


class InvalidCidrString(IngestError):
    pass


class InvalidPort(IngestError):
    pass


class EmptyExpansion(IngestError):
    pass


class UnknownEndpointReference(IngestError):
    pass


class DuplicateSymbol(IngestError):
    pass
