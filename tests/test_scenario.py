"""System operation contracts and the scenario runner."""

from __future__ import annotations

from dataclasses import replace

import pytest

from flowcheck import (
    Cidr,
    Direction,
    Endpoint,
    DuplicateApplicationId,
    DuplicateEndpoint,
    DuplicatePolicy,
    EndpointUnknown,
    Expectation,
    ListenEndpointViolation,
    MatchMode,
    Message,
    Namespace,
    Policy,
    PolicyViolation,
    ReceiverUnknown,
    ScenarioStep,
    SenderReceiveOnly,
    SenderUnknown,
    create_endpoint,
    create_policy,
    deploy_application,
    new_system,
    run_scenario,
    send_data,
    transfer_data,
)
from oracles import state_fingerprint


def client_webui_state():
    """Client/WebUI setup with an ingress policy admitting the client."""
    state = new_system()
    state, ep1 = create_endpoint(state, Cidr(10, 28, 1, 2, 30), Namespace("-", 0), 0, "")
    state, ep2 = create_endpoint(state, Cidr(0, 0, 0, 0, 0), Namespace("NS-UI", 1), 443, "WebUI")
    state, pol = create_policy(state, ep2, ep1, Direction.INGRESS)
    state = deploy_application(state, 1, ep1, (), False)
    state = deploy_application(state, 2, ep2, {ep2}, True)
    return state, ep1, ep2, pol


def command_asset_state():
    """Command/Asset setup with an egress policy towards the asset block."""
    state = new_system()
    state, ep1 = create_endpoint(state, Cidr(10, 29, 1, 23, 28), Namespace("-", 0), 5443, "")
    state, ep2 = create_endpoint(state, Cidr(0, 0, 0, 0, 0), Namespace("NS-Command", 1), 0, "Command")
    state, pol = create_policy(state, ep2, ep1, Direction.EGRESS)
    state = deploy_application(state, 1, ep1, (), False)
    state = deploy_application(state, 2, ep2, {ep2}, False)
    return state, ep1, ep2, pol


class TestCreateEndpoint:
    def test_adds_normalized_endpoint(self):
        state, ep = create_endpoint(new_system(), Cidr(10, 28, 1, 2, 30), Namespace("-", 0), 0, "")
        assert len(state.endpoints) == 1
        assert ep.cidr == Cidr(10, 28, 1, 2, 30)
        assert ep.namespace is None and ep.port is None and ep.label is None

    def test_duplicate_rejected(self):
        state, _ = create_endpoint(new_system(), Cidr(10, 28, 1, 2, 30))
        with pytest.raises(DuplicateEndpoint):
            create_endpoint(state, Cidr(10, 28, 1, 2, 30))

    def test_duplicate_after_normalization(self):
        state, _ = create_endpoint(new_system(), Cidr(10, 28, 1, 2, 30))
        with pytest.raises(DuplicateEndpoint):
            create_endpoint(state, Cidr(10, 28, 1, 2, 30), Namespace("-", 0), 0, "")

    def test_three_present_fields(self):
        _, ep = create_endpoint(new_system(), None, Namespace("NS-UI", 1), 443, "WebUI")
        assert ep.cidr is None
        assert ep.namespace == Namespace("NS-UI", 1)
        assert (ep.port, ep.label) == (443, "WebUI")


class TestCreatePolicy:
    def test_creates_ingress_pair(self):
        state, ep1, ep2, pol = client_webui_state()
        assert pol.pair == (ep2, ep1)
        assert pol.direction is Direction.INGRESS
        assert pol in state.policies

    def test_duplicate_rejected(self):
        state, ep1, ep2, _ = client_webui_state()
        with pytest.raises(DuplicatePolicy):
            create_policy(state, ep2, ep1, Direction.INGRESS)

    def test_same_pair_other_direction_ok(self):
        state, ep1, ep2, _ = client_webui_state()
        state, pol = create_policy(state, ep2, ep1, Direction.EGRESS)
        assert pol.direction is Direction.EGRESS


class TestDeployApplication:
    def test_deploy_initializes_log(self):
        state, *_ = client_webui_state()
        assert state.app_data[1] == ()
        assert state.app_data[2] == ()

    def test_duplicate_id_rejected(self):
        state, ep1, *_ = client_webui_state()
        with pytest.raises(DuplicateApplicationId):
            deploy_application(state, 1, ep1)

    def test_receive_only_flag_stored(self):
        state, *_ = client_webui_state()
        apps = {a.app_id: a for a in state.applications}
        assert apps[2].receive_only is True
        assert apps[1].receive_only is False


class TestSendData:
    def test_client_flow_application_lookup(self):
        from flowcheck import get_application

        state, *_ = client_webui_state()
        assert get_application(state, 1).send_endpoint.cidr == Cidr(10, 28, 1, 2, 30)

    def test_fresh_system_denies_everything(self):
        # deny-by-default: nothing is transferable right after new_system()
        state, ep = create_endpoint(new_system(), Cidr(10, 0, 0, 1, 32))
        state = deploy_application(state, 1, ep)
        state = deploy_application(state, 2, ep)
        with pytest.raises(PolicyViolation):
            send_data(state, 1, 2, ep)

    def test_allowed_send_grows_log(self):
        state, _, ep2, pol = client_webui_state()
        state, verdict = send_data(state, 1, 2, ep2)
        assert verdict.allowed
        assert verdict.matched_policy == pol
        assert len(state.app_data[2]) == 1

    def test_receive_only_sender_rejected(self):
        state, ep1, ep2, _ = client_webui_state()
        with pytest.raises(SenderReceiveOnly):
            send_data(state, 2, 1, ep1)

    def test_unknown_sender_rejected(self):
        state, _, ep2, _ = client_webui_state()
        with pytest.raises(SenderUnknown):
            send_data(state, 9, 2, ep2)


class TestTransferData:
    def test_command_flow_egress_allowed(self):
        state, ep1, _, _ = command_asset_state()
        state, verdict = send_data(state, 2, 1, ep1)
        assert verdict.allowed
        assert len(state.app_data[1]) == 1

    def test_command_flow_uncovered_target_denied(self):
        state, ep1, ep2, pol = command_asset_state()
        state, ep3 = create_endpoint(
            state, Cidr(0, 0, 0, 0, 0), Namespace("NS-Web", 1), 0, "WebUI"
        )
        with pytest.raises(PolicyViolation) as exc_info:
            send_data(state, 2, 1, ep3)
        verdict = exc_info.value.verdict
        assert not verdict.allowed
        assert len(verdict.failed_predicates) == 1

    def test_unregistered_endpoint(self):
        state, *_ = client_webui_state()
        with pytest.raises(EndpointUnknown):
            transfer_data(state, 1, 2, Endpoint(label="never-created"), Message())

    def test_unknown_receiver(self):
        state, _, ep2, _ = client_webui_state()
        with pytest.raises(ReceiverUnknown):
            transfer_data(state, 1, 9, ep2, Message())

    def test_denied_transfer_leaves_state_unchanged(self):
        state, ep1, ep2, _ = client_webui_state()
        state, ep3 = create_endpoint(state, Cidr(10, 28, 1, 4, 30))
        before = state_fingerprint(state)
        with pytest.raises(PolicyViolation):
            transfer_data(state, 1, 2, ep3, Message())
        assert state_fingerprint(state) == before

    def test_denial_idempotent(self):
        state, *_ = client_webui_state()
        state, ep3 = create_endpoint(state, Cidr(10, 28, 1, 4, 30))
        verdicts = []
        for _ in range(3):
            with pytest.raises(PolicyViolation) as exc_info:
                transfer_data(state, 1, 2, ep3, Message())
            verdicts.append(exc_info.value.verdict)
        assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_check_listen_opt_in(self):
        # the command flow's asset app listens nowhere; the base contract allows
        # the transfer, the opt-in listen check rejects it
        state, ep1, _, _ = command_asset_state()
        _, verdict = send_data(state, 2, 1, ep1)
        assert verdict.allowed
        with pytest.raises(ListenEndpointViolation):
            send_data(state, 2, 1, ep1, check_listen=True)


def client_flow_steps(final_expect=Expectation()):
    ep1 = dict(cidr=Cidr(10, 28, 1, 2, 30), namespace=None, port=None, label=None)
    ep2 = dict(cidr=None, namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
    e1 = Endpoint(cidr=ep1["cidr"])
    e2 = Endpoint(namespace=ep2["namespace"], port=443, label="WebUI")
    pol = Policy(pair=(e2, e1), direction=Direction.INGRESS)
    return [
        ScenarioStep("create_endpoint", ep1),
        ScenarioStep("create_endpoint", ep2),
        ScenarioStep("create_policy", {"first": e2, "second": e1, "direction": Direction.INGRESS}),
        ScenarioStep("deploy_application", {"id": 1, "send": e1, "listen": (), "receive_only": False, "policies": (pol,)}),
        ScenarioStep("deploy_application", {"id": 2, "send": e2, "listen": (e2,), "receive_only": True, "policies": (pol,)}),
        ScenarioStep("send_data", {"from": 1, "to": 2, "endpoint": e2}, final_expect),
    ]


class TestRunScenario:
    def test_client_flow_passes(self):
        report = run_scenario(client_flow_steps(), MatchMode.STRICT)
        assert report.passed
        assert report.steps_run == 6
        assert len(report.final_state.app_data[2]) == 1

    def test_inverted_expectation_fails(self):
        report = run_scenario(
            client_flow_steps(Expectation(violation_of="TransferData")), MatchMode.STRICT
        )
        assert not report.passed
        assert report.steps_run == 6
        assert not report.outcomes[-1].matched

    def test_expected_violation_passes_and_execution_continues(self):
        steps = client_flow_steps()
        dup = ScenarioStep(
            "create_endpoint",
            {"cidr": Cidr(10, 28, 1, 2, 30), "namespace": None, "port": None, "label": None},
            Expectation(violation_of="CreateEndpoint"),
        )
        steps.insert(2, dup)
        report = run_scenario(steps, MatchMode.STRICT)
        assert report.passed
        assert report.steps_run == 7

    def test_halts_on_unexpected_outcome(self):
        steps = client_flow_steps()
        steps[1] = ScenarioStep(
            "create_endpoint",
            {"cidr": Cidr(10, 28, 1, 2, 30), "namespace": None, "port": None, "label": None},
        )
        report = run_scenario(steps, MatchMode.STRICT)
        assert not report.passed
        assert report.steps_run == 2  # halted right after the duplicate

    def test_expectation_kind_narrowing(self):
        exp = Expectation(violation_of="TransferData", kind="PolicyViolation")
        assert exp.matches(PolicyViolation("x")) is True
        assert exp.matches(EndpointUnknown("x")) is False
        assert Expectation(violation_of="TransferData").matches(EndpointUnknown("x")) is True
        assert Expectation().matches(None) is True

    def test_initial_state_preseeded(self):
        # policies installed up front; scenario only deploys and sends
        e1 = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
        e2 = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
        pol = Policy(pair=(e2, e1), direction=Direction.INGRESS)
        state = new_system()
        state, _ = create_endpoint(state, e1.cidr)
        state, _ = create_endpoint(state, None, e2.namespace, e2.port, e2.label)
        state = replace(state, policies=frozenset({pol}))
        steps = [
            ScenarioStep("deploy_application", {"id": 1, "send": e1, "listen": (), "receive_only": False}),
            ScenarioStep("deploy_application", {"id": 2, "send": e2, "listen": (e2,), "receive_only": True}),
            ScenarioStep("send_data", {"from": 1, "to": 2, "endpoint": e2}),
        ]
        report = run_scenario(steps, MatchMode.STRICT, initial_state=state)
        assert report.passed

    def test_report_to_dict_shape(self):
        report = run_scenario(client_flow_steps(), MatchMode.STRICT)
        doc = report.to_dict()
        assert doc["passed"] is True
        assert doc["steps_run"] == 6
        assert [o["action"] for o in doc["outcomes"]][:2] == ["create_endpoint", "create_endpoint"]
