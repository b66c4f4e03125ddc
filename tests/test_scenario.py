"""System operation contracts and the scenario runner."""

from __future__ import annotations

from dataclasses import replace

import pytest

from flowcheck import matching
from flowcheck import (
    Cidr,
    Direction,
    Endpoint,
    DuplicateApplicationId,
    DuplicateEndpoint,
    DuplicatePolicy,
    EndpointUnknown,
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
    StepOutcome,
    canonical_policy_text,
    create_endpoint,
    create_policy,
    deploy_application,
    explain,
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

    def test_a_write_hashes_the_policy_twice(self, monkeypatch):
        # PolicySet.adding tests membership and inserts; a hash walks the
        # policy's whole dataclass tree, so create_policy adds no third one
        state, ep1, ep2, pol = client_webui_state()
        hashed = []
        policy_hash = Policy.__hash__

        def counting_hash(policy):
            hashed.append(policy)
            return policy_hash(policy)

        monkeypatch.setattr(Policy, "__hash__", counting_hash)
        create_policy(state, ep2, ep1, Direction.EGRESS)
        assert len(hashed) == 2
        with pytest.raises(DuplicatePolicy) as exc:
            create_policy(state, ep2, ep1, Direction.INGRESS)
        assert str(exc.value) == f"policy already exists: {canonical_policy_text(pol)}"

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

    def test_a_denial_makes_two_lookups(self, monkeypatch):
        # evaluate looks the flow up; the denial is explained only when its
        # verdict is read, and explain reads the forward answer from the
        # table rows and looks up only the reversed flow
        state, ep1, *_ = client_webui_state()
        lookups = []
        permitting = matching.permitting
        monkeypatch.setattr(matching, "permitting", lambda *args: lookups.append(args) or permitting(*args))
        with pytest.raises(PolicyViolation) as denied:
            send_data(state, 1, 2, ep1)
        assert len(lookups) == 1
        denied.value.verdict
        assert len(lookups) == 2
        denied.value.verdict
        assert len(lookups) == 2


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


def client_flow_steps(final_expect="ok"):
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
            client_flow_steps("violation:TransferData"), MatchMode.STRICT
        )
        assert not report.passed
        assert report.steps_run == 6
        assert not report.outcomes[-1].matched

    def test_expected_violation_passes_and_execution_continues(self):
        steps = client_flow_steps()
        dup = ScenarioStep(
            "create_endpoint",
            {"cidr": Cidr(10, 28, 1, 2, 30), "namespace": None, "port": None, "label": None},
            "violation:CreateEndpoint",
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
        def matched(expected, error):
            return StepOutcome(0, ScenarioStep("send_data", {}, expected), "", error).matched

        assert matched("violation:TransferData", EndpointUnknown("x")) is True
        assert matched("ok", None) is True
        assert matched("violation:TransferData", DuplicateEndpoint("x")) is False

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

    def test_report_outcomes_to_dict_shape(self):
        report = run_scenario(client_flow_steps(), MatchMode.STRICT)
        outcomes = [o.to_dict() for o in report.outcomes]
        assert report.passed is True
        assert report.steps_run == 6
        assert [o["action"] for o in outcomes][:2] == ["create_endpoint", "create_endpoint"]


# client -> webui is denied until the second policy is written; the first
# admits another client block
CLIENT = Endpoint(cidr=Cidr(10, 28, 1, 2, 30))
OTHER_CLIENT = Endpoint(cidr=Cidr(10, 28, 1, 8, 30))
WEBUI = Endpoint(namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
DENIED = "violation:TransferData"


def denied_sends(count):
    return [
        ScenarioStep("create_endpoint", {"cidr": CLIENT.cidr}),
        ScenarioStep("create_endpoint", {"namespace": WEBUI.namespace, "port": 443, "label": "WebUI"}),
        ScenarioStep("create_policy", {"first": WEBUI, "second": OTHER_CLIENT, "direction": Direction.INGRESS}),
        ScenarioStep("deploy_application", {"id": 1, "send": CLIENT}),
        ScenarioStep("deploy_application", {"id": 2, "send": WEBUI, "listen": (WEBUI,)}),
        *[ScenarioStep("send_data", {"from": 1, "to": 2, "endpoint": WEBUI}, DENIED)] * count,
    ]


def denied_then_permitted():
    return [
        *denied_sends(1),
        ScenarioStep("create_policy", {"first": WEBUI, "second": CLIENT, "direction": Direction.INGRESS}),
        ScenarioStep("send_data", {"from": 1, "to": 2, "endpoint": WEBUI}),
    ]


def counted(monkeypatch, name, *modules):
    """The argument tuples of every call to matching.<name>, however the
    module holding the name calls it."""
    calls = []
    original = getattr(matching, name)
    for module in (matching, *modules):
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


class TestDeferredDenials:
    def test_running_a_script_explains_no_denial(self, monkeypatch):
        explains = counted(monkeypatch, "explain")
        lookups = counted(monkeypatch, "permitting")
        report = run_scenario(denied_sends(3))
        assert report.passed and report.steps_run == 8
        assert explains == []
        assert len(lookups) == 3  # one per denied send

    def test_reading_the_details_explains_each_denial_once(self, monkeypatch):
        report = run_scenario(denied_sends(3))
        explains = counted(monkeypatch, "explain")
        doc = [o.to_dict() for o in report.outcomes]
        assert len(explains) == 3
        assert [o.to_dict() for o in report.outcomes] == doc
        assert len(explains) == 3

    def test_a_denial_is_explained_on_the_set_it_was_decided_on(self):
        report = run_scenario(denied_then_permitted())
        assert report.passed and len(report.final_state.policies) == 2
        # the text the detail had when it was built at the denial
        assert report.outcomes[5].detail == (
            "no policy permits (cidr=10.28.1.2/30) -> (namespace=NS-UI, port=443, label=WebUI) "
            '[{"direction":0,"first":{"label":"WebUI","namespace":{"id":1,"name":"NS-UI"},"port":443},'
            '"second":{"cidr":"10.28.1.8/30"}} failed sender.cidr]'
        )
        assert report.outcomes[7].detail.startswith("allowed by ")

    def test_a_violation_explains_the_set_it_was_decided_on(self):
        state = run_scenario(denied_sends(0)).final_state
        with pytest.raises(PolicyViolation) as denied:
            send_data(state, 1, 2, WEBUI)
        later, _ = create_policy(state, WEBUI, CLIENT, Direction.INGRESS)
        assert send_data(later, 1, 2, WEBUI)[1].allowed
        verdict = denied.value.verdict
        assert not verdict.allowed
        assert verdict.failed_predicates == explain(state.policies, CLIENT, WEBUI, MatchMode.STRICT)
        assert [predicate for _, predicate in verdict.failed_predicates] == ["sender.cidr"]
        assert denied.value.verdict is verdict

    def test_a_detail_and_its_verdict_share_one_explanation(self, monkeypatch):
        outcome = run_scenario(denied_sends(1)).outcomes[-1]
        explains = counted(monkeypatch, "explain")
        assert outcome.detail.startswith(str(outcome.error) + " [")
        verdict = outcome.error.verdict
        assert len(explains) == 1
        assert outcome.detail.endswith(" failed sender.cidr]") and outcome.error.verdict is verdict
        assert len(explains) == 1

    def test_an_outcome_verdict_is_explained_on_the_set_it_was_decided_on(self):
        report = run_scenario(denied_then_permitted())
        assert report.passed and report.outcomes[-1].error is None
        denial = report.outcomes[5].error
        assert isinstance(denial, PolicyViolation) and len(denial.policies) == 1
        assert denial.verdict.failed_predicates == explain(denial.policies, CLIENT, WEBUI, MatchMode.STRICT)
        assert denial.verdict.failed_predicates != explain(
            report.final_state.policies, CLIENT, WEBUI, MatchMode.STRICT
        )

    def test_an_outcome_keeps_no_traceback_or_context(self):
        # a DuplicatePolicy is raised while handling PolicySet.adding's ValueError
        steps = denied_sends(1)
        steps[3:3] = [
            ScenarioStep("create_endpoint", {"cidr": CLIENT.cidr}, "violation:CreateEndpoint"),
            ScenarioStep("create_policy", {"first": WEBUI, "second": OTHER_CLIENT, "direction": Direction.INGRESS},
                         "violation:CreatePolicy"),
        ]
        report = run_scenario(steps)
        assert report.passed
        errors = [outcome.error for outcome in report.outcomes if outcome.error is not None]
        assert [type(error) for error in errors] == [DuplicateEndpoint, DuplicatePolicy, PolicyViolation]
        for error in errors:
            assert error.__traceback__ is None and error.__context__ is None


class TestWritesHandTheirTablesOn:
    @pytest.mark.parametrize("mode", [MatchMode.STRICT, MatchMode.SEMANTIC])
    def test_writes_between_sends_build_no_table(self, mode, inserted_rows):
        # 4 rounds of 5 writes and a denied send, then the permitting write
        # and an allowed send: every state's set shares one lineage, and its
        # table gets each member's row once, whichever send reads it first
        writes = [
            ScenarioStep("create_policy", {"first": WEBUI, "second": Endpoint(cidr=Cidr(10, 28, 2, 4 * i, 30)),
                                           "direction": Direction.INGRESS})
            for i in range(20)
        ]
        send = ScenarioStep("send_data", {"from": 1, "to": 2, "endpoint": WEBUI}, DENIED)
        steps = denied_sends(1)
        for start in range(0, 20, 5):
            steps += [*writes[start:start + 5], send]
        report = run_scenario(steps + denied_then_permitted()[-2:], mode)
        assert report.passed and report.outcomes[-1].actual == "ok"
        assert len(report.final_state.policies) == 22
        [o.to_dict() for o in report.outcomes]  # explains each denial on the older set it was decided on
        assert inserted_rows.one_per_member(report.final_state.policies, mode)

    @pytest.mark.parametrize("mode", [MatchMode.STRICT, MatchMode.SEMANTIC])
    def test_writes_and_denied_sends_compute_no_canonical_text(self, mode):
        # growing a table reads no canonical order: 2 rounds of 10 library
        # writes and a denied send leave every member's text uncomputed
        state, client = create_endpoint(new_system(), Cidr(10, 28, 1, 2, 32))
        state, webui = create_endpoint(state, namespace=Namespace("NS-UI", 1), port=443, label="WebUI")
        state = deploy_application(deploy_application(state, 1, client), 2, webui, {webui})
        for i in range(20):
            state, _ = create_policy(state, webui, Endpoint(cidr=Cidr(10, 28, 2, 4 * i, 30)), Direction.INGRESS)
            if i % 10 == 9:
                with pytest.raises(PolicyViolation):
                    send_data(state, 1, 2, webui, mode)
        assert len(state.policies) == 20
        assert all("canonical_text" not in vars(policy) for policy in state.policies)


def test_an_unknown_action_is_refused():
    with pytest.raises(ValueError, match="^unknown scenario action 'fly'$"):
        ScenarioStep("fly", {})
