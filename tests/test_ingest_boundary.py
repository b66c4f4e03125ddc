"""Exact warnings for unknown policy keys."""

from __future__ import annotations

from flowcheck import parse_cilium_policy

# one unknown key at each of the eight policy nodes, two at spec
NOISY_POLICY = """\
apiVersion: cilium.io/v2
kind: CiliumNetworkPolicy
metadata: {name: Noisy, namespace: NS-X}
spec:
  endpointSelector:
    matchLabels: {app: X}
    matchExpressions: []
  ingress:
    - fromCIDRSet:
        - cidr: 10.0.0.0/24
          except: []
      fromEndpoints:
        - matchLabels: {app: Y}
          matchExpressions: []
      toPorts:
        - ports:
            - port: "80"
              protocol: TCP
          rules: {}
      fromEntities: [world]
  egress:
    - toCIDRSet:
        - cidr: 10.1.0.0/16
      toFQDNs: []
  ingressDeny: []
  egressDeny: []
"""


def test_unknown_key_warnings_exact():
    assert parse_cilium_policy(NOISY_POLICY).warnings == (
        "spec: unknown key 'ingressDeny'",
        "spec: unknown key 'egressDeny'",
        "spec.endpointSelector: unknown key 'matchExpressions'",
        "spec.ingress[0]: unknown key 'fromEntities'",
        "spec.ingress[0].fromCIDRSet[0]: unknown key 'except'",
        "spec.ingress[0].fromEndpoints[0]: unknown key 'matchExpressions'",
        "spec.ingress[0].toPorts[0]: unknown key 'rules'",
        "spec.ingress[0].toPorts[0].ports[0]: unknown key 'protocol'",
        "spec.egress[0]: unknown key 'toFQDNs'",
    )
