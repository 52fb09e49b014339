"""Serving layer: multi-tenant gateway + client SDK (DESIGN.md §8).

The serving package turns the single-program runtime into a long-lived
service.  :class:`Gateway` accepts task-graph submissions from many
concurrent TCP clients, isolates each tenant's data and ATM namespace,
admits work fairly (weighted deficit round-robin over a bounded pending
pool), and optionally lets tenants share memoized results through an
incrementally merged THT tier.  :class:`GatewayClient` is the synchronous
SDK mirroring the Session submission surface.
"""

from repro.serving.client import GatewayClient
from repro.serving.gateway import Gateway

__all__ = [
    "Gateway",
    "GatewayClient",
]
