"""The asyncio serving layer: batched admission, coalesced writes, committed reads.

See :mod:`repro.service.core` for the serving semantics (write coalescing,
concurrent reads during maintenance, admission control) and
:mod:`repro.service.http` for the transport.  ``python -m repro.service``
starts the stdlib HTTP server.
"""

from repro.service.core import (
    AdmissionLimits,
    CommittedView,
    ServiceError,
    SessionHandle,
    SessionRegistry,
    TenantBudget,
)
from repro.service.http import ServiceApp, serve

__all__ = [
    "AdmissionLimits",
    "CommittedView",
    "ServiceApp",
    "ServiceError",
    "SessionHandle",
    "SessionRegistry",
    "TenantBudget",
    "serve",
]
