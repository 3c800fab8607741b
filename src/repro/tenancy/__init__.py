"""Tenancy layer: multi-tenant placement, open-loop arrivals, matrices.

The subsystem behind co-location experiments: a frozen
:class:`WorkloadMap` pins workloads to core groups, arrival processes
shape per-cycle injection rates over time, and traffic matrices pick
destinations per tenant.  Each of the three is a table from names to
factories (``PLACEMENTS``, ``ARRIVALS``, ``MATRICES``).
``experiments/colocation.py`` sweeps all three.
"""

from repro.tenancy.arrivals import (
    ArrivalProcess,
    arrival_names,
    make_arrival,
)
from repro.tenancy.matrices import (
    MatrixContext,
    make_matrix,
    matrix_names,
)
from repro.tenancy.placement import (
    TENANT_ADDRESS_STRIDE,
    TenantSpec,
    WorkloadMap,
    build_placement,
    is_workload_map_dict,
    placement_names,
)

__all__ = [
    "ArrivalProcess",
    "MatrixContext",
    "TENANT_ADDRESS_STRIDE",
    "TenantSpec",
    "WorkloadMap",
    "arrival_names",
    "build_placement",
    "is_workload_map_dict",
    "make_arrival",
    "make_matrix",
    "matrix_names",
    "placement_names",
]
