"""Turn weighted covering witnesses on finite metric spaces into certified subset families."""
from __future__ import annotations

from .chains import (
    INFINITE,
    ChainFamily,
    InstanceParams,
    InstanceReport,
    check_instance,
    l1_norm,
    meet,
    set_ratio,
    variation_ratio,
)
from .errors import (
    InternalInvariantError,
    MalformedInputError,
    NaiveAError,
    PreconditionError,
    UnknownPointError,
)
from .generators import gen_instance
from .instance_io import Instance, load_instance, load_output, output_to_jsonable
from .space import Space, build_space, rips_components
from .tailor import Certificate, prepare, run_pipeline
from .verify import FlowSuiteSpec, flow_monitor, verify_certificate, verify_naive

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "Certificate",
    "ChainFamily",
    "FlowSuiteSpec",
    "Instance",
    "InstanceParams",
    "InstanceReport",
    "InternalInvariantError",
    "MalformedInputError",
    "NaiveAError",
    "PreconditionError",
    "Space",
    "UnknownPointError",
    "build_space",
    "check_instance",
    "flow_monitor",
    "gen_instance",
    "l1_norm",
    "load_instance",
    "load_output",
    "meet",
    "output_to_jsonable",
    "prepare",
    "rips_components",
    "run_pipeline",
    "set_ratio",
    "variation_ratio",
    "verify_certificate",
    "verify_naive",
    "__version__",
]
