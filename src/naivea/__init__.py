"""Turn weighted covering witnesses on finite metric spaces into certified subset families."""
from __future__ import annotations

from .chains import (
    INFINITE,
    ChainFamily,
    InstanceParams,
    InstanceReport,
    check_instance,
    l1_norm,
)
from .errors import (
    InternalInvariantError,
    MalformedInputError,
    NaiveAError,
    PreconditionError,
    UnknownPointError,
)
from .generators import gen_instance
from .instance_io import Certificate, Instance, load_instance, load_output, output_to_jsonable
from .space import Space, build_space, rips_components
from .tailor import prepare, run_pipeline
from .verify import verify_certificate, verify_naive

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "Certificate",
    "ChainFamily",
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
    "gen_instance",
    "l1_norm",
    "load_instance",
    "load_output",
    "output_to_jsonable",
    "prepare",
    "rips_components",
    "run_pipeline",
    "verify_certificate",
    "verify_naive",
    "__version__",
]
