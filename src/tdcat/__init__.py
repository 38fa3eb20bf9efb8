"""tdcat: desk-scale shared-nothing engine for time-domain star catalogs."""

__version__ = "0.1.0"

from .core import (
    EngineConfig,
    EngineError,
    ConfigError,
    DomainError,
    CadenceError,
    SequenceError,
    StorageError,
    InsufficientDataError,
    FrameBatch,
    RECORD_DTYPE,
    TABLE2_COLUMNS,
    mag_to_flux,
    propagate_flux_error,
    radec_to_cartesian,
    zone_of,
)

__all__ = [
    "EngineConfig",
    "EngineError",
    "ConfigError",
    "DomainError",
    "CadenceError",
    "SequenceError",
    "StorageError",
    "InsufficientDataError",
    "FrameBatch",
    "RECORD_DTYPE",
    "TABLE2_COLUMNS",
    "mag_to_flux",
    "propagate_flux_error",
    "radec_to_cartesian",
    "zone_of",
]
