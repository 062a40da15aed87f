"""Exception types shared across the package, and the finiteness check of
the config dataclasses.

Every error raised on a user-facing path derives from DeskRLError so the
command line layer can catch one base class and translate it into a
nonzero exit code.
"""

import dataclasses
import math


class DeskRLError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(DeskRLError):
    """An array had the wrong shape or width for the requested operation."""


class NonFiniteError(DeskRLError):
    """A NaN or infinity showed up where only finite numbers are allowed."""


class ConfigError(DeskRLError):
    """A config file or override could not be parsed or validated."""


class CheckpointNotFoundError(DeskRLError):
    """The requested checkpoint file does not exist."""


class CheckpointIntegrityError(DeskRLError):
    """The checkpoint file is corrupt, truncated, or fails its checksum."""


class CheckpointVersionError(DeskRLError):
    """The checkpoint was written by an unknown format version."""


class ResumeError(DeskRLError):
    """A checkpoint is incompatible with the run trying to resume from it."""


class MetricsOrderError(DeskRLError):
    """An appended metrics record would go backwards in step order."""


class MetricsFormatError(DeskRLError):
    """A complete line of a metrics log does not parse as a record."""


class DemoFormatError(DeskRLError):
    """A demonstration file is corrupt or does not match the environment."""


class EmptyDatasetError(DeskRLError):
    """Filtering left no episodes to train on."""


def require_finite_floats(cfg) -> None:
    """ConfigError for a float field of a dataclass, or a float in a tuple
    field, that is NaN or infinite; range checks alone pass NaN, since every
    comparison with it is false."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {value}")
