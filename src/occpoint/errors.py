"""Exception types shared across the pipeline."""


class OccPointError(Exception):
    """Base class for all package errors."""


class InvalidMesh(OccPointError):
    """Mesh fails structural preconditions (no faces, bad indices)."""


class DegenerateMesh(OccPointError):
    """Mesh collapses to a point; normalization is undefined."""


class EmptyCloud(OccPointError):
    """An operation received or produced a point cloud with no points."""


class InvalidInput(OccPointError):
    """Runtime input violates an operation precondition."""


class ShapeError(OccPointError):
    """Array shapes do not match the declared contract."""


class NumericalError(OccPointError):
    """A non-finite value appeared where finite math was required."""


class FormatError(OccPointError):
    """A serialized container is malformed; message carries a byte offset."""


class ConfigError(OccPointError):
    """A configuration value is wrong (of the wrong type or out of its legal
    range), or stored artifacts disagree with each other (e.g. checkpoint vs
    dataset)."""
