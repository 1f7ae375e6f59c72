"""Shared exception types."""

from __future__ import annotations


class LambdaSingular(ValueError):
    """Spectral parameter too close to one of the poles at +1 or -1."""


class DeformationOutOfDomain(RuntimeError):
    """A deformed field left the domain on which the functional is defined."""


class ChartMismatch(ValueError):
    """Operation applied on the wrong chart."""


class FieldFileError(ValueError):
    """A file is not a solsurf field file of a format that can be read."""


class MarginExhausted(ValueError):
    """The trust margin of a field leaves no interior grid node."""
