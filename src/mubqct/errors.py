"""Exception types shared across the package.

`CapabilityError` has its own CLI exit code, 3.  `ConstraintError` and
`DegenerateModeError` are ValueErrors and exit 1 like any other; they
name which kind of parameter error a caller or test is looking at.
"""


class CapabilityError(RuntimeError):
    """A requested exact computation exceeds the supported problem size."""


class ConstraintError(ValueError):
    """Parameters violate a protocol security constraint."""


class DegenerateModeError(ValueError):
    """A statistics mode is undefined for these parameters (no click mass)."""
