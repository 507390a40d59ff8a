"""Exception hierarchy shared across the toolkit.

ValidationError maps to CLI exit code 1, OrchestrationError and plain
IO/runtime failures map to exit code 2.
"""


class MtforgeError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MtforgeError):
    """Bad input: unknown language tag, schema violation, invalid parameter."""


class SchemaError(ValidationError):
    """A corpus or config record violates its schema.

    Raised while parsing a file, the message starts with the (1-based) line
    number, and before it the path when one is given.
    """

    def __init__(self, message: str, line: int | None = None, path: object = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class OrchestrationError(MtforgeError):
    """A multi-request operation (generation, fusion) could not complete."""
