"""Exception hierarchy shared across the toolkit, and `at`, which names the
place of bad input.

ValidationError maps to CLI exit code 1, OrchestrationError and plain
IO/runtime failures map to exit code 2.
"""


class MtforgeError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MtforgeError):
    """Bad input: unknown language tag, schema violation, invalid parameter."""


class at:
    """Context in which bad input names its place: a ValidationError raised
    in `with at(path, f"line {n}"):` leaves it as a ValidationError
    `<path>: line <n>: <message>`. Places nest, the outer one first."""

    __slots__ = ("place",)

    def __init__(self, *place: object):
        self.place = place

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, ValidationError):
            raise ValidationError(": ".join(map(str, (*self.place, exc)))) from None


class OrchestrationError(MtforgeError):
    """A multi-request operation (generation, fusion) could not complete."""
