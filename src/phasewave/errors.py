"""Exception hierarchy shared by all phasewave modules.

Two top branches matter to callers (and to the CLI exit-code contract):
``ValidationError`` for rejected inputs and ``NumericsError`` for
computations that started but could not be completed reliably.
"""

import os


class PhasewaveError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PhasewaveError, ValueError):
    """Input violates a documented precondition."""


class NumericsError(PhasewaveError, RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


class TruncationError(NumericsError):
    """Fock-space truncation leaked more probability than allowed.

    ``detail`` carries the offending quantity (tail mass, worst column
    index, or last retained term) for diagnostics.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class QuadratureError(NumericsError):
    """A quadrature did not converge within its refinement budget."""

    def __init__(self, message, worst_node=None):
        super().__init__(message)
        self.worst_node = worst_node


class ContainmentError(ValidationError):
    """A sampled field does not contain the state it is asked about."""


def check_rewrite(text: str, chunks) -> None:
    """Refuse a file's ``text`` unless its writer's ``chunks``, compared in place as they
    come, join to it; the refusal names the line and column where the file departs."""
    at = 0
    for chunk in chunks:
        if not text.startswith(chunk, at):
            at += len(os.path.commonprefix([chunk, text[at:at + len(chunk)]]))
            break
        at += len(chunk)
    else:
        if at == len(text):
            return
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    raise ValidationError(f"round-trip re-serialization differs from the file at line "
                          f"{line}, column {column}")
