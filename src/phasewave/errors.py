"""Exception hierarchy shared by all phasewave modules.

Two top branches matter to callers (and to the CLI exit-code contract):
``ValidationError`` for rejected inputs and ``NumericsError`` for
computations that started but could not be completed reliably.  Two text
helpers serve every writer and reader: ``json_chunks`` writes a JSON object
a block at a time, and ``check_rewrite`` compares a file with its writer's chunks.
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


def json_chunks(head: dict, key: str, blocks):
    """The text of ``json.dumps({**head, key: items})`` and a newline, one chunk per
    block of the items in ``blocks``: json.dumps separates list items by ", ", so each
    block can follow the text that opens the list as the inside of its own list."""
    import json

    yield json.dumps({**head, key: []})[:-2]
    for i, block in enumerate(blocks):
        yield (", " if i else "") + json.dumps(block)[1:-1]
    yield "]}\n"


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
