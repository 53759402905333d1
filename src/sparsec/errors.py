"""Exception hierarchy shared by all sparsec modules.

Every error raised on a user-facing path derives from SparsecError so the
CLI can catch one type and print a single-line diagnostic; a message that
quotes input quotes it `clip`ped, so that line stays short. Storage
invariants raise MalformedStorage rather than asserting, because storage
can arrive from outside (binary dumps, hand-built arrays) and the checks
must survive `python -O`. Other internal invariant violations use plain
AssertionError: those indicate compiler bugs, not user mistakes.
"""


def clip(text: str, limit: int = 60) -> str:
    """`text` cut to `limit` characters, `...` marking the cut, so that a
    message quoting an input of any size stays one short line."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


class SparsecError(Exception):
    """Base class for all user-facing sparsec errors."""

    @property
    def category(self) -> str:
        return type(self).__name__


class RankMismatch(SparsecError):
    pass


class NotAPermutation(SparsecError):
    pass


class InvalidBitWidth(SparsecError):
    pass


class CoordOutOfBounds(SparsecError):
    pass


class CoordNotInteger(SparsecError):
    """A COO coordinate that is not an integer, such as 1.5."""


class BitWidthOverflow(SparsecError):
    pass


class OutOfOrderInsertion(SparsecError):
    pass


class MalformedStorage(SparsecError):
    """Pointers, indices or values that break a storage-format invariant."""


class DenseOutputTooLarge(SparsecError):
    """A dense output buffer, or the positions the dense levels of a sparse
    format would store, past the element budget."""


class OracleMismatch(SparsecError):
    """A kernel result disagrees with the dense oracle."""


class ParseError(SparsecError):
    """Malformed input: a tensor file, a kernel, a literal or a command
    line. Carries the 1-based line number when known."""

    def __init__(self, reason, line=None):
        self.line = line
        self.reason = reason
        at = f"line {line}: " if line is not None else ""
        super().__init__(f"{at}{reason}")


class UnsupportedField(SparsecError):
    pass


class LengthMismatch(SparsecError):
    pass


class KernelSyntaxError(SparsecError):
    """Bad kernel DSL text; carries (line, column) of the offending token."""

    def __init__(self, reason, line, column):
        self.position = (line, column)
        super().__init__(f"{line}:{column}: {reason}")


class UnknownTensor(SparsecError):
    pass


class UndeclaredIndexVar(SparsecError):
    pass


class UnsupportedKernel(SparsecError):
    pass


class NestingTooDeep(SparsecError):
    """A kernel expression nests past what Python's recursion limit lets
    the parser or the compiler walk."""


class OrderConflict(SparsecError):
    """Loop-order constraints form a cycle, or a given loop order breaks
    them; carries the offending cycle (empty for a given order) and the
    given order (None for a cycle), with the `reason` it is refused. With
    neither, the `reason` is the whole message."""

    def __init__(self, cycle=(), order=None, reason=""):
        self.cycle = tuple(cycle)
        self.order = None if order is None else tuple(order)
        if self.order is not None:
            message = f"loop order {', '.join(self.order)} {reason}"
        elif not self.cycle:
            message = reason
        else:
            chain = " -> ".join(self.cycle + (self.cycle[0],))
            message = (
                f"conflicting dimension orderings force a loop-order cycle {chain}; "
                "convert one operand to a compatible dimension ordering first"
            )
        super().__init__(message)


class ShapeMismatch(SparsecError):
    pass
