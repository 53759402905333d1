"""Exception hierarchy shared by all sparsec modules.

Every error raised on a user-facing path derives from SparsecError so the
CLI can catch one type and print a single-line diagnostic. Storage
invariants raise MalformedStorage rather than asserting, because storage
can arrive from outside (binary dumps, hand-built arrays) and the checks
must survive `python -O`. Other internal invariant violations use plain
AssertionError: those indicate compiler bugs, not user mistakes.
"""


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
    """A dense output buffer (the dense fallback's too), or the positions
    the dense levels of a sparse format would store, past the element budget."""


class OracleMismatch(SparsecError):
    """A kernel result disagrees with the dense oracle."""


class ParseError(SparsecError):
    """Malformed tensor file; carries the 1-based line number when known."""

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


class OrderConflict(SparsecError):
    """Loop-order constraints form a cycle; carries the offending cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        chain = " -> ".join(self.cycle + (self.cycle[0],))
        super().__init__(
            f"conflicting dimension orderings force a loop-order cycle {chain}; "
            "convert one operand to a compatible dimension ordering first"
        )


class ShapeMismatch(SparsecError):
    pass
