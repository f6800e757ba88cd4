"""Exception hierarchy shared across the package."""


class DynqfError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(DynqfError):
    """A symbol is unknown, has the wrong arity, or violates a role constraint."""


class DomainError(DynqfError):
    """An element lies outside the domain of the state it is used with."""


class EvalError(DynqfError):
    """A formula or term could not be evaluated (unbound variable, bad symbol)."""


class ParseError(DynqfError):
    def __init__(self, message: str, line: int, column: int, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.filename = filename


class ProgramError(DynqfError):
    """A dynamic program is ill-formed (missing rules, bad query symbol, ...)."""


class RejectedSequenceError(DynqfError):
    """A modification sequence violated honesty or an instance guard."""

    def __init__(self, message: str, step: int):
        super().__init__(f"step {step}: {message}")
        self.step = step


class ResourceLimitError(DynqfError):
    """An enumeration would exceed a configured cap; carries the offending count."""

    def __init__(self, message: str, count: int):
        super().__init__(f"{message} (would be {count})")
        self.count = count


class GuardError(DynqfError):
    """An attack driver's syntactic class guard is violated."""


class TransformError(DynqfError):
    """A program transformation does not apply to the given program."""
