"""Exception types shared across the package."""


class RtcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RtcError):
    """Input text does not conform to the grammar or to its signature, a
    symbol fault too, read from a goal or a file alike; `position` is the
    offset of the fault and `line` the 1-based line of a multi-line input,
    where known."""

    def __init__(self, position: int | None, message: str, line: int | None = None):
        if position is None:
            where = ""
        elif line is None:
            where = f"at offset {position}: "
        else:
            where = f"line {line}, offset {position}: "
        super().__init__(where + message)
        self.position = position
        self.message = message
        self.line = line


class UnboundVariable(RtcError):
    pass


class SignatureMismatch(RtcError):
    pass


class BudgetExceeded(RtcError):
    pass


class NotApplicable(RtcError):
    """The requested rule or operation does not apply here."""


class SchemaMismatch(RtcError):
    """A rule instance does not fit its rule schema."""


class FreshnessViolation(RtcError):
    def __init__(self, var: str, detail: str):
        super().__init__(f"variable {var!r} is not fresh: {detail}")
        self.var = var


class UnknownTheoryAxiom(RtcError):
    pass

