"""Exception types shared across the package."""


class RtcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RtcError):
    """Input text does not conform to the grammar; `line` is the 1-based line
    of a multi-line input, where known."""

    def __init__(self, position: int, message: str, line: int | None = None):
        where = f"at offset {position}" if line is None else f"line {line}, offset {position}"
        super().__init__(f"{where}: {message}")
        self.position = position
        self.message = message
        self.line = line


class UnknownSymbol(RtcError):
    pass


class ArityMismatch(RtcError):
    pass


class UnboundVariable(RtcError):
    pass


class SignatureMismatch(RtcError):
    pass


class NotAnRtcFormula(RtcError):
    pass


class BudgetExceeded(RtcError):
    pass


class NoCounterexample(RtcError):
    """The given model/valuation does not invalidate the conclusion."""


class NotApplicable(RtcError):
    """The requested rule or operation does not apply here."""


class SchemaMismatch(RtcError):
    """A rule instance does not fit its rule schema."""


class FreshnessViolation(RtcError):
    def __init__(self, var: str, detail: str = ""):
        super().__init__(f"variable {var!r} is not fresh{': ' + detail if detail else ''}")
        self.var = var


class UnknownTheoryAxiom(RtcError):
    pass


class MissingPairSymbol(RtcError):
    pass


class VariableClash(RtcError):
    pass
