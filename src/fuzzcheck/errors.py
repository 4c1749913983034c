"""Exception hierarchy shared by all checkers."""


class FuzzcheckError(Exception):
    """Base class for all library errors."""


class CarrierMismatchError(FuzzcheckError):
    """Two fuzzy sets that must share a carrier do not."""


class DominationError(FuzzcheckError):
    """Any violated precondition; carries its witness, if it has one."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceCapError(FuzzcheckError):
    """A configured resource cap (e.g. topology closure size) was exceeded."""


class ParseError(FuzzcheckError):
    """Input file could not be parsed; names file, line and what was expected."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no
        self.message = message
