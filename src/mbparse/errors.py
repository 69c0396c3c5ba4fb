"""Exception types shared across the package."""


class DomainError(ValueError):
    """A caller violated an operation's contract (bad arity, empty data, ...)."""


class ConfigError(DomainError):
    """A configuration file or option is invalid."""


class CorpusError(Exception):
    """A corpus file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
