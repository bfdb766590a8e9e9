"""Exception hierarchy shared by all chemfv modules."""


class ChemfvError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ChemfvError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CorruptionError(ChemfvError):
    """A field or state contains non-finite values or violates a scheme invariant."""


class ConfigError(ChemfvError):
    """A configuration file failed to parse or violates a semantic constraint.

    A parse error's message names the offending line, as ``[line  3]: '...'``.
    """
