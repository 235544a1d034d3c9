"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An assignment's length does not match the problem's literal count."""


class CapacityError(RuntimeError):
    """An exhaustive operation would exceed the enumeration cap (RELATIVIZE_CAP)."""


class ConfigurationError(ValueError):
    """Inputs are individually valid but inconsistent with each other
    (oracle built over a different corpus, corpus shape violation, bad config)."""


class OracleFileError(ValueError):
    """An oracle-set file is malformed or does not match the expected corpus."""
