"""Exception types shared across the package, and the key check every input
file's objects pass."""


class DimensionError(ValueError):
    """An assignment's length does not match the problem's literal count."""


class CapacityError(RuntimeError):
    """An exhaustive operation would exceed the enumeration cap (RELATIVIZE_CAP)."""


class ConfigurationError(ValueError):
    """Inputs are individually valid but inconsistent with each other
    (oracle built over a different corpus, corpus shape violation, bad config)."""


class OracleFileError(ValueError):
    """An oracle-set file is malformed or does not match the expected corpus."""


def check_keys(doc, where: str, required: tuple, optional: tuple = (),
               error: type[ValueError] = ConfigurationError) -> None:
    """Refuse `doc`, raising `error` with a message that starts with `where`,
    unless it is a JSON object holding every key of `required` and no key
    outside `required` and `optional`: a misspelt optional key would
    otherwise be ignored."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected an object with keys {list(required)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise error(f"{where}: missing keys {missing}")
    unknown = sorted(set(doc) - {*required, *optional})
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
