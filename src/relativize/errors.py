"""Exception types shared across the package, the reader every input file
goes through, and the key check its objects pass."""

import json


class DimensionError(ValueError):
    """An assignment's length does not match the problem's literal count."""


class CapacityError(RuntimeError):
    """An exhaustive operation would exceed the enumeration cap (RELATIVIZE_CAP)."""


class ConfigurationError(ValueError):
    """Inputs are individually valid but inconsistent with each other
    (oracle built over a different corpus, corpus shape violation, bad config)."""


class OracleFileError(ValueError):
    """An oracle-set file is malformed or does not match the expected corpus."""


def read_json(path, error: type[ValueError] = ConfigurationError):
    """The JSON document in the UTF-8 file at `path`. A file that does not
    parse (not UTF-8, not JSON, an int past the digit limit, or nested too
    deep for the parser), or that has an object repeating a key, raises
    `error` with a message that starts with `path`: the parser alone would
    keep a repeated key's last value."""

    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise error(f"{path}: repeated key {key!r} in a JSON object")
        return doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except error:
        raise
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not readable as UTF-8 JSON ({exc})") from exc


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
