"""Every input the CLI reads ends in bounded time with exit 0, 1 or 2.

One hypothesis test per input: the config (read by `suite` and by
`gen-corpus`), corpus, oracle and instance files, and RELATIVIZE_CAP. Each example starts from a valid document and
applies one mutation at one place in it: a key or element dropped or
repeated; a value retyped to a bool, float, string, null or nested list; an
integer of 10^6 digits or of 10^11 (a budget exponent, say); a list of 10^5
zeros; NaN or Infinity; bytes that are not UTF-8; or 10^5-deep nesting. The
command runs through `main()` in process, in a fresh directory, and must
return 0, 1 or 2 within DEADLINE_S, with no exception. A 2 comes with
exactly one `error:` line, shorter than MAX_LINE bytes however long the
wrong value, and it starts with the mutated file's path, or names
RELATIVIZE_CAP when the cap refused the input (a k past it, or the variable
itself).
"""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relativize.harness import main
from relativize.oracles import KINDS

DEADLINE_S = 5.0
MAX_LINE = 512
HUGE = 10**11
MILLION_DIGITS = b"9" * 10**6
DEEP = b"[" * 10**5 + b"]" * 10**5


class Raw(bytes):
    """JSON text written into the document as it is."""


class Pairs(list):
    """A JSON object as its (key, value) pairs, so that a key can repeat."""


def encode(node) -> bytes:
    if isinstance(node, Raw):
        return bytes(node)
    if isinstance(node, dict):
        node = Pairs(node.items())
    if isinstance(node, Pairs):
        return b"{" + b",".join(encode(k) + b":" + encode(v) for k, v in node) + b"}"
    if isinstance(node, list):
        return b"[" + b",".join(map(encode, node)) + b"]"
    return json.dumps(node).encode("ascii")


def places(node, path=()):
    """The path of every value in the document, the root's first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from places(value, path + (key,))
    elif isinstance(node, list):
        for n, value in enumerate(node):
            yield from places(value, path + (n,))


REPLACEMENTS = {
    "bool": lambda v: True,
    "float": lambda v: float(v) if type(v) is int else 0.5,
    "string": json.dumps,
    "null": lambda v: None,
    "nested list": lambda v: [[v]],
    "10^6 digits": lambda v: Raw(MILLION_DIGITS),
    "10^11": lambda v: HUGE,
    "10^5 elements": lambda v: [0] * 10**5,
    "NaN": lambda v: float("nan"),
    "Infinity": lambda v: float("inf"),
    "not UTF-8": lambda v: Raw(b'"\xff\xfe"'),
    "deep nesting": lambda v: Raw(DEEP),
}
MUTATIONS = ("drop", "repeat", *REPLACEMENTS)


def mutate(doc, kind: str, path: tuple) -> bytes:
    """The file text of `doc` with mutation `kind` applied at `path`."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return encode(REPLACEMENTS[kind](doc))
    *head, last = path
    parent = doc
    for step in head:
        parent = parent[step]
    if kind in REPLACEMENTS:
        parent[last] = REPLACEMENTS[kind](parent[last])
    elif kind == "drop":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, parent[last])
    else:  # the key again, right after itself
        pairs = Pairs()
        for key, value in parent.items():
            pairs += [(key, value)] * (1 + (key == last))
        if head:
            grand = doc
            for step in head[:-1]:
                grand = grand[step]
            grand[head[-1]] = pairs
        else:
            doc = pairs
    return encode(doc)


@st.composite
def mutations(draw, doc):
    """A (kind, path) pair: drop and repeat need a key or element to act on."""
    kind = draw(st.sampled_from(MUTATIONS))
    where = list(places(doc))
    return kind, draw(st.sampled_from(where[1:] if kind in ("drop", "repeat") else where))


def run(tmp_path_factory, argv, files=(), cap=None):
    """main(argv) in a fresh directory holding `files` (name, bytes), with
    RELATIVIZE_CAP set to `cap` (unset when None): (status, stderr)."""
    where = tmp_path_factory.mktemp("bad-input")
    for name, data in files:
        (where / name).write_bytes(data)
    old_cwd, old_cap = os.getcwd(), os.environ.pop("RELATIVIZE_CAP", None)
    err = io.StringIO()
    try:
        os.chdir(where)
        if cap is not None:
            os.environ["RELATIVIZE_CAP"] = cap
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            status = main(argv)
        elapsed = time.perf_counter() - start
    finally:
        os.chdir(old_cwd)
        os.environ.pop("RELATIVIZE_CAP", None)
        if old_cap is not None:
            os.environ["RELATIVIZE_CAP"] = old_cap
    assert elapsed < DEADLINE_S, f"{argv} took {elapsed:.1f} s"
    return status, err.getvalue()


def assert_clean_exit(status, err, path):
    assert status in (0, 1, 2)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if status == 2:
        assert len(errors) == 1 and len(errors[0].encode()) < MAX_LINE, err[:MAX_LINE]
        assert (errors[0].startswith(f"error: {path}: ")
                or "RELATIVIZE_CAP" in errors[0]), errors[0]
    else:
        assert errors == []


CONFIG = {"seed": 3, "k_range": [3, 4], "formulas_per_k": 1, "clause_density": 2.0,
          "budget": [1, 2], "oracles": ["A", "B", "C", "C_bar", "D", "E", "F"],
          "out_dir": "out"}
INSTANCES = [{"S": [1, 2, 3], "M": 6}, {"S": [4, 5], "M": 1}, {"S": [7], "M": 7}]
ORACLE_KINDS = ("A", "B", "C", "C_bar", "E", "F")
CONFIG_COMMANDS = {"suite": ["suite", "--config", "config.json"],
                   "gen-corpus": ["gen-corpus", "--config", "config.json", "--out", "corpus.json"]}
# the corpus the corpus and oracle tests start from
CORPUS_CONFIG = ("config.json", encode({"seed": 3, "k_range": [3, 4], "formulas_per_k": 1}))


@cache
def corpus_text() -> bytes:
    return valid_file(CONFIG_COMMANDS["gen-corpus"], "corpus.json", CORPUS_CONFIG)


@cache
def oracle_text(kind: str) -> bytes:
    return valid_file(["build-oracle", "--kind", kind, "--corpus", "corpus.json",
                       "--out", "oracle.json"], "oracle.json", ("corpus.json", corpus_text()))


def valid_file(argv, name, *files) -> bytes:
    """The file `name` that `main(argv)` writes, run apart from any test."""
    with tempfile.TemporaryDirectory() as tmp:
        for other, data in files:
            (Path(tmp) / other).write_bytes(data)
        old = os.getcwd()
        os.chdir(tmp)
        try:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return (Path(tmp) / name).read_bytes()
        finally:
            os.chdir(old)


def test_every_valid_document_runs(tmp_path_factory):
    assert run(tmp_path_factory, ["suite", "--config", "config.json"],
               [("config.json", encode(CONFIG))]) == (0, "")
    for kind in ORACLE_KINDS:
        assert run(tmp_path_factory, ["solve", "--oracle", "oracle.json", "--formula", "1",
                                      "--corpus", "corpus.json"],
                   [("corpus.json", corpus_text()), ("oracle.json", oracle_text(kind))]) == (0, "")
    assert run(tmp_path_factory, ["lambda", "--instances", "instances.json"],
               [("instances.json", encode(INSTANCES))]) == (0, "")


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@given(mutations(CONFIG))
@settings(max_examples=40, deadline=None)
@example(("10^11", ("formulas_per_k",)))
@example(("10^11", ("k_range", 1)))
@example(("repeat", ("oracles", 0)))
@example(("NaN", ("clause_density",)))
def test_config_file(tmp_path_factory, command, mutation):
    status, err = run(tmp_path_factory, CONFIG_COMMANDS[command],
                      [("config.json", mutate(CONFIG, *mutation))])
    assert_clean_exit(status, err, "config.json")


@given(st.sampled_from(KINDS), st.deferred(lambda: mutations(json.loads(corpus_text()))))
@settings(max_examples=60, deadline=None)
@example("D", ("10^11", (3, "budget", 0)))
def test_corpus_file(tmp_path_factory, kind, mutation):
    doc = json.loads(corpus_text())
    status, err = run(tmp_path_factory, ["build-oracle", "--kind", kind, "--corpus",
                                         "corpus.json", "--out", "oracle.json"],
                      [("corpus.json", mutate(doc, *mutation))])
    assert_clean_exit(status, err, "corpus.json")


@given(st.sampled_from(ORACLE_KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), mutations(json.loads(oracle_text(kind))))))
@settings(max_examples=60, deadline=None)
@example(("A", ("10^6 digits", ("corpus_ids", 0))))
@example(("A", ("10^11", ("corpus_ids", 0))))
def test_oracle_file(tmp_path_factory, case):
    kind, mutation = case
    doc = json.loads(oracle_text(kind))
    status, err = run(tmp_path_factory, ["solve", "--oracle", "oracle.json", "--formula", "1",
                                         "--corpus", "corpus.json"],
                      [("corpus.json", corpus_text()), ("oracle.json", mutate(doc, *mutation))])
    assert_clean_exit(status, err, "oracle.json")


@given(mutations(INSTANCES))
@settings(max_examples=50, deadline=None)
def test_instance_file(tmp_path_factory, mutation):
    status, err = run(tmp_path_factory, ["lambda", "--instances", "instances.json"],
                      [("instances.json", mutate(INSTANCES, *mutation))])
    assert_clean_exit(status, err, "instances.json")


CAP = "12"
CAP_VALUES = {
    "drop": None,
    "repeat": CAP * 2,
    "bool": "true",
    "float": "12.0",
    "string": json.dumps(CAP),
    "null": "null",
    "nested list": f"[[{CAP}]]",
    "10^6 digits": MILLION_DIGITS.decode(),
    "10^11": str(HUGE),
    "10^5 elements": json.dumps([0] * 10**5),
    "NaN": "NaN",
    "Infinity": "Infinity",
    "not UTF-8": os.fsdecode(b"\xff\xfe"),
    "deep nesting": DEEP.decode(),
}
CAP_COMMANDS = {
    "gen-corpus": CONFIG_COMMANDS["gen-corpus"],
    "build-oracle": ["build-oracle", "--kind", "C", "--corpus", "corpus.json",
                     "--out", "oracle.json"],
    "lambda": ["lambda", "--instances", "instances.json"],
}


@given(st.sampled_from(sorted(CAP_VALUES)), st.sampled_from(sorted(CAP_COMMANDS)))
@settings(max_examples=40, deadline=None)
@example("10^6 digits", "gen-corpus")
@example("deep nesting", "lambda")
def test_cap(tmp_path_factory, kind, command):
    files = [CORPUS_CONFIG, ("corpus.json", corpus_text()), ("instances.json", encode(INSTANCES))]
    status, err = run(tmp_path_factory, CAP_COMMANDS[command], files, CAP_VALUES[kind])
    assert status in (0, 1, 2)
    if status == 2:
        assert err.count("error:") == 1 and err.startswith("error: RELATIVIZE_CAP "), err[:200]
        assert len(err) < 200, err[:200]


def test_a_zero_padded_cap_is_read(tmp_path_factory):
    status, err = run(tmp_path_factory, CAP_COMMANDS["gen-corpus"], [CORPUS_CONFIG],
                      "0" * 10**6 + "3")
    assert status == 2 and err.startswith("error: k=4 exceeds the enumeration cap of 3")
