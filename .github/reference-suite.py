"""Run the default suite (seed 42, k 6..12) on the references and check its
report bytes against the pins.

    python3 .github/reference-suite.py

Rebinds `gen_corpus` to its `random.sample` draw and every construction,
`kappa_ids`, the ground truth and every solver to its per-assignment loop in
tests/reference.py, through the table
`SUITE_REFERENCES` of tests/test_golden.py, runs the suite into a temporary
directory, and prints each report's SHA-256. Exits 1 if the suite fails or a
digest differs from `test_golden.PINNED`. Run from the root of a checkout
with pytest installed (test_golden imports it).
"""

import sys
import tempfile
from pathlib import Path

sys.path[:0] = ["src", "tests"]

from relativize import ExperimentConfig  # noqa: E402
from test_golden import PINNED, SUITE_REFERENCES, digests  # noqa: E402


def main() -> int:
    for module, references in SUITE_REFERENCES.items():
        for name, reference in references.items():
            getattr(module, name)  # a renamed name fails here, not silently
            setattr(module, name, reference)
    with tempfile.TemporaryDirectory() as out:
        try:
            got = digests(Path(out))
        except AssertionError:
            print("the suite failed on the references")
            return 1
    for name, digest in got.items():
        print(name, digest, "ok" if digest == PINNED[name] else f"!= pinned {PINNED[name]}")
    return 0 if got == PINNED else 1


if __name__ == "__main__":
    sys.exit(main())
