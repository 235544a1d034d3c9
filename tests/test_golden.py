"""Byte-identity gate: the suite reports are pinned by sha256, at the default
config and at two more that move the seed, the k range and the order of the
kinds.

Any change to a construction, a solver, an encoding or a report format that
moves a single byte of runs.csv, runs.jsonl or summary.json fails here; a PR
that changes a format on purpose updates these pins and says so. The pins are
also met with the corpus drawn through `random.sample` and every
construction and solver rebound to its per-assignment loop, so they were not
merely recorded from the code they check.
"""

import hashlib

import pytest

from relativize import ExperimentConfig, analog, harness, lambda_report, run_suite

from reference import (
    gen_instances,
    ref_brute_force,
    ref_build_A,
    ref_build_B,
    ref_build_C,
    ref_build_C_bar,
    ref_build_D,
    ref_build_E,
    ref_build_F,
    ref_gen_corpus,
    ref_kappa_ids,
    ref_nd_solve,
    ref_set_sum_naive,
    ref_solve_conp_with_C_bar,
    ref_solve_with_A,
    ref_solve_with_B,
    ref_solve_with_C,
)

PINNED = {
    "runs.csv": "b7e65032c7fd7433d56ba5a61991789248034acc64213d42fa39b9fc4bfdbbc9",
    "runs.jsonl": "595d238c1ec889deeab2b1ef44601c62af74f92a6b846f9811c946fe0271992a",
    "summary.json": "731792bf0070eb0b3b2beab9198145fd647b863edc33eefd7d3caccaca0a77d3",
}

PINNED_SEED_0_K_3_8 = {
    "runs.csv": "369d8d65ed52325874f29b43127b36286f985c952e62135b866158ecf9d74836",
    "runs.jsonl": "aa5c0ae0bc47eb9bb8809b02bd255a95987e47c3c8b37fde96655281591bc7db",
    "summary.json": "5c13a4bc89fd24f37238826870f2bd86c9b088f1ed3e50e9ff24c0dd8ff4649b",
}

PINNED_SEED_7_KINDS_REVERSED = {
    "runs.csv": "01f7d7b4053acf4e3eb1d9299034daa72b3934fc6b10654025281f47db94bfd2",
    "runs.jsonl": "0dfb13251f3127474bbf5b630990594f64b0e5d333b2eb2d0e3c6dd98ef069c5",
    "summary.json": "0914955206e3d432bfc813162538f4d7cca020673f15c06f7358af7a7cf1d0b6",
}

GATES = {
    "default": ({}, PINNED),
    "seed-0-k-3-8": ({"seed": 0, "k_range": (3, 8)}, PINNED_SEED_0_K_3_8),
    "seed-7-kinds-reversed": (
        {"seed": 7, "oracle_kinds": ExperimentConfig().oracle_kinds[::-1]},
        PINNED_SEED_7_KINDS_REVERSED,
    ),
}


def digests(out, **fields) -> dict:
    """Run the suite into `out` and hash its pinned reports."""
    assert run_suite(ExperimentConfig(out_dir=str(out), **fields)) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}


@pytest.mark.parametrize("fields, pinned", list(GATES.values()), ids=list(GATES))
def test_default_suite_reports_are_byte_identical(tmp_path, fields, pinned):
    assert digests(tmp_path, **fields) == pinned


# The suite on the references: each name, in its module, rebound to its loop
# in tests/reference.py. The suite draws its corpus, builds and grades through
# harness's names and runs every solver through analog's.
SUITE_REFERENCES = {
    harness: {"build_A": ref_build_A, "build_B": ref_build_B, "build_C": ref_build_C,
              "build_C_bar": ref_build_C_bar, "build_D": ref_build_D, "build_E": ref_build_E,
              "build_F": ref_build_F, "kappa_ids": ref_kappa_ids,
              "brute_force_sat": ref_brute_force, "gen_corpus": ref_gen_corpus},
    analog: {"nd_solve": ref_nd_solve, "solve_with_A": ref_solve_with_A,
             "solve_with_B": ref_solve_with_B, "solve_with_C": ref_solve_with_C,
             "solve_conp_with_C_bar": ref_solve_conp_with_C_bar},
}

# The battery builds its sets and counts its naive work through analog's names.
BATTERY_REFERENCES = {"build_B": ref_build_B, "build_C": ref_build_C,
                      "build_C_bar": ref_build_C_bar, "build_D": ref_build_D,
                      "build_F": ref_build_F, "set_sum_naive": ref_set_sum_naive}


def test_the_references_give_the_same_reports(tmp_path, monkeypatch):
    """The suite and the battery, rerun with the seeded corpus drawn through
    `random.sample` and every construction, kappa_ids, the ground truth and
    every solver rebound to its per-assignment loop, give the same bytes and
    the same report as the fast paths.

    The two runs still share `Formula`, the crafted corpora, the encodings
    (`input_code`, `partition_code`), `RUN_RULES`, the report writers and
    question 1's solver (`build_lambda_oracle`, `solve_lambda_with_oracle`).
    The loops' transcripts are plain tuples, so the writer takes its generic
    path, not `_scan_chunks`'.
    """
    seed_7 = {"seed": 7, "k_range": (3, 9),
              "oracle_kinds": ExperimentConfig().oracle_kinds[::-1]}
    fast = digests(tmp_path / "fast", **seed_7)
    battery = lambda_report(gen_instances(3, 12))
    for module, references in SUITE_REFERENCES.items():
        for name, reference in references.items():
            monkeypatch.setattr(module, name, reference)
    fields, pinned = GATES["seed-0-k-3-8"]
    assert digests(tmp_path / "seed-0", **fields) == pinned
    assert digests(tmp_path / "seed-7", **seed_7) == fast
    for name, reference in BATTERY_REFERENCES.items():
        monkeypatch.setattr(analog, name, reference)
    assert lambda_report(gen_instances(3, 12)) == battery
