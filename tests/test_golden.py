"""Byte-identity gate: the default-config suite reports are pinned by sha256.

Any change to a construction, a solver, an encoding or a report format that
moves a single byte of runs.csv, runs.jsonl or summary.json fails here; a PR
that changes a format on purpose updates these pins and says so.
"""

import hashlib

from relativize import ExperimentConfig, run_suite

PINNED = {
    "runs.csv": "b7e65032c7fd7433d56ba5a61991789248034acc64213d42fa39b9fc4bfdbbc9",
    "runs.jsonl": "595d238c1ec889deeab2b1ef44601c62af74f92a6b846f9811c946fe0271992a",
    "summary.json": "731792bf0070eb0b3b2beab9198145fd647b863edc33eefd7d3caccaca0a77d3",
}


def test_default_suite_reports_are_byte_identical(tmp_path):
    assert run_suite(ExperimentConfig(out_dir=str(tmp_path))) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED}
    assert digests == PINNED
