"""Run the one-shot suite once in a child process, gate its peak RSS and
check its report bytes.

    python3 .github/suite-peak-rss.py K_MIN K_MAX LIMIT_MB

Runs `python -m relativize suite` from this checkout's src/ at seed 42 and
the default config but `k_range`, writing its reports into a temporary
directory, and prints the child's wall time and peak RSS (getrusage's
ru_maxrss, in KiB on Linux, shown as MB = KiB / 1024) and the SHA-256 prefix
of each report.
Exits 1 if the suite fails, the peak is above LIMIT_MB, or a report's prefix
differs from the one pinned in REPORT_DIGESTS for (K_MIN, K_MAX); a range
with no pinned digests is only printed. Standard library only; run from the
root of a checkout.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

REPORTS = ("runs.csv", "runs.jsonl", "summary.json")

# (k_min, k_max) -> the first 16 hex digits of each report's SHA-256 at seed 42.
REPORT_DIGESTS = {
    (6, 18): {"runs.csv": "c33a31849b7432a3", "runs.jsonl": "e812e649dbd8b380",
              "summary.json": "28f5ae63fa269814"},
    (6, 20): {"runs.csv": "c39f2be2aa9375d3", "runs.jsonl": "6627bcab8a9d520c",
              "summary.json": "1a07923b095dcc9e"},
}


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def main(argv):
    k_min, k_max, limit_mb = (int(a) for a in argv)
    src = os.path.join(os.getcwd(), "src")
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"k_range": [k_min, k_max]}, fh)
        results = os.path.join(tmp, "results")
        start = time.perf_counter()
        status = subprocess.run(
            [sys.executable, "-m", "relativize", "suite", "--config", config,
             "--out-dir", results],
            env=env, stdout=subprocess.DEVNULL).returncode
        wall = time.perf_counter() - start
        got = {} if status else {name: digest(os.path.join(results, name)) for name in REPORTS}
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"suite k {k_min}..{k_max}: exit {status}, wall {wall:.2f} s, "
          f"peak RSS {peak_mb:.0f} MB (limit {limit_mb} MB)")
    pinned = REPORT_DIGESTS.get((k_min, k_max), {})
    for name, value in got.items():
        want = pinned.get(name)
        print(f"  {name} sha256 {value}: "
              + ("not pinned" if want is None else "ok" if value == want else f"pinned {want}"))
    same = all(pinned.get(name, value) == value for name, value in got.items())
    return 0 if status == 0 and peak_mb <= limit_mb and same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
