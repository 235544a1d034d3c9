"""Run the one-shot suite once in a child process and gate its peak RSS.

    python3 .github/suite-peak-rss.py K_MIN K_MAX LIMIT_MB

Runs `relativize suite` from this checkout's src/ at seed 42 and the default
config but `k_range`, writing its reports into a temporary directory, and
prints the child's wall time and peak RSS (getrusage's ru_maxrss, in KiB on
Linux, shown as MB = KiB / 1024). Exits 1 if the suite fails or the peak is
above LIMIT_MB. Standard library only; run from the root of a checkout.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

RUN_SUITE = "import sys; from relativize.harness import main; sys.exit(main(sys.argv[1:]))"


def main(argv):
    k_min, k_max, limit_mb = (int(a) for a in argv)
    src = os.path.join(os.getcwd(), "src")
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"k_range": [k_min, k_max]}, fh)
        start = time.perf_counter()
        status = subprocess.run(
            [sys.executable, "-c", RUN_SUITE, "suite", "--config", config,
             "--out-dir", os.path.join(tmp, "results")],
            env=env, stdout=subprocess.DEVNULL).returncode
        wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"suite k {k_min}..{k_max}: exit {status}, wall {wall:.2f} s, "
          f"peak RSS {peak_mb:.0f} MB (limit {limit_mb} MB)")
    return 0 if status == 0 and peak_mb <= limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
