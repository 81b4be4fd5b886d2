"""Run one pipeboost benchmark workload and print its result as a JSON line.

    python3 bench/run.py --workload {train,schedule-est,compare-sim} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports pipeboost from the
checkout's `src/` and works in a scratch directory under `bench/` that it
removes on exit. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it runs one pass untraced and the same pass traced, and reports
the per-layer metrics. It exits with 2 when the checkout has no pipeboost
sources and with 1 when set-up fails. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# One BLAS thread: the estimator's matrices are small, and a second thread
# gave no speed-up on a 2-core machine while it adds run-to-run noise.
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "schedule-est", "compare-sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)  # read when numpy loads
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import pipeboost
    except ImportError as exc:
        print(f"bench: cannot import pipeboost from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(pipeboost.__file__).resolve().is_relative_to(SRC):
        print(f"bench: pipeboost comes from {pipeboost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             work, threads)
    except harness.SetupFailed as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
