"""Capture the reference outputs of the default seed into reference.json.gz.

Run from the root of a checkout of the commit whose outputs become the
reference::

    python3 bench/capture.py

Dumps are kept as SHA-256 digests of their bytes, other outputs as their
numbers (oracle tables every 10th row).  An output that fails its check
is still captured, since the reference records what the commit prints,
and the failure is reported on stderr.
"""

import gzip
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.checks import CheckError, check_output, fingerprint  # noqa: E402
from bench.jobs import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402
from bench.run import REFERENCE, run_job  # noqa: E402


def main() -> int:
    import pbeseries.cli as cli

    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for job in make_jobs(workload, DEFAULT_SEED):
            ex = run_job(cli, job, keep_text=True)
            if not ex.ok:
                print(f"error: {job.id}: {ex.error}", file=sys.stderr)
                return 1
            try:
                check_output(job, ex.text)
            except CheckError as exc:
                print(f"check failed: {job.id}: {exc}", file=sys.stderr)
            reference[workload][job.id] = fingerprint(job, ex.text)
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, separators=(",", ":")).encode())
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
