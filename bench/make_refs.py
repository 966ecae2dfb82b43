"""Write bench/references.json: the digest of every job any seed can draw.

    python3 bench/make_refs.py

Each job runs alone in a fresh client process, so no in-process cache can
carry one job's answer into another.  Run this only at a commit whose
outputs are trusted: the benchmark counts any later difference as a
failure.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from run import BENCH, child, commit, source_identity
from jobs import BS_CACHE_PROBE, WORKLOADS, job_key, universe

WORKERS = 2


def reference(workload: str, job: list) -> str:
    report = child({"workload": workload, "jobs": [job]},
                   time.monotonic() + 600)
    rec = report["jobs"][0]
    if rec["error"] is not None:
        raise RuntimeError(f"{job_key(job)}: {rec['error']}")
    return rec["digest"]


def main() -> int:
    refs = {}
    for workload in WORKLOADS:
        jobs = universe(workload)
        t = time.monotonic()
        with ThreadPoolExecutor(WORKERS) as pool:
            digests = list(pool.map(lambda j: reference(workload, j), jobs))
        refs[workload] = {job_key(j): d for j, d in zip(jobs, digests)}
        print(f"{workload}: {len(jobs)} jobs in {time.monotonic() - t:.1f} s",
              file=sys.stderr)
    # the probe sees a law-blind cache only if its two laws disagree
    fgl_workload = next(w for w, parts in WORKLOADS.items() if "fgl" in parts)
    first, second = (refs[fgl_workload][job_key(j)] for j in BS_CACHE_PROBE)
    if first == second:
        raise RuntimeError("the BS_CACHE_PROBE laws agree on its word")
    refs["_source"] = {"commit": commit(), **source_identity()}
    (BENCH / "references.json").write_text(
        json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
