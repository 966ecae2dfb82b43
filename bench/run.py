"""The flagcalc benchmark.

    python3 bench/run.py --workload family_hecke --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Workloads: family_hecke and fgl_locus
(see BENCHMARK.json for why each is there).  A pass is one closed-loop
client in a fresh child process (bench/client.py), so module-level caches
start cold; passes run one after another, never overlapping.  Every job's
canonical text is digested and compared with bench/references.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  The run makes
a fixed number of passes per workload, sized so that they fit in the
run_seconds of BENCHMARK.json; another --seconds scales that number.
Times are CPU time scaled to a core of fixed speed (see bench/client.py).
Each job's latency is the median over the passes; run_s is the sum of
these latencies, and job_p50_ms and job_tail_ms are taken from them.
setup_s is the median of at least eleven set-ups and peak_rss_mib the
median over the passes.

--trace 1 runs one untraced pass and two traced passes, reports the
per-layer metrics, writes the spans to .bench_out/ and checks that every
count repeats exactly.

The last line of stdout is the JSON result; the line before it holds the
run's metadata (seed, Python version, nproc, commit, src/ line count, and
on fgl_locus whether the known families._BS_CACHE defect shows; see
jobs.BS_CACHE_PROBE).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from jobs import BS_CACHE_PROBE, WORKLOADS, generate, job_key  # noqa: E402

# the whole run, children included, ends before this; a longer --seconds
# makes more passes, so it gets a longer limit
RUN_LIMIT_S = 170
# passes per --trace 0 run of run_seconds; fixed, so that the
# median-of-passes latencies mean the same on every commit
PASSES = {"family_hecke": 4, "fgl_locus": 5}
MIN_SETUPS = 11
TAIL_BEYOND = 10       # jobs beyond the reported tail percentile


class BenchError(RuntimeError):
    pass


def child(request: dict, deadline: float) -> dict:
    """Run one client to completion and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    # byte code goes to a cache inside the checkout, written by the warm-up
    # client, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "client.py")],
            input=json.dumps(request), capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(jobs: list, report: dict, refs: dict) -> list:
    """The jobs whose output is missing or differs from the reference
    digest, each with what went wrong."""
    bad = []
    for job, rec in zip(jobs, report["jobs"]):
        key = job_key(job)
        if rec["error"] is not None or rec["digest"] != refs.get(key):
            bad.append(f"{key}: {rec['error'] or 'digest ' + str(rec['digest'])}")
    return bad


def tail(latencies: list) -> tuple:
    """The highest percentile with TAIL_BEYOND jobs beyond it, and its value."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def bs_cache_defect(workload: str, deadline: float, refs: dict) -> list:
    """Run jobs.BS_CACHE_PROBE in a process of its own and return what it
    got wrong: empty once families._BS_CACHE keys on the law's b."""
    jobs = list(BS_CACHE_PROBE)
    return check(jobs, child({"workload": workload, "jobs": jobs}, deadline),
                 refs)


def fixed_address_layout() -> bool:
    """Turn off address-space randomisation for the clients started from
    here on, as `setarch -R` does: the flag is inherited and takes effect
    at exec.  With it on, ru_maxrss of one job list varies by 1-3 MiB from
    process to process with where the heap lands.  False if the system
    does not allow it."""
    addr_no_randomize = 0x0040000
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
        personality.argtypes = [ctypes.c_ulong]
        personality.restype = ctypes.c_int
        current = personality(0xFFFFFFFF)
        return (current != -1 and
                personality(current | addr_no_randomize) != -1)
    except (OSError, AttributeError):
        return False


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_identity() -> dict:
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": h.hexdigest()[:16]}


def end_to_end(workload: str, jobs: list, n_passes: int, deadline: float,
               refs: dict) -> tuple:
    request = {"workload": workload, "jobs": jobs}
    passes = [child(request, deadline) for _ in range(n_passes)]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(child({**request, "setup_only": True},
                            deadline)["setup_s"])
    job_ms = [statistics.median(p["jobs"][k]["ms"] for p in passes)
              for k in range(len(jobs))]
    percentile, tail_ms = tail(job_ms)
    failed = [bad for p in passes for bad in check(jobs, p, refs)]
    attempted = len(jobs) * len(passes)
    metrics = {
        "run_s": sum(job_ms) / 1e3,
        "setup_s": statistics.median(setups),
        "job_p50_ms": statistics.median(job_ms),
        "job_tail_ms": tail_ms,
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
        "ok_frac": 1 - len(failed) / attempted,
    }
    meta = {"passes": len(passes), "setup_samples": len(setups),
            "job_tail_percentile": percentile,
            "pass_run_s": [p["run_s"] for p in passes],
            "pass_cal_ms": [p["cal_ms"] for p in passes]}
    return metrics, meta, attempted, failed


def per_layer(workload: str, jobs: list, seed: int, deadline: float,
              refs: dict, src_sha: str) -> tuple:
    request = {"workload": workload, "jobs": jobs, "seed": seed}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.csv.gz"
    untraced = child(request, deadline)
    first = child({**request, "trace": True, "replay": True,
                   "spans_path": str(spans)}, deadline)
    second = child({**request, "trace": True}, deadline)
    a, b = first["layers"], second["layers"]
    counts = {k: v for k, v in a.items() if not k.endswith("_s")}
    varying = sorted(k for k in counts if counts[k] != b[k])
    # counts of an earlier run of the same code and seed must repeat too
    saved = OUT / f"counts-{workload}-{seed}-{src_sha}.json"
    if saved.is_file():
        before = json.loads(saved.read_text())
        varying += sorted(k for k in counts if before.get(k) != counts[k]
                          and k not in varying)
    saved.write_text(json.dumps(counts, sort_keys=True))
    metrics = {k: (statistics.median([a[k], b[k]]) if k.endswith("_s")
                   else a[k]) for k in a}
    replay = first["replay"]
    metrics["rings.mul.sample_s"] = replay["flagcalc_s"]
    metrics["rings.mul.sympy_ref_s"] = replay["sympy_s"]
    metrics["trace.overhead_frac"] = (
        statistics.median([first["run_s"], second["run_s"]])
        / untraced["run_s"] - 1)
    passes = (untraced, first, second)
    failed = [bad for p in passes for bad in check(jobs, p, refs)]
    meta = {"passes": 3, "spans": a["trace.spans"], "spans_file": str(
        spans.relative_to(ROOT)), "mul_sample": replay,
        "varying_counts": varying}
    problems = []
    if varying:
        problems.append(f"counts that did not repeat exactly: {varying}")
    if replay["mismatches"]:
        problems.append(f"{replay['mismatches']} sampled products differ "
                        "from sympy")
    return metrics, meta, len(jobs) * len(passes), failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + max(RUN_LIMIT_S, 3 * args.seconds + 20)

    if not (SRC / "flagcalc" / "__init__.py").is_file():
        print(f"no flagcalc sources under {SRC}", file=sys.stderr)
        return 1
    source = source_identity()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((BENCH / "references.json").read_text())[args.workload]
    jobs = generate(args.workload, args.seed)

    fixed_layout = fixed_address_layout()
    try:
        # fills the byte-code cache, so no timed set-up compiles
        child({"workload": args.workload, "setup_only": True}, deadline)
        if args.trace:
            metrics, meta, attempted, failed, problems = per_layer(
                args.workload, jobs, args.seed, deadline, refs,
                source["src_sha256"])
            wanted = spec["per_layer"]
        else:
            n_passes = max(1, round(PASSES[args.workload] * args.seconds
                                    / spec["run_seconds"]))
            metrics, meta, attempted, failed = end_to_end(
                args.workload, jobs, n_passes, deadline, refs)
            problems = []
            wanted = spec["end_to_end"]
        defect = (bs_cache_defect(args.workload, deadline, refs)
                  if "fgl" in WORKLOADS[args.workload] else None)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    for line in problems:
        print(line, file=sys.stderr)
    for bad in failed[:10]:
        print(f"failed job {bad}", file=sys.stderr)
    for bad in defect or []:
        print(f"known defect, families._BS_CACHE: {bad}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), **source, "fixed_layout": fixed_layout,
            "jobs_per_pass": len(jobs), "failed_frac": len(failed) / attempted,
            "bs_cache_defect": None if defect is None else bool(defect),
            **meta}
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}")
    print(json.dumps({"meta": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
