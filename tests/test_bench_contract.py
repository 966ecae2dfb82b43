"""The calls that the benchmark client makes into flagcalc still work and
still give the reference answers.

``bench/client.py`` and ``bench/jobs.py`` are loaded from their files, as
``test_layout.py`` loads ``bench/trace_layers.py``, and never changed.
For each workload, one cheap job of every kind in ``jobs.universe``, and
on fgl_locus every ``roundtrip`` and ``pad`` job, runs through
``client.build_fixed`` and ``client.run_job``, and the digest of its text
must equal the one in ``bench/references.json``.  This pins the
signatures the client relies on, such as ``braid_check(..., "fgl")`` and
``specialize_nu(t, n_pad=1)``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_client():
    # client.py imports jobs by name, as it does when run from bench/
    jobs = _load("jobs")
    saved = sys.modules.get("jobs")
    sys.modules["jobs"] = jobs
    try:
        return jobs, _load("client")
    finally:
        if saved is None:
            del sys.modules["jobs"]
        else:
            sys.modules["jobs"] = saved


JOBS, CLIENT = _load_client()
REFS = json.loads((BENCH / "references.json").read_text())


def _cheap_jobs(workload):
    """The first job of each kind; alternative_product at 4, not 5."""
    first = {}
    for job in JOBS.universe(workload):
        if job != ["alternative_product", 5]:
            first.setdefault(job[0], job)
    return list(first.values())


CASES = [(workload, job) for workload in JOBS.WORKLOADS
         for job in _cheap_jobs(workload)]
# every round trip and padded member of fgl_locus: specialize_nu reads
# the memoised CK body, which a porteous job may have built first
LOCUS_JOBS = [job for job in JOBS.universe("fgl_locus")
              if job[0] in ("roundtrip", "pad")]
_FIXED: dict = {}


def _matches_reference(workload, job):
    if workload not in _FIXED:
        _FIXED[workload] = CLIENT.build_fixed(workload)
    text = CLIENT.run_job(job, _FIXED[workload])
    return CLIENT.digest(text) == REFS[workload][JOBS.job_key(job)]


def test_every_kind_is_covered():
    kinds = {job[0] for _, job in CASES}
    assert kinds == {job[0] for w in JOBS.WORKLOADS
                     for job in JOBS.universe(w)}


@pytest.mark.parametrize("workload, job", CASES,
                         ids=[f"{w}-{job[0]}" for w, job in CASES])
def test_job_matches_reference(workload, job):
    assert _matches_reference(workload, job)


@pytest.mark.parametrize("job", LOCUS_JOBS, ids=JOBS.job_key)
def test_locus_job_matches_reference(job):
    assert _matches_reference("fgl_locus", job)
