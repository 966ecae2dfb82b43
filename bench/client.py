"""One benchmark client: a fresh process that sets up one workload, runs its
job list in a closed loop (one job at a time) and reports each job's
latency and the digest of its canonical text.

Reads a JSON request on stdin and writes one JSON line on stdout:

    {"workload": "family_hecke", "jobs": [...], "setup_only": false,
     "trace": false, "replay": false, "spans_path": null, "seed": 1}

A job's latency covers the request and the rendering of its canonical
text; digesting the text is outside the timed region.  Latencies and the
set-up time are CPU time of this process, which descheduling does not
inflate, scaled to a core of fixed speed: ``calibrate()`` runs before
every job and after the last one, and a job's CPU time is multiplied by
CAL_REF_S over the mean of the two calibrations around it.  On a shared
host the speed of a core drifts by a quarter or more for minutes at a
time; the scaling takes that drift out of the figures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time

from jobs import UNIVERSAL_D, WORKLOADS

# about the CPU seconds calibrate() takes on one core of a 2-vCPU x86-64
# VM under Python 3.11; the scaled times are seconds on a core of that speed
CAL_REF_S = 0.003


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop of the kind flagcalc spends
    its time in: tuple keys, dict updates, small-integer arithmetic.  The
    cyclic collector is off while it runs, since its passes cost in
    proportion to the heap, which would tie the scale to flagcalc's."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.process_time()
    acc = {}
    for i in range(8000):
        key = (i & 7, (i >> 3) & 7, i % 5)
        acc[key] = acc.get(key, 0) + i * (i & 15)
    elapsed = time.process_time() - t
    if enabled:
        gc.enable()
    return elapsed


def scaled(cpu_s: float, cal_before: float, cal_after: float) -> float:
    """CPU seconds on a core whose calibrate() takes CAL_REF_S."""
    return cpu_s * CAL_REF_S * 2 / (cal_before + cal_after)


def import_flagcalc():
    import flagcalc  # noqa: F401
    from flagcalc import (cli, divdiff, families, fgl, flagring,  # noqa: F401
                          hecke, perms, porteous, rings)


def build_fixed(workload: str) -> dict:
    """The workload's fixed objects: laws, presentations, H(x, y) at n = 4."""
    from flagcalc import fgl, flagring, hecke, rings
    fixed = {}
    parts = WORKLOADS[workload]
    if "fgl" in parts:
        ring = rings.beta_ring()
        b = rings.SparsePoly.var(ring, "b")
        laws = {f"univ_{D}": fgl.make_universal_rational(D, D)
                for D in UNIVERSAL_D}
        laws["mult_b"] = fgl.make_multiplicative(b, 7, ring)
        for value in (2, 5):
            laws[f"mult_{value}"] = fgl.make_multiplicative(
                rings.SparsePoly(ring, {(): value}), 7, ring)
        fixed["laws"] = laws
    if "locus" in parts:
        ring = rings.beta_ring()
        fixed["ring"] = ring
        fixed["pres"] = {n: flagring.FlagRingPresentation.symbolic(n, ring)
                         for n in (3, 4, 5)}
    if "hecke" in parts:
        fixed["H4"] = hecke.build_Hxy(4)
    return fixed


def _render_hecke(e) -> str:
    return "\n".join(f"{w.one_line()}: {c.to_text()}" for w, c in e.coeffs)


def run_job(job: list, fixed: dict) -> str:
    """Run one job and return its canonical text."""
    from flagcalc import cli, divdiff, families, fgl, hecke, perms, porteous
    from flagcalc.perms import Permutation
    from flagcalc.rings import SparsePoly
    kind = job[0]
    if kind == "family":
        _, theory, perm, fmt = job
        w = Permutation.from_one_line(perm)
        p = {"beta": families.beta_poly,
             "schubert": families.double_schubert,
             "grothendieck": families.double_grothendieck}[theory](w)
        if fmt == "json":
            return json.dumps(p.to_json_obj(), sort_keys=True)
        return p.to_text()
    if kind == "bs":
        _, law, n, word = job
        word = tuple(int(i) for i in word.split(","))
        return families.bott_samelson_class(
            fixed["laws"][law], word, n).to_text()
    if kind == "braid":
        _, law, text = job
        law = fixed["laws"][law]
        ctx = divdiff.OperatorContext(3, fgl=law)
        report = divdiff.braid_check(
            ctx, 1, [cli.parse_poly(text, law.ring)], "fgl")
        witness = report["witness"]
        return json.dumps({"holds": report["holds"],
                           "witness": witness.to_text() if witness else None},
                          sort_keys=True)
    if kind == "chern":
        _, law, e, f = job
        law = fixed["laws"][law]
        xs = [SparsePoly.var(law.ring, f"x{i}") for i in range(1, f + 1)]
        ys = [SparsePoly.var(law.ring, f"y{j}") for j in range(1, e + 1)]
        chern, top = fgl.chern_tensor_dual(law, xs, ys)
        return f"chern_polynomial: {chern.to_text()}\ntop: {top.to_text()}"
    if kind == "porteous":
        _, theory, e, f, r = job
        return porteous.thom_porteous(
            porteous.RankTriple(e, f, r), theory).body.to_text()
    if kind == "roundtrip":
        t = porteous.RankTriple(*job[1:])
        p = porteous.specialize_nu(t)
        dp = porteous.to_elementary(p, t)
        back = porteous.from_elementary(dp)
        return f"{dp.body.to_text()}\nroundtrip {back == p}"
    if kind == "pad":
        t = porteous.RankTriple(*job[1:])
        return porteous.specialize_nu(t, n_pad=1).to_text()
    if kind == "flagring":
        _, n, text_a, text_b = job
        ring, pres = fixed["ring"], fixed["pres"][n]
        p = cli.parse_poly(text_a, ring) * cli.parse_poly(text_b, ring)
        q = pres.reduce(p)
        return f"{q.to_text()}\nequal {pres.equal_in_ring(p, q)}"
    if kind == "build_Hxy":
        return _render_hecke(hecke.build_Hxy(job[1]))
    if kind == "alternative_product":
        return _render_hecke(hecke.alternative_product(job[1]))
    if kind == "verify":
        return json.dumps(hecke.verify_identities(job[1]), sort_keys=True)
    if kind == "coefficients":
        # every coefficient of H(x, y) against the recursive family
        lines = []
        for w in perms.all_permutations(job[1]):
            p = families.beta_poly(w)
            c = hecke.coefficient(fixed["H4"], w)
            lines.append(f"{w.one_line()}: {p.to_text()} match {c == p}")
        return "\n".join(lines)
    raise ValueError(f"unknown job kind {kind!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    request = json.load(sys.stdin)
    workload = request["workload"]
    clock = time.process_time
    calibrate()  # the first call runs unspecialised byte code
    cal_setup = calibrate()
    t0 = clock()
    import_flagcalc()
    tracer = None
    if request.get("trace"):
        from trace_layers import Tracer
        tracer = Tracer(request["seed"])
        tracer.install()
    fixed = build_fixed(workload)
    setup_cpu = clock() - t0
    cals = [calibrate()]
    result = {"setup_s": scaled(setup_cpu, cal_setup, cals[0])}
    if request.get("setup_only"):
        print(json.dumps(result))
        return
    records = []
    for k, job in enumerate(request["jobs"]):
        if tracer is not None:
            tracer.job = k
        t = clock()
        try:
            text, error = run_job(job, fixed), None
        except Exception as exc:  # a failed job is counted, not fatal
            text, error = None, f"{type(exc).__name__}: {exc}"[:300]
        cpu = clock() - t
        cals.append(calibrate())
        records.append({"ms": scaled(cpu, cals[-2], cals[-1]) * 1e3,
                        "digest": None if text is None else digest(text),
                        "error": error})
    result["run_s"] = sum(rec["ms"] for rec in records) / 1e3
    result["cal_ms"] = statistics.median(cals) * 1e3
    result["rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result["jobs"] = records
    if tracer is not None:
        tracer.uninstall()
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
        result["layers"] = tracer.aggregate()
        if request.get("replay"):
            result["replay"] = tracer.replay_mul_sample()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
