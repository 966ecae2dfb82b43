"""Seeded job lists for the benchmark workloads.

This module does not import flagcalc: it only produces the inputs the
program receives (permutations, words, rank triples and polynomial text).
A job is a list of strings and integers; its key, ``job_key(job)``, names
it in the reference table.

Every workload draws from a finite universe (``universe(workload)``), so
that a reference digest exists for every job any seed can produce.  The
heavy jobs are the same for every seed and the seed picks among inputs of
like cost (theories, formats, words, samples, polynomial pairs) and the
order, so that the work in a job list hardly depends on the seed.
"""

from __future__ import annotations

import itertools
import random

# each workload runs its parts one after the other in one client process.
# hecke runs before family: the family memo keeps what the seed's draws
# computed, and on top of it the hecke peak would make peak_rss_mib depend
# on the seed (71.8 or 75.2 MiB); after hecke it stays below that peak
WORKLOADS = {"family_hecke": ("hecke", "family"), "fgl_locus": ("fgl", "locus")}

THEORIES = ("beta", "schubert", "grothendieck")
FORMATS = ("text", "json")

# laws built once in the fgl set-up; the name is what a job refers to
UNIVERSAL_D = (5, 6, 7)
# (n, D, word lengths): every reduced word of these lengths is a job under
# the universal law at bound D, for every seed; their cost differs by up to
# a third between words of one length, so a seeded pick would make run_s
# depend on the seed
UNIVERSAL_JOBS = ((3, 5, (1, 2, 3)), (3, 6, (1, 2)), (3, 7, (1,)),
                  (4, 6, (1,)))
MULT_LAWS = ("mult_b", "mult_2", "mult_5")  # symbolic b, b = 2, b = 5 at D = 7
# (n, length) of the words the multiplicative laws run on, each law on
# another word.  At n = 3 a reduced word of length 3 is a word for w0,
# whose class is 1 for every law, so it would say nothing about b
MULT_WORDS = ((3, 2), (4, 2), (4, 3))
# families._BS_CACHE keys a Bott-Samelson class on (kind, ring, n, word, D)
# and leaves out the law's b, so two multiplicative laws on one word, n and
# D in one process get the first law's class twice.  A benchmark run must
# have no failing job, so the workloads never run such a pair; run.py runs
# this pair in a process of its own, apart from the measured passes, and
# reports on the metadata line whether the defect shows.
BS_CACHE_PROBE = (["bs", "mult_2", 3, "1,2"], ["bs", "mult_5", 3, "1,2"])
CHERN_DIMS = ((1, 2), (2, 1))   # (rank of E, rank of F)
POOL_SIZE = 8
# flag-ring products: factor k times factor k + 1 of the rank-n pool
FLAGRING_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))
# Thom-Porteous at (3, 2, 0) costs about as much as the fgl_locus job at
# the tail percentile, and half as much again in k0 as in ck, so a seeded
# theory there would decide whether it lies beyond the tail; its theory is
# fixed, while the other triples' costs lie well above or below the tail
TAIL_THEORY = {(3, 2, 0): "ck"}


def job_key(job) -> str:
    return "|".join(str(part) for part in job)


# -- permutations and words ---------------------------------------------------

def _length(images) -> int:
    return sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
               if images[i] > images[j])


def _word_length(word, n) -> int:
    images = list(range(1, n + 1))
    for i in word:
        images[i - 1], images[i] = images[i], images[i - 1]
    return _length(images)


def reduced_words(n: int, length: int) -> list:
    return [w for w in itertools.product(range(1, n), repeat=length)
            if _word_length(w, n) == length]


def _one_line(images) -> str:
    return " ".join(str(v) for v in images)


def family_perms() -> list:
    """The permutations of S_5 that fix 5, i.e. S_4 inside S_5.

    A fixed set, so that each seed asks for the same operator chains from
    h_top(5) (4 to 10 of them per member); the seed picks theory, format,
    order and repeats."""
    return [_one_line(p + (5,)) for p in itertools.permutations(range(1, 5))]


# -- polynomial text ----------------------------------------------------------

def _poly_text(rng: random.Random, names: list, terms: int, max_vars: int
               ) -> str:
    """Terms of up to max_vars distinct variables, exponents 1 or 2."""
    pieces = []
    for _ in range(terms):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        chosen = sorted(rng.sample(names, rng.randint(1, max_vars)),
                        key=names.index)
        mono = " ".join(v if e == 1 else f"{v}^{e}" for v in chosen
                        for e in [rng.randint(1, 2)])
        text = mono if abs(c) == 1 else f"{abs(c)} {mono}"
        pieces.append(("- " if c < 0 else "+ ") + text)
    return " ".join(pieces).removeprefix("+ ")


def braid_samples() -> list:
    """Sample inputs for braid checks at n = 3 (fixed pool)."""
    rng = random.Random(1013)
    return [_poly_text(rng, ["x1", "x2", "x3"], 4, 3)
            for _ in range(POOL_SIZE)]


def flagring_factors(n: int) -> list:
    """Factors for flag-ring products in the symbolic rank-n ring."""
    rng = random.Random(2000 + n)
    names = [f"x{i}" for i in range(1, n + 1)]
    out = []
    for _ in range(POOL_SIZE):
        text = _poly_text(rng, names, 3, 2)
        extra = rng.choice(["c1", "c2", "b", f"y{rng.randint(1, n)}"])
        out.append(f"{text} + {extra} x{rng.randint(1, n)}")
    return out


# -- rank triples -------------------------------------------------------------

def rank_triples() -> list:
    """(e, f, r) with 1 <= e, f <= 3 and r < min(e, f)."""
    return [(e, f, r) for e in (1, 2, 3) for f in (1, 2, 3)
            for r in range(min(e, f))]


# -- universes ----------------------------------------------------------------

def universe(workload: str) -> list:
    """Every job some seed can draw for the workload."""
    return [job for part in WORKLOADS[workload] for job in _part_universe(part)]


def _part_universe(part: str) -> list:
    if part == "family":
        return [["family", th, w, fmt] for w in family_perms()
                for th in THEORIES for fmt in FORMATS]
    if part == "fgl":
        jobs = _universal_jobs() + _fixed_fgl_jobs()
        for n, length in MULT_WORDS:
            jobs += [["bs", law, n, _word(w)] for law in MULT_LAWS
                     for w in reduced_words(n, length)]
        jobs += [["braid", "mult_b", s] for s in braid_samples()]
        jobs += [["chern", law, e, f] for law in MULT_LAWS
                 for e, f in CHERN_DIMS]
        return jobs
    if part == "locus":
        jobs = []
        for t in rank_triples():
            jobs += [["porteous", th, *t] for th in ("ck", "ch", "k0")]
            jobs += _locus_extras(t)
        return jobs + _flagring_jobs()
    if part == "hecke":
        return list(HECKE_JOBS)
    raise ValueError(f"unknown part {part!r}")


def _word(word) -> str:
    return ",".join(str(i) for i in word)


def _universal_jobs() -> list:
    return [["bs", f"univ_{D}", n, _word(w)] for n, D, lengths in UNIVERSAL_JOBS
            for length in lengths for w in reduced_words(n, length)]


def _fixed_fgl_jobs() -> list:
    """Universal-law braid check and Chern classes, the same every seed."""
    return [["braid", "univ_5", braid_samples()[0]],
            ["chern", "univ_5", *CHERN_DIMS[0]]]


def _flagring_jobs() -> list:
    jobs = []
    for n in (3, 4, 5):
        fs = flagring_factors(n)
        jobs += [["flagring", n, fs[a], fs[b]] for a, b in FLAGRING_PAIRS]
    return jobs


def _locus_extras(t) -> list:
    """Round trip for n <= 5; padding for n <= 4, since padding a rank-5
    triple into S_6 takes 3-4 s alone."""
    n = t[0] + t[1] - t[2]
    return ([["roundtrip", *t]] if n <= 5 else []) + (
        [["pad", *t]] if n <= 4 else [])


# Fixed, in this order.  H(x, y) at n = 5 comes from the ten h-factor
# products of alternative_product(5) (about 2 s), not from build_Hxy(5),
# whose single 13 s product would dwarf the rest of a pass; build_Hxy(4)
# keeps the product of two full elements in the mix.  The coefficient check
# computes the S_4 family before verify_identities finds it memoised.
HECKE_JOBS = (["alternative_product", 5], ["alternative_product", 4],
              ["build_Hxy", 4], ["coefficients", 4], ["verify", 4])


# -- seeded job lists ----------------------------------------------------------

def generate(workload: str, seed: int) -> list:
    """The workload's job list for a seed: its parts one after the other."""
    return [job for part in WORKLOADS[workload]
            for job in _part_jobs(part, random.Random(f"{part}:{seed}"))]


def _part_jobs(part: str, rng: random.Random) -> list:
    if part == "family":
        perms = family_perms()
        rng.shuffle(perms)
        # every permutation once, then 16 repeats: 24 of 40 jobs run an
        # operator chain, so the median job is one that does
        first = [["family", rng.choice(THEORIES), w, rng.choice(FORMATS)]
                 for w in perms]
        repeats = [["family", rng.choice(THEORIES), w, rng.choice(FORMATS)]
                   for w in rng.sample(perms, 16)]
        jobs = first
        for job in repeats:
            # a repeat comes somewhere after the first draw of its w
            after = next(k for k, j in enumerate(jobs) if j[2] == job[2])
            jobs.insert(rng.randint(after + 1, len(jobs)), job)
        return jobs
    if part == "fgl":
        # the universal-law jobs, which hold the median and the tail, are
        # the same for every seed; the seed picks among the cheap
        # multiplicative-law jobs, which stay fewer than the universal ones
        jobs = _universal_jobs() + _fixed_fgl_jobs()
        for n, length in MULT_WORDS:
            # no two laws on one word (see BS_CACHE_PROBE); at (3, 2) there
            # are two words, so two of the three laws run there
            words = reduced_words(n, length)
            picked = rng.sample(words, min(len(MULT_LAWS), len(words)))
            laws = rng.sample(MULT_LAWS, len(picked))
            jobs += [["bs", law, n, _word(w)] for law, w in zip(laws, picked)]
        jobs.append(["braid", "mult_b", rng.choice(braid_samples())])
        jobs.append(["chern", rng.choice(MULT_LAWS), *rng.choice(CHERN_DIMS)])
        rng.shuffle(jobs)
        return jobs
    if part == "locus":
        jobs = []
        for t in rank_triples():
            theory = rng.choice(("ck", "ch", "k0"))
            jobs.append(["porteous", TAIL_THEORY.get(t, theory), *t])
            jobs += _locus_extras(t)
        rng.shuffle(jobs)
        # fixed products, last and in a fixed order: a reduction's cost
        # depends on the normal forms memoised by the ones before it, and
        # these costs straddle the median and the tail
        return jobs + _flagring_jobs()
    if part == "hecke":
        return list(HECKE_JOBS)
    raise ValueError(f"unknown part {part!r}")
