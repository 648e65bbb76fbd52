"""Seeded request streams for the hflkit benchmark.

Every workload is an endless sequence of blocks.  A block is a balanced
deck of requests (each size drawn without replacement), so a run that
stops on a block boundary always holds the same mix of sizes and only
the order, the output formats and the random inputs change with the
seed.  The benchmark process is a closed loop with one client: it sends
the next request only after the previous one has returned.

This module uses the standard library only and never imports hflkit, so
the inputs do not depend on the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

# Torsion orders of the seeded torsion complexes, and their elementary
# divisors (prime powers).
TORSION_ORDERS = (2, 3, 4, 6, 12)
PRIME_POWERS = {2: (2,), 3: (3,), 4: (4,), 6: (2, 3), 12: (3, 4)}


@dataclass
class Request:
    """One request of a stream.

    ``kind`` names the entry point and ``key`` is the (command, size)
    pair used for the repeat share.  CLI requests carry ``argv``; library
    requests carry ``doc``, a graded-complex JSON document.  ``expect``
    holds what the oracle needs beyond the inputs.
    """

    kind: str
    key: tuple
    size: int
    argv: list[str] | None = None
    doc: dict | None = None
    expect: dict[str, Any] = field(default_factory=dict)


FORMATS = ("json", "table")


# hfl_tables: one large homology table per request.  Today ~85% of the
# time is in complexes.validate / matrices.mul (the dense d*d check), so
# this is where a sparse engine must show its gain.  Every block holds
# each n in 8..20 once, in random order, so no n repeats inside a block;
# the share repeated across blocks is reported as inputs.repeat_share.
# Each n steps through the six (command, format) pairs from a seeded
# start, so every run holds nearly the same mix and only the order and
# the Spin^c classes change with the seed.
HFL_NS = range(8, 21)
HFL_COMMANDS = [(c, f) for c in ("hfl", "hfl_spinc", "whitehead") for f in FORMATS]


def hfl_tables(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(seed)
    step = {n: rng.randrange(len(HFL_COMMANDS)) for n in HFL_NS}
    while True:
        block = []
        for n in HFL_NS:
            command, fmt = HFL_COMMANDS[step[n] % len(HFL_COMMANDS)]
            step[n] += 1
            if command == "whitehead":
                argv = ["whitehead", "--n", str(n)]
                expect = {}
            elif command == "hfl":
                argv = ["hfl", "--n", str(n)]
                expect = {"spinc_twice": None}
            else:
                twice = rng.randrange(-(2 * n - 1), 2 * n, 2)
                argv = ["hfl", "--n", str(n), f"--spinc={twice}/2"]
                expect = {"spinc_twice": twice}
            block.append(
                Request(command, (command, n), n, argv + ["--format", fmt], expect=expect)
            )
        rng.shuffle(block)
        yield block


# verify_sweep: many small n, and hfl_compute runs four times per n
# (the per-class loop, symmetry, genus_fibered and whitehead_table).
# This is where computing each table once per n must show its gain; that
# change should not move hfl_tables.  Every block holds each M in 3..9
# once; the output format alternates per M from a seeded start.
VERIFY_MS = range(3, 10)


def verify_sweep(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(seed)
    step = {m: rng.randrange(2) for m in VERIFY_MS}
    while True:
        block = []
        for m in VERIFY_MS:
            fmt = FORMATS[step[m] % 2]
            step[m] += 1
            block.append(
                Request("verify", ("verify", m), m, ["verify", "--max-n", str(m), "--format", fmt])
            )
        rng.shuffle(block)
        yield block


# pd_states: no homology at all, so no engine change should move it.  The
# work is the backtracking in enumerate_states, the rendering of large
# state lists and the Laurent arithmetic.  PD codes of T(2,2n+1) come
# with their crossing order shuffled, as real PD codes do; that makes the
# enumeration cost vary by orders of magnitude between codes of one n
# (at n = 20 from 0.04 s to over 1 s).  So that one run is comparable with
# the next, the crossing orders and marks come from a fixed corpus of
# PD_CORPUS_PER_N shuffles per n, drawn once from a constant seed, and
# every run visits them in the same order (a run of ~25 s goes through
# them about 1.4 times).  The run seed picks the request order and a
# cyclic relabelling of the arcs (which changes the text but not the
# enumeration), so no PD text repeats.
# Each block holds every n once, the torus diagrams at N in KAUFFMAN_NS
# (0.7-6.6 MB of JSON) and SATELLITE_PER_BLOCK satellite polynomials.
PD_NS = range(8, 21)
PD_CORPUS_PER_N = 12
KAUFFMAN_NS = (50, 83, 117, 150)
SATELLITE_PER_BLOCK = 2


def torus_pd(n: int) -> list[tuple[int, int, int, int]]:
    """The standard alternating PD code of T(2,2n+1), crossings top to bottom.

    Walking the knot, passage j meets crossing ((j-1) mod m)+1 and goes
    under exactly when j is odd; arc j enters passage j, arc j+1 leaves.
    """
    m = 2 * n + 1

    def wrap(x: int) -> int:
        return (x - 1) % (2 * m) + 1

    out = []
    for c in range(1, m + 1):
        under = c if c % 2 else c + m
        over = c + m if c % 2 else c
        out.append((under, wrap(over + 1), wrap(under + 1), over))
    return out


def pd_text(crossings, mark: int, shift: int = 0) -> str:
    """PD text with every arc label a moved to ((a - 1 + shift) mod 2c) + 1."""
    arcs = 2 * len(crossings)

    def move(a: int) -> int:
        return (a - 1 + shift) % arcs + 1

    body = ",".join("X(%d,%d,%d,%d)" % tuple(move(a) for a in entry) for entry in crossings)
    return f"{body},mark={move(mark)}"


def shuffled_pd(n: int, rng: random.Random) -> tuple[list, int]:
    """T(2,2n+1) with its crossings in random order and a random marked arc."""
    crossings = torus_pd(n)
    rng.shuffle(crossings)
    return crossings, rng.randrange(1, 2 * len(crossings) + 1)


def pd_corpus() -> dict[int, list[tuple[list, int]]]:
    return {
        n: [shuffled_pd(n, random.Random(f"pd-corpus-{n}-{k}")) for k in range(PD_CORPUS_PER_N)]
        for n in PD_NS
    }


def symmetric_poly(rng: random.Random, max_degree: int) -> dict[int, int]:
    """A symmetric Laurent polynomial with integer exponents and p(1) = 1."""
    degree = rng.randint(1, max_degree)
    coeffs = {}
    for k in range(1, degree + 1):
        c = rng.choice((-3, -2, -1, 1, 2, 3)) if k == degree else rng.randint(-3, 3)
        if c:
            coeffs[k] = coeffs[-k] = c
    coeffs[0] = 1 - sum(coeffs.values())
    return {e: c for e, c in coeffs.items() if c}


def poly_text(coeffs: dict[int, int]) -> str:
    """Render in the grammar LaurentPoly.parse reads, e.g. ``2t^-1 - 3 + 2t``."""
    parts = []
    for e in sorted(coeffs):
        c = coeffs[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("t" if e == 1 else f"t^{e}")
        sign = "-" if c < 0 else "+"
        parts.append(("-" + body if c < 0 else body) if not parts else f"{sign} {body}")
    return " ".join(parts)


def pd_states(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(seed)
    corpus = pd_corpus()
    visit = 0
    while True:
        block = []
        for n in PD_NS:
            crossings, mark = corpus[n][visit % PD_CORPUS_PER_N]
            pd = pd_text(crossings, mark, rng.randrange(2 * len(crossings)))
            block.append(
                Request(
                    "kauffman_pd", ("kauffman_pd", n), n,
                    ["kauffman", "--pd", pd, "--list", "--format", "json"],
                    expect={"pd": pd},
                )
            )
        visit += 1
        for n in KAUFFMAN_NS:
            block.append(
                Request(
                    "kauffman_n", ("kauffman_n", n), n,
                    ["kauffman", "--n", str(n), "--list", "--format", "json"],
                )
            )
        for _ in range(SATELLITE_PER_BLOCK):
            companion = symmetric_poly(rng, 10)
            pattern = symmetric_poly(rng, 6)
            winding = rng.randint(0, 50)
            argv = [
                "alexander", "satellite",
                # The = form keeps a leading minus sign from reading as a flag.
                "--companion=" + poly_text(companion),
                "--pattern=" + poly_text(pattern),
                "--winding", str(winding),
                "--format", "json",
            ]
            block.append(
                Request(
                    "satellite", ("satellite", winding), winding, argv,
                    expect={"companion": companion, "pattern": pattern, "winding": winding},
                )
            )
        rng.shuffle(block)
        yield block


# torsion_complexes: the only workload where smith_normal_form meets
# non-unit pivots.  A cancellation-first engine skips SNF entirely on the
# longitude complexes (all +-1 matchings), so without this workload the
# matrices layer would go unmeasured.  Dense blocks make SNF coefficients
# grow (a known defect, visible as matrices.max_coeff_bits and in
# latency_p90_s); slow inputs are kept, and a request over the time
# limit counts as failed.  The change of basis uses 2*size elementary
# operations with multipliers +-1 on dense levels: with 3*size and
# +-1, +-2, about one dense 112-generator complex in a few hundred ran
# past the time limit, which would make runs fail at random.
# Validation costs ~size^3, so every block holds each size of the grids
# below once: the mix of sizes is the same in every run and only the
# structure of each complex changes with the seed.  A block holds an odd
# number (17) of complexes, so the median latency falls inside one
# size's group, not on the edge between two.
SPARSE_SIZES = range(40, 161, 10)
DENSE_SIZES = (48, 72, 96, 120)
MAX_DENSE_LEVEL = 32


def _unimodular(size: int, ops: int, rng: random.Random):
    """A product A of elementary matrices and its inverse B, as row lists."""
    a = [[int(i == j) for j in range(size)] for i in range(size)]
    b = [row[:] for row in a]
    for _ in range(ops if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-1, 1))
        for row in a:  # A <- A (I + c e_ij): column j += c * column i
            row[j] += c * row[i]
        b[i] = [x - c * y for x, y in zip(b[i], b[j])]  # B <- (I - c e_ij) B
    return a, b


def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def torsion_complex(rng: random.Random, total: int, dense: bool):
    """A graded complex over Z with ``total`` generators and known homology.

    Built as a direct sum of arrows a -> t*b (t = 1 or a torsion order)
    and free generators on 3-6 Maslov levels, so d^2 = 0 holds by
    construction.  A unimodular change of basis at each level hides the
    structure: d'(m+1 -> m) = B_m d A_(m+1), with A_m B_m = I; for a
    dense complex it fills blocks of up to MAX_DENSE_LEVEL^2 entries.
    Returns the document in the documented JSON form and what the oracle
    expects: the Spin^c class and the homology
    {maslov_twice: (free rank, prime powers)}.
    """
    fewest = max(3, -(-total // MAX_DENSE_LEVEL)) if dense else 3
    levels = rng.randint(fewest, 6)
    sizes = [2] * levels
    for _ in range(total - 2 * levels):
        open_levels = [
            k for k in range(levels) if not dense or sizes[k] < MAX_DENSE_LEVEL
        ]
        sizes[rng.choice(open_levels)] += 1

    used = [set() for _ in range(levels)]
    arrows = {k: [] for k in range(levels - 1)}  # level k+1 -> level k
    for k in range(levels - 2, -1, -1):
        top = [g for g in range(sizes[k + 1]) if g not in used[k + 1]]
        bottom = [g for g in range(sizes[k]) if g not in used[k]]
        for _ in range(rng.randint(len(bottom) // 4, len(bottom) // 2) if top else 0):
            if not top or not bottom:
                break
            src = top.pop(rng.randrange(len(top)))
            dst = bottom.pop(rng.randrange(len(bottom)))
            used[k + 1].add(src)
            used[k].add(dst)
            t = 1 if rng.random() < 0.4 else rng.choice(TORSION_ORDERS)
            arrows[k].append((src, dst, t))

    spinc_twice = rng.randrange(-9, 10, 2)
    base_twice = rng.randrange(-7, 8)  # Maslov grading of level 0, doubled
    expect = {}
    for k in range(levels):
        powers = sorted(p for _, _, t in arrows.get(k, ()) for p in PRIME_POWERS.get(t, ()))
        free = sizes[k] - len(used[k])
        if free or powers:
            expect[base_twice + 2 * k] = (free, powers)

    changes = [
        _unimodular(s, (2 if dense else 1) * s, rng) for s in sizes
    ]
    offsets = [sum(sizes[:k]) for k in range(levels)]
    order = list(range(total))
    rng.shuffle(order)  # position of each generator in the document
    triplets = []
    for k in range(levels - 1):
        block = [[0] * sizes[k + 1] for _ in range(sizes[k])]
        for src, dst, t in arrows[k]:
            block[dst][src] = t
        mixed = _matmul(_matmul(changes[k][1], block), changes[k + 1][0])
        for r, row in enumerate(mixed):
            for c, value in enumerate(row):
                if value:
                    triplets.append(
                        [order[offsets[k] + r], order[offsets[k + 1] + c], value]
                    )
    triplets.sort()
    generators = [None] * total
    for k in range(levels):
        twice = base_twice + 2 * k
        for g in range(sizes[k]):
            generators[order[offsets[k] + g]] = {
                "label": f"g{k}_{g}",
                "spinc": {"str": _halfint_str(spinc_twice), "twice": spinc_twice},
                "maslov": {"str": _halfint_str(twice), "twice": twice},
            }
    doc = {"generators": generators, "differential": triplets}
    return doc, {"spinc_twice": spinc_twice, "homology": expect, "dense": dense}


def _halfint_str(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def torsion_complexes(seed: int) -> Iterator[list[Request]]:
    rng = random.Random(seed)
    count = 0
    while True:
        block = []
        for size, dense in [(t, False) for t in SPARSE_SIZES] + [(t, True) for t in DENSE_SIZES]:
            doc, expect = torsion_complex(rng, size, dense)
            count += 1  # every complex is new, so no key repeats
            block.append(
                Request("homology", ("homology", count), size, doc=doc, expect=expect)
            )
        rng.shuffle(block)
        yield block


WORKLOADS = {
    "hfl_tables": hfl_tables,
    "verify_sweep": verify_sweep,
    "pd_states": pd_states,
    "torsion_complexes": torsion_complexes,
}
