"""Self-test of the benchmark's oracles and input generators.

    python3 bench/selftest.py

Run from the root of a checkout.  For every oracle it checks that a real
answer is accepted and that a corrupted one (a rank off by one, a state
dropped, a coefficient changed, ...) is rejected.  It also checks that
shuffled PD codes parse as planar diagrams and that the seeded torsion
complexes satisfy d^2 = 0.  Exits with code 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import oracles  # noqa: E402
import workloads  # noqa: E402
from hflkit.cli import main as cli_main  # noqa: E402
from hflkit.complexes import GradedComplex, GroupSummand, HomologyTable, homology  # noqa: E402
from hflkit.kauffman import PlanarDiagram, regions  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def run_cli(req: workloads.Request) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(req.argv)
    expect(code == 0, f"{' '.join(req.argv)[:60]} exits 0")
    return out.getvalue()


def edit_json(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def first_line_replace(text: str, prefix: str, old: str, new: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(prefix) and old in line:
            lines[i] = line.replace(old, new, 1)
            return "\n".join(lines) + "\n"
    raise ValueError(f"no line starting {prefix!r} holds {old!r}")


def oracle_case(req, corruptions) -> None:
    check = oracles.CLI_ORACLES[req.kind]
    out = run_cli(req)
    expect(check(req, 0, out) is None, f"{req.kind} oracle accepts the real answer")
    expect(check(req, 2, out) is not None, f"{req.kind} oracle rejects exit code 2")
    for what, corrupt in corruptions:
        expect(check(req, 0, corrupt(out)) is not None, f"{req.kind} oracle rejects {what}")


def bump(path, key, delta=1):
    def change(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] += delta
    return lambda text: edit_json(text, change)


def cli_oracles() -> None:
    Request = workloads.Request
    fmt = ["--format", "json"]
    tab = ["--format", "table"]
    oracle_case(
        Request("hfl", ("hfl", 3), 3, ["hfl", "--n", "3"] + fmt, expect={"spinc_twice": None}),
        [("a computed rank one off", bump(("result", "computed", 0), "free_rank")),
         ("a closed-form rank one off", bump(("result", "closed_form", 2), "free_rank")),
         ("a failed check", lambda t: t.replace('"passed": true', '"passed": false'))],
    )
    oracle_case(
        Request("hfl", ("hfl", 3), 3, ["hfl", "--n", "3"] + tab, expect={"spinc_twice": None}),
        [("a rank one off in the table format",
          lambda t: first_line_replace(t, "  free_rank=1", "free_rank=1", "free_rank=2")),
         ("a torsion entry in the table format",
          lambda t: first_line_replace(t, "  free_rank=", "torsion=[]", "torsion=[2]"))],
    )
    spinc = Request(
        "hfl_spinc", ("hfl_spinc", 3), 3, ["hfl", "--n", "3", "--spinc=-3/2"] + fmt,
        expect={"spinc_twice": -3},
    )

    def drop_generator(doc):
        doc["result"]["complex"]["generators"].pop()

    oracle_case(
        spinc,
        [("a generator missing from the complex", lambda t: edit_json(t, drop_generator)),
         ("a grading one off", bump(("result", "computed", 0, "maslov"), "twice", 2))],
    )
    oracle_case(
        Request("whitehead", ("whitehead", 4), 4, ["whitehead", "--n", "4"] + tab),
        [("a rank one off", lambda t: first_line_replace(t, "  free_rank=2", "free_rank=2", "free_rank=3")),
         ("a ranks_by_maslov entry one off", lambda t: first_line_replace(t, "  -3:", "8", "9"))],
    )
    oracle_case(
        Request("whitehead", ("whitehead", 4), 4, ["whitehead", "--n", "4"] + fmt),
        [("a rank one off", bump(("result", "table", 0), "free_rank", -1))],
    )
    for f, corrupt in (
        (fmt, bump(("result",), "passed", -1)),
        (tab, lambda t: t.replace("passed: 15", "passed: 14")),
    ):
        oracle_case(
            Request("verify", ("verify", 3), 3, ["verify", "--max-n", "3"] + f),
            [("passed one short", corrupt)],
        )

    pd = workloads.pd_text(*workloads.shuffled_pd(3, random.Random(5)), shift=4)

    def repeat_crossing(doc):
        marks = doc["result"]["states"][0]["marks"]
        marks[0][1] = marks[1][1]

    def drop_state(doc):
        doc["result"]["states"].pop()

    oracle_case(
        Request("kauffman_pd", ("kauffman_pd", 3), 3,
                ["kauffman", "--pd", pd, "--list"] + fmt, expect={"pd": pd}),
        [("a state marking one crossing twice", lambda t: edit_json(t, repeat_crossing)),
         ("a state missing", lambda t: edit_json(t, drop_state)),
         ("the count one off", bump(("result",), "count"))],
    )
    oracle_case(
        Request("kauffman_n", ("kauffman_n", 4), 4, ["kauffman", "--n", "4", "--list"] + fmt,
                ),
        [("a Spin^c grading one off", bump(("result", "states", 2, "spinc"), "twice", 2)),
         ("a state missing", lambda t: edit_json(t, drop_state))],
    )
    companion, pattern = {-1: 1, 0: -1, 1: 1}, {-2: 2, -1: -3, 0: 3, 1: -3, 2: 2}
    oracle_case(
        Request("satellite", ("satellite", 3), 3,
                ["alexander", "satellite", "--companion=" + workloads.poly_text(companion),
                 "--pattern=" + workloads.poly_text(pattern), "--winding", "3"] + fmt,
                expect={"companion": companion, "pattern": pattern, "winding": 3}),
        [("a coefficient one off", bump(("result", "polynomial", "terms", 0), "coefficient"))],
    )


def homology_oracle() -> None:
    rng = random.Random(11)
    for dense in (False, True):
        doc, exp = workloads.torsion_complex(rng, 96, dense)
        req = workloads.Request("homology", ("homology", 0), len(doc["generators"]), doc=doc,
                                expect=exp)
        table = homology(GradedComplex.from_json_dict(doc))
        label = "dense" if dense else "sparse"
        expect(oracles.check_homology(req, table) is None,
               f"homology oracle accepts the real answer ({label})")
        entries = dict(table.items())
        key, summand = next(iter(entries.items()))
        rank_off = {**entries, key: GroupSummand(summand.free_rank + 1, summand.torsion)}
        expect(oracles.check_homology(req, HomologyTable(rank_off)) is not None,
               f"homology oracle rejects a rank one off ({label})")
        key, summand = next((k, s) for k, s in entries.items() if s.torsion)
        doubled = {**entries, key: GroupSummand(summand.free_rank, (2 * summand.torsion[0],) + summand.torsion[1:])}
        expect(oracles.check_homology(req, HomologyTable(doubled)) is not None,
               f"homology oracle rejects a torsion factor doubled ({label})")


def generators() -> None:
    rng = random.Random(3)
    planar = 0
    for n in range(1, 26):
        for _ in range(3):
            text = workloads.pd_text(*workloads.shuffled_pd(n, rng), shift=rng.randrange(4 * n + 2))
            diagram = PlanarDiagram.from_text(text)
            planar += len(regions(diagram)) == 2 * n + 3 and diagram.to_text() == text
    expect(planar == 75, "75 shuffled PD codes (n = 1..25) parse as planar diagrams")
    for seed in range(6):
        rng = random.Random(seed)
        doc, _ = workloads.torsion_complex(rng, 40 + 20 * seed, dense=seed % 2 == 0)
        size = len(doc["generators"])
        d = [[0] * size for _ in range(size)]
        for r, c, v in doc["differential"]:
            d[r][c] = v
        square_zero = all(
            sum(d[i][k] * d[k][j] for k in range(size) if d[i][k]) == 0
            for i in range(size) for j in range(size)
        )
        expect(square_zero, f"torsion complex seed {seed} ({size} generators) has d^2 = 0")
    a, b = workloads._unimodular(12, 40, random.Random(1))
    expect(workloads._matmul(a, b) == [[int(i == j) for j in range(12)] for i in range(12)],
           "change of basis A has inverse B")


if __name__ == "__main__":
    cli_oracles()
    homology_oracle()
    generators()
    print("selftest passed")
