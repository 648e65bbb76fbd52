"""Answer checks for every benchmark request, independent of the engine.

Each oracle re-derives the expected answer from closed forms or plain
dict arithmetic written here, parses the program's output (JSON or the
table format) and returns None when it agrees, else a one-line reason.
Nothing here imports hflkit; library results are read through their
public ``items()`` view only.
"""

from __future__ import annotations

import json
from typing import Any

from workloads import Request, torus_pd


def _twice(text: str) -> int:
    """Doubled value of a half-integer written as '3', '-3' or '-3/2'."""
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


def _section(out: str, key: str) -> list[str]:
    """Indented lines under the top-level heading ``key:`` of a table report."""
    lines = out.splitlines()
    try:
        start = lines.index(f"{key}:") + 1
    except ValueError:
        return []
    body = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        body.append(line)
    return body


def _cells(line: str) -> dict[str, str]:
    return dict(cell.split("=", 1) for cell in line.split())


def _table_rows(doc: Any, out: str, key: str) -> set[tuple]:
    """Homology rows as {(spinc_twice, maslov_twice, free_rank, torsion)}."""
    if doc is not None:
        return {
            (e["spinc"]["twice"], e["maslov"]["twice"], e["free_rank"], tuple(e["torsion"]))
            for e in doc["result"][key]
        }
    rows = set()
    for line in _section(out, key):
        if line.startswith("    "):
            continue
        c = _cells(line)
        torsion = c["torsion"].strip("[]")
        rows.add(
            (
                _twice(c["spinc"]),
                _twice(c["maslov"]),
                int(c["free_rank"]),
                tuple(int(t) for t in torsion.split(",")) if torsion else (),
            )
        )
    return rows


def _checks_pass(doc: Any, out: str) -> bool:
    if doc is not None:
        return bool(doc["checks"]) and all(c["passed"] for c in doc["checks"])
    flags = [line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("check ")]
    return bool(flags) and all(f.startswith("pass") for f in flags)


def hfl_closed_form(n: int) -> dict[tuple[int, int], int]:
    """{(spinc_twice, maslov_twice): rank}: Z at -n+1/2 and Z at eps(s)*s per class."""
    out: dict[tuple[int, int], int] = {}
    bottom = 1 - 2 * n
    for s in range(1 - 2 * n, 2 * n, 2):
        eps = -1 if ((2 * n - 1 - s) // 2) % 2 else 1
        for m in (bottom, eps * s):
            out[(s, m)] = out.get((s, m), 0) + 1
    return out


def whitehead_closed_form(n: int) -> dict[tuple[int, int], int]:
    """Rank 2 at n, n-2, ..., -n+2 and rank 2n at -n+1, all at Spin^c 1."""
    out = {(2, 2 * (1 - n)): 2 * n}
    for mu in range(n, -n + 1, -2):
        out[(2, 2 * mu)] = out.get((2, 2 * mu), 0) + 2
    return out


def _as_rows(table: dict[tuple[int, int], int]) -> set[tuple]:
    return {(s, m, rank, ()) for (s, m), rank in table.items()}


def _load(req: Request, out: str) -> Any:
    """The parsed report, or None for the table format (argv ends --format FMT)."""
    return json.loads(out) if req.argv[-1] == "json" else None


def check_hfl(req: Request, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = _load(req, out)
    n = req.size
    spinc = req.expect["spinc_twice"]
    expected = hfl_closed_form(n)
    if spinc is not None:
        expected = {k: v for k, v in expected.items() if k[0] == spinc}
    for key in ("computed", "closed_form"):
        if _table_rows(doc, out, key) != _as_rows(expected):
            return f"{key} table differs from the closed form"
    if spinc is not None:
        delta = (spinc + 2 * n + 1) // 2
        if doc is not None:
            gens = len(doc["result"]["complex"]["generators"])
        else:
            gens = sum(1 for line in _section(out, "complex") if line.startswith("    label="))
        if gens != 2 * (2 * n + 1 - delta):
            return f"complex has {gens} generators, expected {2 * (2 * n + 1 - delta)}"
    if not _checks_pass(doc, out):
        return "a check did not pass"
    return None


def check_whitehead(req: Request, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = _load(req, out)
    expected = whitehead_closed_form(req.size)
    if _table_rows(doc, out, "table") != _as_rows(expected):
        return "table differs from the closed form"
    if doc is not None:
        ranks = {int(m): r for m, r in doc["result"]["ranks_by_maslov"].items()}
    else:
        ranks = {
            int(m): int(r)
            for m, r in (line.split(":") for line in _section(out, "ranks_by_maslov"))
        }
    if ranks != {m // 2: r for (_, m), r in expected.items()}:
        return "ranks_by_maslov differs from the closed form"
    if not _checks_pass(doc, out):
        return "a check did not pass"
    return None


def check_verify(req: Request, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = _load(req, out)
    if doc is not None:
        passed, total = doc["result"]["passed"], doc["result"]["total"]
    else:
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        passed, total = int(fields["passed"]), int(fields["total"])
    if not passed == total == 5 * req.size:
        return f"passed={passed} total={total}, expected both {5 * req.size}"
    if not _checks_pass(doc, out):
        return "a check did not pass"
    return None


def _check_states(result: dict, n: int) -> str | None:
    crossings = 2 * n + 1
    if result["crossings"] != crossings or result["regions"] != crossings + 2:
        return f"{result['crossings']} crossings / {result['regions']} regions for n={n}"
    states = result["states"]
    if result["count"] != crossings or len(states) != crossings:
        return f"{result['count']} states listed as {len(states)}, expected {crossings}"
    seen = set()
    for st in states:
        marks = [tuple(m) for m in st["marks"]]
        if sorted(c for _, c, _ in marks) != list(range(crossings)):
            return "a state does not mark every crossing exactly once"
        regions = {r for r, _, _ in marks}
        if len(regions) != crossings or not regions <= set(range(crossings + 2)):
            return "a state does not mark distinct regions"
        if any(not 0 <= q < 4 for _, _, q in marks):
            return "a mark names a quadrant outside 0..3"
        seen.add(tuple(marks))
    if len(seen) != crossings:
        return "a state is listed twice"
    return None


def check_kauffman_pd(req: Request, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    result = json.loads(out)["result"]
    if result["pd"] != req.expect["pd"]:
        return "echoed PD code differs from the input"
    return _check_states(result, req.size)


def check_kauffman_n(req: Request, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    result = doc["result"]
    n = req.size
    pd = ",".join("X(%d,%d,%d,%d)" % entry for entry in torus_pd(n)) + ",mark=1"
    if result["pd"] != pd:
        return "PD code differs from the standard T(2,2n+1) diagram"
    reason = _check_states(result, n)
    if reason:
        return reason
    for i, st in enumerate(result["states"], start=1):
        if (st["index"], st["spinc"]["twice"], st["maslov"]["twice"]) != (
            i, 2 * (i - n - 1), 2 * (i - 1)
        ):
            return f"state {i} has the wrong index or gradings"
    if not _checks_pass(doc, out):
        return "a check did not pass"
    return None


def satellite_expected(companion: dict, pattern: dict, winding: int) -> dict[int, int]:
    """Delta_C(t^w) * Delta_P(t), centred, top coefficient positive; exponents doubled."""
    product: dict[int, int] = {}
    for e1, c1 in companion.items():
        for e2, c2 in pattern.items():
            e = 2 * (winding * e1 + e2)
            product[e] = product.get(e, 0) + c1 * c2
    product = {e: c for e, c in product.items() if c}
    if not product:
        return {}
    mid = (min(product) + max(product)) // 2
    product = {e - mid: c for e, c in product.items()}
    sign = 1 if product[max(product)] > 0 else -1
    return {e: sign * c for e, c in product.items()}


def check_satellite(req: Request, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    got = {t["exponent"]["twice"]: t["coefficient"] for t in doc["result"]["polynomial"]["terms"]}
    e = req.expect
    if got != satellite_expected(e["companion"], e["pattern"], e["winding"]):
        return "satellite polynomial differs from the dict arithmetic"
    if not _checks_pass(doc, out):
        return "a check did not pass"
    return None


def prime_powers(k: int) -> list[int]:
    """Prime-power factors of k, e.g. 12 -> [4, 3]."""
    out = []
    p = 2
    while k > 1:
        if k % p == 0:
            q = 1
            while k % p == 0:
                k //= p
                q *= p
            out.append(q)
        p += 1
    return out


def check_homology(req: Request, table: Any) -> str | None:
    """Compare free ranks and elementary divisors with the construction."""
    spinc = req.expect["spinc_twice"]
    got: dict[int, tuple[int, list[int]]] = {}
    for (s, m), summand in table.items():
        if s.twice != spinc:
            return f"homology in Spin^c {s}, expected only {spinc}/2"
        powers = sorted(p for t in summand.torsion for p in prime_powers(t))
        got[m.twice] = (summand.free_rank, powers)
    expected = {m: (free, list(powers)) for m, (free, powers) in req.expect["homology"].items()}
    if got != expected:
        return "free ranks or elementary divisors differ from the construction"
    return None


CLI_ORACLES = {
    "hfl": check_hfl,
    "hfl_spinc": check_hfl,
    "whitehead": check_whitehead,
    "verify": check_verify,
    "kauffman_pd": check_kauffman_pd,
    "kauffman_n": check_kauffman_n,
    "satellite": check_satellite,
}
