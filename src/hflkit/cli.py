"""Command-line interface.

Subcommands: hfl, whitehead, alexander (torus|satellite), kauffman,
verify.  Every command takes --format json|table (default from the
HFLKIT_FORMAT environment variable, else table) and emits the same data
either way.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any

from .complexes import euler_characteristic, homology
from .halfint import HalfInt
from .kauffman import (
    PlanarDiagram,
    build_torus_diagram,
    enumerate_states,
    regions,
    torus_states_with_gradings,
)
from .laurent import LaurentPoly
from .longitude import (
    build_hfl_complex,
    hfl_closed_form,
    hfl_compute,
    spinc_classes,
    verify_genus_and_fibered,
    verify_symmetry,
)
from .satellite import (
    SatelliteSpec,
    satellite_alexander,
    torus_alexander,
    whitehead_closed_form,
    whitehead_from_hfl,
    whitehead_hfk_one,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


@dataclass
class ReportDocument:
    command: str
    inputs: dict[str, Any]
    result: dict[str, Any]
    checks: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "checks": self.checks,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.inputs):
            lines.append(f"  {key} = {self.inputs[key]}")
        lines.extend(_render_result(self.result))
        for check in self.checks:
            flag = "pass" if check["passed"] else "FAIL"
            detail = f"  ({check['detail']})" if check.get("detail") else ""
            lines.append(f"check {check['name']}: {flag}{detail}")
        return "\n".join(lines) + "\n"


def _render_result(result: dict[str, Any], indent: str = "") -> list[str]:
    lines = []
    for key in sorted(result):
        value = result[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for row in value:
                cells = "  ".join(f"{k}={_cell(row[k])}" for k in sorted(row))
                lines.append(f"{indent}  {cells}")
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render_result(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {_cell(value)}")
    return lines


def _cell(value: Any) -> str:
    if isinstance(value, dict) and "str" in value:
        return str(value["str"])
    if isinstance(value, list):
        return "[" + ",".join(_cell(v) for v in value) + "]"
    return str(value)


def _poly_json(p: LaurentPoly) -> dict[str, Any]:
    return {
        "str": str(p),
        "terms": [
            {"exponent": e.as_json(), "coefficient": c} for e, c in p.terms()
        ],
    }


def _check(name: str, passed: bool, detail: str = "") -> dict[str, Any]:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _parse_spinc(text: str) -> HalfInt:
    try:
        s = HalfInt.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if s.is_integer:
        raise UsageError(
            f"Spin^c classes are strict half-integers like 3/2, got {text!r}"
        )
    return s


def _require_positive(value: int, flag: str) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return value


def cmd_hfl(args: argparse.Namespace) -> ReportDocument:
    n = _require_positive(args.n, "--n")
    wanted = _parse_spinc(args.spinc) if args.spinc else None

    closed = hfl_closed_form(n)
    result: dict[str, Any] = {}
    if wanted is None:
        computed = hfl_compute(n)
    else:
        cx = build_hfl_complex(n, wanted)
        computed = homology(cx)
        closed = closed.restrict(wanted)
        result["complex"] = cx.to_json_dict()
    result["computed"] = computed.to_json_list()
    result["closed_form"] = closed.to_json_list()

    agreement = computed == closed
    return ReportDocument(
        command="hfl",
        inputs={"n": n, "spinc": str(wanted) if wanted is not None else None},
        result=result,
        checks=[
            _check(
                "closed_form_agreement",
                agreement,
                "chain homology matches the closed form"
                if agreement
                else "chain homology disagrees with the closed form",
            )
        ],
    )


def cmd_whitehead(args: argparse.Namespace) -> ReportDocument:
    n = _require_positive(args.n, "--n")
    computed = whitehead_hfk_one(n)
    expected = whitehead_closed_form(n)
    ranks = {
        str(m): e.free_rank for (_, m), e in computed.items()
    }
    return ReportDocument(
        command="whitehead",
        inputs={"n": n},
        result={
            "table": computed.to_json_list(),
            "ranks_by_maslov": ranks,
        },
        checks=[
            _check(
                "closed_form_agreement",
                computed == expected,
                f"total rank {computed.total_free_rank()}",
            )
        ],
    )


def cmd_alexander_torus(args: argparse.Namespace) -> ReportDocument:
    n = _require_positive(args.n, "--n")
    from .kauffman import alexander_from_states

    closed = torus_alexander(n)
    state_sum = alexander_from_states(n)
    return ReportDocument(
        command="alexander torus",
        inputs={"n": n},
        result={"polynomial": _poly_json(closed)},
        checks=[
            _check(
                "state_sum_match",
                closed == state_sum,
                "closed form equals the Kauffman state sum",
            )
        ],
    )


def cmd_alexander_satellite(args: argparse.Namespace) -> ReportDocument:
    try:
        companion = LaurentPoly.parse(args.companion)
        pattern = LaurentPoly.parse(args.pattern)
        poly = satellite_alexander(SatelliteSpec(companion, pattern, args.winding))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return ReportDocument(
        command="alexander satellite",
        inputs={
            "companion": str(companion),
            "pattern": str(pattern),
            "winding": args.winding,
        },
        result={"polynomial": _poly_json(poly)},
        checks=[
            _check("symmetric", poly.is_symmetric(), "result is t -> 1/t symmetric")
        ],
    )


def cmd_kauffman(args: argparse.Namespace) -> ReportDocument:
    if args.pd:
        try:
            diagram = PlanarDiagram.from_text(args.pd)
            states = enumerate_states(diagram)  # rejects non-planar codes
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        result: dict[str, Any] = {
            "pd": diagram.to_text(),
            "crossings": diagram.n_crossings,
            "regions": len(regions(diagram)),
            "count": len(states),
        }
        if args.list:
            result["states"] = [
                {"marks": [list(mark) for mark in st.marks]} for st in states
            ]
        return ReportDocument(command="kauffman", inputs={"pd": args.pd}, result=result)

    if args.n is None:
        raise UsageError("one of --n or --pd is required")
    n = _require_positive(args.n, "--n")
    diagram = build_torus_diagram(n)
    graded = torus_states_with_gradings(n)
    result = {
        "pd": diagram.to_text(),
        "crossings": diagram.n_crossings,
        "regions": len(regions(diagram)),
        "count": len(graded),
    }
    if args.list:
        result["states"] = [
            {
                "index": i + 1,
                "spinc": s.as_json(),
                "maslov": m.as_json(),
                "marks": [list(mark) for mark in st.marks],
            }
            for i, (st, s, m) in enumerate(graded)
        ]
    expected = 2 * n + 1
    return ReportDocument(
        command="kauffman",
        inputs={"n": n, "list": bool(args.list)},
        result=result,
        checks=[
            _check(
                "state_count",
                len(graded) == expected,
                f"expected {expected} states",
            )
        ],
    )


def run_verification(max_n: int) -> list[dict[str, Any]]:
    """The one-shot suite: per-n checks against the published answers."""
    checks: list[dict[str, Any]] = []
    for n in range(1, max_n + 1):
        table = hfl_compute(n)
        closed = hfl_closed_form(n)
        failing = None
        for s in spinc_classes(n):
            if table.restrict(s) != closed.restrict(s):
                failing = s
                break
        checks.append(
            _check(
                f"closed_form[n={n}]",
                failing is None,
                f"first failing class s={failing}" if failing is not None else "",
            )
        )

        chi_failing = None
        for s in spinc_classes(n):
            if not euler_characteristic(build_hfl_complex(n, s)).is_zero():
                chi_failing = s
                break
        checks.append(
            _check(
                f"euler_zero[n={n}]",
                chi_failing is None,
                f"first failing class s={chi_failing}"
                if chi_failing is not None
                else "",
            )
        )

        checks.append(_check(f"symmetry[n={n}]", verify_symmetry(n, table)))
        checks.append(
            _check(f"genus_fibered[n={n}]", verify_genus_and_fibered(n, table))
        )
        checks.append(
            _check(
                f"whitehead_table[n={n}]",
                whitehead_from_hfl(table) == whitehead_closed_form(n),
            )
        )
    return checks


def cmd_verify(args: argparse.Namespace) -> ReportDocument:
    max_n = _require_positive(args.max_n, "--max-n")
    checks = run_verification(max_n)
    return ReportDocument(
        command="verify",
        inputs={"max_n": max_n},
        result={
            "total": len(checks),
            "passed": sum(1 for c in checks if c["passed"]),
        },
        checks=checks,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hflkit",
        description="Longitude Floer homology of (2,2n+1) torus knots, "
        "Kauffman states, and satellite Alexander polynomials.",
    )
    default_format = os.environ.get("HFLKIT_FORMAT", "table")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "table"),
            default=default_format,
            help="output format (default from HFLKIT_FORMAT, else table)",
        )

    p_hfl = sub.add_parser("hfl", help="longitude Floer homology table")
    p_hfl.add_argument("--n", type=int, required=True)
    p_hfl.add_argument("--spinc", help="restrict to one class, e.g. 3/2 or -1/2")
    add_format(p_hfl)
    p_hfl.set_defaults(handler=cmd_hfl)

    p_wh = sub.add_parser("whitehead", help="Whitehead double knot Floer table")
    p_wh.add_argument("--n", type=int, required=True)
    add_format(p_wh)
    p_wh.set_defaults(handler=cmd_whitehead)

    p_alex = sub.add_parser("alexander", help="Alexander polynomials")
    alex_sub = p_alex.add_subparsers(dest="which", required=True)
    p_torus = alex_sub.add_parser("torus", help="closed form for T(2,2n+1)")
    p_torus.add_argument("--n", type=int, required=True)
    add_format(p_torus)
    p_torus.set_defaults(handler=cmd_alexander_torus)
    p_sat = alex_sub.add_parser("satellite", help="satellite formula")
    p_sat.add_argument("--companion", required=True, help='e.g. "t^-1 - 1 + t"')
    p_sat.add_argument("--pattern", required=True, help='e.g. "1"')
    p_sat.add_argument("--winding", type=int, required=True)
    add_format(p_sat)
    p_sat.set_defaults(handler=cmd_alexander_satellite)

    p_kauf = sub.add_parser("kauffman", help="Kauffman state enumeration")
    p_kauf.add_argument("--n", type=int)
    p_kauf.add_argument("--pd", help="PD text, e.g. 'X(1,5,2,4),...,mark=1'")
    p_kauf.add_argument("--list", action="store_true")
    add_format(p_kauf)
    p_kauf.set_defaults(handler=cmd_kauffman)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


_NEGATIVE_HALFINT = re.compile(r"^-\d+(/2)?$")


def _join_negative_values(argv: list[str]) -> list[str]:
    # argparse reads "-1/2" as an option flag, so fold it into "--spinc=-1/2".
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if (
            tok == "--spinc"
            and i + 1 < len(argv)
            and _NEGATIVE_HALFINT.match(argv[i + 1])
        ):
            out.append(f"--spinc={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # A failed verify check is a verification failure; a failed check in any
    # other command means two computations disagree, an internal invariant.
    failed = [c for c in report.checks if not c["passed"]]
    if failed and report.command != "verify":
        print(f"internal invariant violated:\n{report.to_table()}", file=sys.stderr)
        return EXIT_INTERNAL
    if failed:
        first = failed[0]
        print(
            f"verification failed: {first['name']} {first['detail']}".rstrip(),
            file=sys.stderr,
        )
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_table())
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
