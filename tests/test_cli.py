import json
from pathlib import Path

import jsonschema
import pytest

import hflkit.cli as cli
import hflkit.longitude as longitude
from hflkit import HomologyTable
from hflkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, out


def test_hfl_full_table(capsys):
    code, doc, _ = run_json(capsys, "hfl", "--n", "1")
    assert code == 0
    assert len(doc["result"]["computed"]) == 4
    assert doc["result"]["computed"] == doc["result"]["closed_form"]
    assert doc["checks"][0]["name"] == "closed_form_agreement"
    assert doc["checks"][0]["passed"] is True


def test_hfl_single_class(capsys):
    code, doc, _ = run_json(capsys, "hfl", "--n", "2", "--spinc", "3/2")
    assert code == 0
    gradings = {e["maslov"]["str"] for e in doc["result"]["computed"]}
    assert gradings == {"-3/2", "3/2"}
    assert "complex" in doc["result"]
    labels = {g["label"] for g in doc["result"]["complex"]["generators"]}
    assert labels == {"x(1,5)", "y(1,5)"}


def test_hfl_negative_class(capsys):
    code, doc, _ = run_json(capsys, "hfl", "--n", "2", "--spinc", "-1/2")
    assert code == 0
    gradings = {e["maslov"]["str"] for e in doc["result"]["computed"]}
    assert gradings == {"-3/2", "-1/2"}
    arrows = doc["result"]["complex"]["differential"]
    assert len(arrows) == 2


def test_hfl_class_above_genus_is_empty(capsys):
    code, doc, _ = run_json(capsys, "hfl", "--n", "1", "--spinc", "5/2")
    assert code == 0
    assert doc["result"]["computed"] == []
    assert doc["result"]["closed_form"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("hfl", "--n", "0"),
        ("hfl", "--n", "1", "--spinc", "2"),
        ("hfl", "--n", "1", "--spinc", "bogus"),
        ("whitehead", "--n", "0"),
        ("kauffman", "--n", "0"),
        ("kauffman",),
        ("verify", "--max-n", "0"),
        ("alexander", "satellite", "--companion", "x+", "--pattern", "1", "--winding", "0"),
        ("alexander", "satellite", "--companion", "1+2t", "--pattern", "1", "--winding", "0"),
        ("kauffman", "--pd", "X(1,1,2,3),X(2,4,3,4),mark=1"),  # not planar
        # t^(1/2) makes the product uncenterable by a whole shift
        ("alexander", "satellite", "--companion", "1 + t^1/2", "--pattern", "1", "--winding", "1"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err


def test_unknown_flag_exits_2(capsys):
    assert main(["hfl", "--bogus"]) == 2
    capsys.readouterr()


def test_whitehead_table(capsys):
    code, doc, _ = run_json(capsys, "whitehead", "--n", "2")
    assert code == 0
    assert doc["result"]["ranks_by_maslov"] == {"2": 2, "0": 2, "-1": 4}
    assert doc["checks"][0]["passed"] is True


def test_alexander_torus(capsys):
    code, doc, _ = run_json(capsys, "alexander", "torus", "--n", "2")
    assert code == 0
    assert doc["result"]["polynomial"]["str"] == "t^-2 - t^-1 + 1 - t + t^2"


def test_alexander_satellite_whitehead_trivial(capsys):
    code, doc, _ = run_json(
        capsys,
        "alexander", "satellite",
        "--companion", "t^-1-1+t", "--pattern", "1", "--winding", "0",
    )
    assert code == 0
    assert doc["result"]["polynomial"]["str"] == "1"


def test_alexander_satellite_identity(capsys):
    code, doc, _ = run_json(
        capsys,
        "alexander", "satellite",
        "--companion", "t^-1-1+t", "--pattern", "1", "--winding", "1",
    )
    assert code == 0
    assert doc["result"]["polynomial"]["str"] == "t^-1 - 1 + t"


def test_kauffman_count_and_list(capsys):
    code, doc, _ = run_json(capsys, "kauffman", "--n", "3")
    assert code == 0
    assert doc["result"]["count"] == 7

    code, doc, _ = run_json(capsys, "kauffman", "--n", "1", "--list")
    rows = [
        (s["spinc"]["str"], s["maslov"]["str"]) for s in doc["result"]["states"]
    ]
    assert rows == [("-1", "0"), ("0", "1"), ("1", "2")]


def test_kauffman_pd_input(capsys):
    pd = "X(1,5,2,4),X(5,3,6,2),X(3,1,4,6),mark=1"
    code, doc, _ = run_json(capsys, "kauffman", "--pd", pd, "--list")
    assert code == 0
    assert doc["result"]["count"] == 3
    assert doc["result"]["regions"] == 5
    assert len(doc["result"]["states"]) == 3

    # The one-crossing curl is a valid diagram with a single state.
    code, doc, _ = run_json(capsys, "kauffman", "--pd", "X(1,1,2,2),mark=1")
    assert code == 0
    assert doc["result"]["count"] == 1

    code, out, err = run(capsys, "kauffman", "--pd", "X(1,1,1,2),mark=1")
    assert code == 2


def test_verify_passes(capsys):
    code, doc, _ = run_json(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert doc["result"]["total"] == doc["result"]["passed"] == 15
    names = {c["name"] for c in doc["checks"]}
    assert "closed_form[n=2]" in names
    assert "whitehead_table[n=3]" in names


def test_verify_failure_names_culprit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_symmetry", lambda n, table: n != 2)
    code, out, err = run(capsys, "verify", "--max-n", "3")
    assert code == 1
    assert "symmetry[n=2]" in err
    assert "FAIL" in out


@pytest.mark.parametrize(
    "argv,calls",
    [
        (("verify", "--max-n", "3"), 2 + 4 + 6),  # one table per n, 2n classes each
        (("hfl", "--n", "3", "--spinc", "1/2"), 1),
    ],
)
def test_each_class_homology_is_computed_once(capsys, monkeypatch, argv, calls):
    real = longitude.homology
    seen = []

    def counting(cx):
        seen.append(cx)
        return real(cx)

    monkeypatch.setattr(longitude, "homology", counting)
    monkeypatch.setattr(cli, "homology", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(seen) == calls


def test_internal_invariant_breach_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "hfl_compute", lambda n: HomologyTable())
    code, out, err = run(capsys, "hfl", "--n", "1")
    assert code == 3
    assert "internal invariant" in err


def test_json_output_is_byte_stable(capsys):
    _, _, first = run_json(capsys, "hfl", "--n", "2")
    _, _, second = run_json(capsys, "hfl", "--n", "2")
    assert first == second


@pytest.mark.parametrize(
    "name,argv",
    [
        ("hfl-n1.json", ["hfl", "--n", "1"]),
        ("whitehead-n2.json", ["whitehead", "--n", "2"]),
        ("alexander-torus-n2.json", ["alexander", "torus", "--n", "2"]),
        ("kauffman-n1-list.json", ["kauffman", "--n", "1", "--list"]),
        ("verify-max-n3.json", ["verify", "--max-n", "3"]),
        ("hfl-n2-spinc-m1_2.json", ["hfl", "--n", "2", "--spinc", "-1/2"]),
    ],
)
def test_golden_files(capsys, name, argv):
    code, _, out = run_json(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_table_format_carries_same_data(capsys):
    code, doc, _ = run_json(capsys, "whitehead", "--n", "2")
    code, table_out, _ = run(capsys, "whitehead", "--n", "2", "--format", "table")
    assert code == 0
    for entry in doc["result"]["table"]:
        assert entry["maslov"]["str"] in table_out
        assert f"free_rank={entry['free_rank']}" in table_out
    assert "closed_form_agreement: pass" in table_out


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("HFLKIT_FORMAT", "json")
    code, out, _ = run(capsys, "alexander", "torus", "--n", "1")
    assert code == 0
    assert json.loads(out)["command"] == "alexander torus"

    monkeypatch.setenv("HFLKIT_FORMAT", "table")
    code, out, _ = run(capsys, "alexander", "torus", "--n", "1")
    assert out.startswith("command: alexander torus")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
