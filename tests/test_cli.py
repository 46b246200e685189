import json

import pytest

from dirmat import cli
from dirmat.network import Network


def run_ok(capsys, argv, code=0):
    rc = cli.run(argv)
    out, err = capsys.readouterr()
    assert rc == code, err or out
    return out


def test_star3_basis_listing(capsys):
    out = run_ok(capsys, ["matroid", "--gen", "star:3", "--list", "bases"])
    lines = out.splitlines()
    assert lines[0] == "6 bases"
    assert lines[1:] == [
        "{eh, f1}",
        "{eh, f2}",
        "{eh, f3}",
        "{f1, f2}",
        "{f1, f3}",
        "{f2, f3}",
    ]


def test_hexwheel_precoloring_text(capsys):
    out = run_ok(capsys, ["poly", "--gen", "hexwheel:3", "--precoloring"])
    assert out.strip() == "λ^3 - 6λ^2 + 14λ - 13"


def test_verify_duality_on_sunflower(capsys):
    out = run_ok(capsys, ["verify", "--gen", "sunflower:5", "--suite", "duality"])
    assert "ALL OK" in out


def test_rank_query(capsys):
    out = run_ok(capsys, ["matroid", "--gen", "path:3", "--rank", "e1,eh"])
    assert out.strip() == "rank({e1, eh}) = 2"
    # 67 edges: the answer needs no list of the network's crossings
    out = run_ok(capsys, ["matroid", "--gen", "random:21,4,0.3,1", "--rank", "eh"])
    assert out.strip() == "rank({eh}) = 1"


def test_validate_reports_embedding(capsys):
    out = run_ok(capsys, ["validate", "--gen", "wheatstone"])
    assert "4 vertices, 2 boundary, 5 edges" in out
    assert "r_b1" in out


def test_response_text(capsys):
    out = run_ok(
        capsys, ["electrical", "--gen", "path:3", "--response", "e1=3,e2=1/2"]
    )
    assert "3/7" in out
    assert "det D = 7/2" in out


def test_json_output_is_deterministic(capsys):
    argv = ["matroid", "--gen", "star:4", "--list", "circuits", "--json"]
    first = run_ok(capsys, argv)
    second = run_ok(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["kind"] == "circuits"
    assert payload["count"] == len(payload["sets"])


def test_seeded_json_sweep_is_deterministic(capsys):
    argv = [
        "electrical", "--gen", "triangle", "--identities",
        "--limit", "12", "--seed", "7", "--json",
    ]
    first = run_ok(capsys, argv)
    second = run_ok(capsys, argv)
    assert first == second
    assert json.loads(first)["all_ok"] is True


def test_missing_network_is_bad_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["matroid", "--list", "bases"])
    assert exc.value.code == 2


def test_conflicting_sources_fail(capsys, tmp_path):
    f = tmp_path / "net.json"
    f.write_text(json.dumps(Network(
        ["a", "b", "c"], ["a", "c"],
        [("e1", "a", "b"), ("e2", "b", "c")],
    ).to_json()))
    rc = cli.run(["matroid", "--gen", "star:3", "--file", str(f), "--list", "bases"])
    capsys.readouterr()
    assert rc == 1


def test_network_from_json_file(capsys, tmp_path):
    f = tmp_path / "net.json"
    f.write_text(json.dumps(Network(
        ["a", "b", "c"], ["a", "c"],
        [("e1", "a", "b"), ("e2", "b", "c")],
    ).to_json()))
    out = run_ok(capsys, ["matroid", "--file", str(f), "--rank", "e1,e2"])
    assert out.strip() == "rank({e1, e2}) = 2"


@pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe"])
def test_bad_json_file_is_domain_error(capsys, tmp_path, content):
    f = tmp_path / "bad.json"
    f.write_bytes(content)
    rc = cli.run(["validate", "--file", str(f)])
    out, err = capsys.readouterr()
    assert rc == 1 and not out
    assert err.startswith("error: invalid JSON")


def test_unknown_family_is_domain_error(capsys):
    rc = cli.run(["matroid", "--gen", "nosuch:3", "--list", "bases"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "unknown family" in err


def test_poly_requires_an_action(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["poly", "--gen", "triangle"])
    assert exc.value.code == 2


def test_dual_of_plain_network_fails_cleanly(capsys):
    rc = cli.run(["dual", "--gen", "path:3", "--build"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "circular" in err


def test_unknown_verb_is_bad_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_oversized_generator_hits_limit(capsys):
    rc = cli.run(["verify", "--gen", "star:99", "--suite", "oracles"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "limit" in err


def test_interlace_exit_codes(capsys):
    rc = cli.run(["electrical", "--gen", "path:3", "--interlace", "e1=2,e2=3", "e1=1,e2=1"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "interlace" in out.lower()
