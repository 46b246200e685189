import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_verify_accepts_every_suite_name(capsys):
    out = run_ok(capsys, ["verify", "--gen", "star:3", "--suite", "polynomials"])
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


_PATH = {"vertices": ["a", "b", "c"], "boundary": ["a", "c"],
         "edges": [["a", "b", "e1"], ["b", "c", "e2"]]}


@pytest.mark.parametrize("data", [
    dict(_PATH, edges=5),
    dict(_PATH, vertices=5),
    dict(_PATH, boundary="ac"),
    dict(_PATH, edges=[[["a"], "b"], ["b", "c"]]),
    dict(_PATH, edges=[["a", "b", 1], ["b", "c", "e2"]]),
    {"vertices": [1, 2, 3], "boundary": [1, 3], "edges": [[1, 2], [2, 3]]},
    dict(_PATH, name=[1]),
], ids=["edges-int", "vertices-int", "boundary-str", "list-endpoint",
        "int-label", "int-vertices", "list-name"])
def test_malformed_network_file_is_domain_error(capsys, tmp_path, data):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    for verb in (["validate"], ["rep", "--check"]):
        rc = cli.run(verb + ["--file", str(f)])
        out, err = capsys.readouterr()
        assert rc == 1 and not out
        assert err.startswith("error: ") and "Traceback" not in err


def test_embedding_file_format_is_checked(capsys, tmp_path):
    from dirmat.families import wheatstone

    data = wheatstone().to_json()
    f = tmp_path / "wheatstone.json"
    f.write_text(json.dumps(data))
    out = run_ok(capsys, ["dual", "--file", str(f), "--build"])
    assert "rim arcs" in out
    # the same drawing with its embedding keys at the top level is refused,
    # not loaded as a plain network; so is a list inside a rotation
    flat = dict(data)
    flat.update(flat.pop("embedding"))
    nested = json.loads(json.dumps(data))
    nested["embedding"]["rotation"]["b1"][0] = ["e1"]
    for bad, word in [(flat, "embedding"), (nested, "rotation")]:
        f.write_text(json.dumps(bad))
        rc = cli.run(["dual", "--file", str(f), "--build"])
        out, err = capsys.readouterr()
        assert rc == 1 and not out
        assert err.startswith("error: ") and word in err


@pytest.mark.parametrize("spec", ["random:5,2,abc", "random:x,2"])
def test_bad_random_generator_is_domain_error(capsys, spec):
    rc = cli.run(["validate", "--gen", spec])
    out, err = capsys.readouterr()
    assert rc == 1 and not out
    assert err.startswith("error: ")
    assert "random:n,m[,density[,seed]]" in err


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


@pytest.mark.parametrize("argv,message", [
    (["electrical", "--gen", "star:3", "--hpp-sample"], "need at least one trial"),
    (["electrical", "--gen", "star:3", "--bound-sample"], "need at least one trial"),
    (["poly", "--hexwheel-scan"], "the scan starts at m = 3"),
    (["electrical", "--gen", "wheatstone", "--identities", "--limit"], "need at least one trial"),
], ids=["hpp-sample", "bound-sample", "hexwheel-scan", "identities"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_nonpositive_count_is_domain_error(capsys, argv, message, count):
    # a count of 0 is an option given, not one left out
    rc = cli.run(argv + [count])
    out, err = capsys.readouterr()
    assert rc == 1 and not out
    assert err == f"error: {message}\n"


def test_grove_listing_over_the_limit_exits_1():
    # 2,663,040 groves: counted and refused, where listing them ran unbounded
    cmd = [sys.executable, "-m", "dirmat.cli", "electrical", "--gen", "random:12,3,0.4,1",
           "--identities"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: 2663040 groves exceeds the grove limit 100000\n"


def test_theorem_check_over_the_bond_budget_exits_1(capsys):
    # 2^24 vertex bipartitions: refused before the bond scan starts
    rc = cli.run(["dual", "--gen", "sunflower:24", "--theorem-check"])
    out, err = capsys.readouterr()
    assert rc == 1 and not out
    assert err == (
        "error: cocircuit search: 16777216 vertex bipartitions exceed its "
        "node budget of 4000000\n"
    )


def test_interlace_exit_codes(capsys):
    rc = cli.run(["electrical", "--gen", "path:3", "--interlace", "e1=2,e2=3", "e1=1,e2=1"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "interlace" in out.lower()


# sha256 of the stdout of seeded `--json` reports: the same input and seed
# give the same bytes from one version to the next. The hpp-sample witnesses
# name variable pairs, so a change of variable order shows here.
GOLDEN = [
    (["electrical", "--gen", "triangle", "--identities", "--limit", "20"],
     "e60e0f067c44134859180480a3ff08274ebda4fb2c23d6679788f1434554b634"),
    (["electrical", "--gen", "star:4", "--identities", "--limit", "20", "--seed", "1"],
     "383d2f23b1712a649fe825ce9464bb596f17ca389659c33ae42c5d5333f6b259"),
    (["electrical", "--gen", "star:4", "--hpp-sample", "5"],
     "c246a795ea3af101b822b3b2052eeda452cfc8d6b1b49b1c7905ff4551495675"),
    (["electrical", "--gen", "hexwheel:4", "--hpp-sample", "2", "--seed", "3"],
     "414af343f6b11a4e4d8e40c482958701a2344801e2a5ddb80f1dfb1997db01f5"),
    (["electrical", "--gen", "triangle", "--bound-sample", "8"],
     "691c4cd0c3f6e95d3b87f8b3a65d9051e175526f5794c2c31513bc9813420c4e"),
    (["electrical", "--gen", "double_path", "--bound-sample", "6", "--seed", "2"],
     "97019144c33ff7f1af49d088ad49cad17a7a8734e702a1a7ea62dda3dad32b85"),
    (["electrical", "--gen", "triangle", "--interlace",
      "e1=1,e2=-2,e3=0,e4=3/2,e5=1", "e1=1,e2=2,e3=3,e4=1/2,e5=5"],
     "0af89e8f438b9331aa27395ebd2876b3c3a7fc61c4be7129724fbdce7797d413"),
    (["electrical", "--gen", "star:4", "--interlace", "f1=0,f2=-1,f3=2/3,f4=5", "f1=1,f2=1,f3=2,f4=3"],
     "96655490071b749d31dff0792c8076f9ba8804c65fef4f11c68ab85607cdb171"),
    # verbs that read the graph code: dual networks, chromatic polynomials,
    # bond scans and vertex cuts
    (["dual", "--gen", "sunflower:4", "--build"],
     "d0c4aa1cdb962864c8d20086e734762c6e18b195e505673563fe5fe40b6684ad"),
    (["dual", "--gen", "sunflower:4", "--theorem-check"],
     "7a123eeeb644f14348f611669b102f97f3af35df6a0364835a6afa6d777c9a64"),
    (["poly", "--gen", "hexwheel:4", "--chromatic"],
     "68f014349c8c63bef5788cab478ba31855eb77bf91849f4ff608ab82f97a28cf"),
    (["poly", "--gen", "random:7,3,0.5,2", "--compare-cpintro"],
     "7609d2c10a5387a00dddcd7c5c2b18fd0d31531715ce7a79dfa7c26700eaa23b"),
    (["matroid", "--gen", "random:8,3,0.5,5", "--connectivity"],
     "176bb959aa75aa9e8f57fa6ee5683174a0d91532f7aa481990f2a43b48f8f99d"),
    (["matroid", "--gen", "double_path", "--connectivity"],
     "37944f995f245b7842adb25b5ec154cacb379909b5fa143323318d1513be8e87"),
    # the integer kernels: the Schur complement at points with negative,
    # zero and fractional weights, and the Sturm chains of an interlacing line
    (["electrical", "--gen", "sunflower:4", "--response",
      "a1=3,a2=-1/2,a3=0,a4=5/3,b1=2,b2=7,b3=-4,b4=1/6,g1=1,g2=9/4,g3=-2/5,g4=3"],
     "67f3ce09414d5b3a6c0d5cc5a0bd10288d40ae97401a7172be7b421e91d86a97"),
    (["electrical", "--gen", "wheatstone", "--response", "e1=1,e2=2/3,e3=-5,e4=0,e5=7/2"],
     "168958b173b439c03b15f98831250f0b6fc6788e866f48b1e0b95d68bc71aa76"),
    (["electrical", "--gen", "sunflower:4", "--identities", "--limit", "10", "--seed", "2"],
     "23de85f5230a2f8aeb4572a32bda4c4833f9bad4c82da709c524e3db205c6c1e"),
    (["electrical", "--gen", "sunflower:4", "--bound-sample", "3", "--seed", "1"],
     "3cd489d343437d8282a713d10da4ed19ef4d0eca9800745c60d4a0a2a297291f"),
    (["electrical", "--gen", "hexwheel:5", "--interlace",
      "c1=1,c2=-3,c3=0,c4=5/2,c5=2,p1=-1,p2=4,p3=1/3,p4=0,p5=6",
      "c1=1,c2=2,c3=3,c4=1/2,c5=5,p1=7,p2=1,p3=2/3,p4=4,p5=3/2"],
     "2c3e78f5c7b304e02798c7dd611bae3ac202203d85df25d740cfffcbd799c123"),
    # identity points whose 15 pair polynomials share one node table with P0
    (["electrical", "--gen", "hexwheel:6", "--identities", "--limit", "10"],
     "7a242efba038a6da4b6b97fa53595bf2255f70a01fe32a4aad0e28d9c746a967"),
]

# the same for plain-text reports, which the commands print without --json
GOLDEN_TEXT = [
    (["electrical", "--gen", "hexwheel:6", "--identities", "--limit", "10"],
     "c11d91fcc0e77cd273827660c42f4d600c90db4e3d58d940e771c8a52d7d2481"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a[2:4]) for a, _ in GOLDEN])
def test_electrical_json_bytes_are_pinned(capsys, argv, digest):
    out = run_ok(capsys, argv + ["--json"])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", GOLDEN_TEXT,
                         ids=[" ".join(a[2:4]) for a, _ in GOLDEN_TEXT])
def test_text_report_bytes_are_pinned(capsys, argv, digest):
    out = run_ok(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
