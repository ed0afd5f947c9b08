"""End-to-end command-line behavior: outputs, exit codes, reproducibility."""

import json

import pytest

from cmwild.cli import main

FERMAT = {"vars": ["x", "y", "z"], "relations": ["x^4+y^4+z^4"], "p": 32003}
BINARY = {"vars": ["x", "y"], "relations": ["x^4+y^4"], "p": 32003}
CUBIC = {"vars": ["x", "y", "z"], "relations": ["x^3+y^3+z^3"], "p": 32003}
CI = {
    "vars": ["x0", "x1", "x2", "x3"],
    "relations": ["x0^3+x1^3+x2^3+x3^3", "x0*x1+x2*x3"],
    "p": 32003,
}
INSTANCE = {
    "ring": FERMAT,
    "sequence": ["x^2", "y^2"],
    "c": 4,
    "n": 1,
    "Ax": [[1]],
    "Ay": [[2]],
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ check


def test_check_text_verdict(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, out, _ = run(capsys, ["check", "--ring", ring])
    assert code == 0
    assert "verdict: CMWild (c = 4, dim = 3)" in out
    assert "c = 4   dim = 3" in out


def test_check_json_frozen(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, out, _ = run(capsys, ["check", "--ring", ring, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "cmwild/1"
    assert data["p"] == 32003 and data["seed"] == 0
    assert data["verdict"] == "CMWild"
    assert data["witness_c"] == 4 and data["witness_dim"] == 3
    assert data["scan"] == [{"c": 4, "dim": 3}, {"c": 5, "dim": 1}]
    assert data["sequence"] == ["x^2", "y^2"]


def test_check_byte_identical_reruns(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    _, out1, _ = run(capsys, ["check", "--ring", ring, "--format", "json"])
    _, out2, _ = run(capsys, ["check", "--ring", ring, "--format", "json"])
    assert out1 == out2
    assert out1.endswith("\n")


def test_check_user_sequence(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, out, _ = run(
        capsys,
        ["check", "--ring", ring, "--sequence", "x^2,y^2", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "CMWild"

    code, _, err = run(capsys, ["check", "--ring", ring, "--sequence", "x*y,y^2"])
    assert code == 2
    assert "not regular" in err


def test_check_window_override(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, out, _ = run(
        capsys, ["check", "--ring", ring, "--c-window", "5..9", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["window"] == [5, 5]
    assert data["verdict"] == "Inconclusive"


def test_inconclusive_note(tmp_path, capsys):
    ring = write(tmp_path, "r.json", CUBIC)
    code, out, _ = run(capsys, ["check", "--ring", ring])
    assert code == 0
    assert "verdict: Inconclusive" in out
    assert "does not mean not wild" in out
    _, out_json, _ = run(capsys, ["check", "--ring", ring, "--format", "json"])
    assert "does not mean not wild" in json.loads(out_json)["note"]


def test_field_char_override(tmp_path, capsys):
    ring = write(tmp_path, "r.json", {**FERMAT, "p": 32003})
    code, out, _ = run(
        capsys, ["check", "--ring", ring, "--field-char", "101", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 101 and data["ring"]["p"] == 101


# ------------------------------------------------- hypersurface and ci


def test_hypersurface_matches_check(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, out, _ = run(capsys, ["hypersurface", "--ring", ring, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "CMWild" and data["witness_c"] == 4


def test_hypersurface_rejects_two_relations(tmp_path, capsys):
    ring = write(tmp_path, "r.json", CI)
    code, _, err = run(capsys, ["hypersurface", "--ring", ring])
    assert code == 2
    assert "exactly one relation" in err


def test_ci_verdict(tmp_path, capsys):
    ring = write(tmp_path, "r.json", CI)
    code, out, _ = run(capsys, ["ci", "--ring", ring, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "CMWild"
    assert data["scan"][0] == {"c": 3, "dim": 3}


def test_ci_rejects_non_ci(tmp_path, capsys):
    bad = {"vars": ["x", "y"], "relations": ["x^2", "x*y"], "p": 32003}
    ring = write(tmp_path, "r.json", bad)
    code, _, err = run(capsys, ["ci", "--ring", ring])
    assert code == 2
    assert "complete intersection" in err


# ---------------------------------------------------- family / iso / verify


def test_family_pipeline(tmp_path, capsys):
    inst = write(tmp_path, "i.json", INSTANCE)
    code, out, _ = run(capsys, ["family", "--instance", inst])
    assert code == 0
    assert "mcm verified: True" in out
    assert "pass: shift-embedding" in out
    assert "pass: resolution-shape" in out
    assert "indecomposability: Indecomposable" in out

    code, out, _ = run(capsys, ["family", "--instance", inst, "--format", "json"])
    data = json.loads(out)
    assert data["schema"] == "cmwild/1"
    assert data["member"]["length"] == 14
    assert data["mcm"]["verified"] is True


def test_family_byte_identical(tmp_path, capsys):
    inst = write(tmp_path, "i.json", INSTANCE)
    _, out1, _ = run(capsys, ["family", "--instance", inst, "--format", "json"])
    _, out2, _ = run(capsys, ["family", "--instance", inst, "--format", "json"])
    assert out1 == out2


def test_iso_not_isomorphic(tmp_path, capsys):
    a = write(tmp_path, "a.json", INSTANCE)
    b = write(tmp_path, "b.json", {**INSTANCE, "Ay": [[3]]})
    code, out, _ = run(
        capsys, ["iso", "--instance", a, "--instance", b, "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "NotIsomorphic"
    assert data["solution_space_dim"] == 0


def test_iso_isomorphic_witness(tmp_path, capsys):
    a = write(
        tmp_path, "a.json",
        {**INSTANCE, "n": 2, "Ax": [[0, 1], [0, 0]], "Ay": [[1, 0], [0, 1]]},
    )
    b = write(
        tmp_path, "b.json",
        {**INSTANCE, "n": 2, "Ax": [[0, 7], [0, 0]], "Ay": [[1, 0], [0, 1]]},
    )
    code, out, _ = run(
        capsys, ["iso", "--instance", a, "--instance", b, "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "Isomorphic"
    assert data["witness"] is not None


def test_iso_needs_two_instances(tmp_path, capsys):
    a = write(tmp_path, "a.json", INSTANCE)
    code, _, err = run(capsys, ["iso", "--instance", a])
    assert code == 2
    assert "two" in err


def test_verify_subcommand(tmp_path, capsys):
    inst = write(tmp_path, "i.json", INSTANCE)
    code, out, _ = run(capsys, ["verify", "--instance", inst, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["mcm_verified"] is True
    assert data["shift_embedding"]["passed"] is True
    assert data["resolution_shape"]["passed"] is True


# ------------------------------------------------------ resolve / hilbert


def test_resolve_instance(tmp_path, capsys):
    inst = write(tmp_path, "i.json", INSTANCE)
    code, out, _ = run(capsys, ["resolve", "--instance", inst, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    betti = {(row["i"], row["j"]): row["rank"] for row in data["betti"]}
    assert betti[(0, 0)] == 1
    assert betti[(1, 2)] == 2 and betti[(1, 4)] == 1
    assert betti[(2, 4)] == 1 and betti[(2, 5)] == 2 and betti[(2, 6)] == 1


def test_resolve_ring_sequence_is_koszul(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, out, _ = run(
        capsys,
        ["resolve", "--ring", ring, "--sequence", "x^2,y^2", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [
        {"i": 0, "j": 0, "rank": 1},
        {"i": 1, "j": 2, "rank": 2},
        {"i": 2, "j": 4, "rank": 1},
    ]
    assert data["minimal"] is True


def test_resolve_needs_input(capsys):
    code, _, err = run(capsys, ["resolve"])
    assert code == 2
    assert "--instance or --ring" in err


def test_hilbert_artinian(tmp_path, capsys):
    ring = write(
        tmp_path, "r.json", {"vars": ["x", "y"], "relations": ["x^2", "y^3"], "p": 32003}
    )
    code, out, _ = run(capsys, ["hilbert", "--ring", ring, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["krull_dimension"] == 0
    assert data["hilbert_function"] == [[0, 1], [1, 2], [2, 2], [3, 1]]
    assert data["top_degree"] == 3


def test_hilbert_positive_dimension(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, out, _ = run(capsys, ["hilbert", "--ring", ring, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["krull_dimension"] == 2
    assert data["numerator"] == [[0, 1], [4, -1]]
    assert "hilbert_function" not in data


# ----------------------------------------------------------- exit codes


def test_nonhomogeneous_relation_names_polynomial(tmp_path, capsys):
    ring = write(
        tmp_path, "r.json", {"vars": ["x", "y"], "relations": ["x^3+y^2"], "p": 32003}
    )
    code, _, err = run(capsys, ["check", "--ring", ring])
    assert code == 2
    assert "x^3+y^2" in err and "not homogeneous" in err


def test_bad_window_and_char(tmp_path, capsys):
    ring = write(tmp_path, "r.json", FERMAT)
    code, _, err = run(capsys, ["check", "--ring", ring, "--c-window", "9..3"])
    assert code == 2 and "empty" in err
    code, _, err = run(capsys, ["check", "--ring", ring, "--c-window", "abc"])
    assert code == 2 and "a..b" in err
    code, _, err = run(capsys, ["check", "--ring", ring, "--field-char", "10"])
    assert code == 2 and "prime" in err


def test_missing_and_invalid_files(tmp_path, capsys):
    code, _, err = run(capsys, ["check", "--ring", str(tmp_path / "nope.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["check", "--ring", str(bad)])
    assert code == 2 and "not valid JSON" in err


def test_budget_exhausted_exit_code(tmp_path, capsys):
    # x is killed by every linear form: no regular element exists
    ring = write(
        tmp_path, "r.json", {"vars": ["x", "y"], "relations": ["x^2", "x*y"], "p": 32003}
    )
    code, _, err = run(capsys, ["check", "--ring", ring])
    assert code == 3
    assert "budget exhausted" in err


def test_instance_missing_ring_key(tmp_path, capsys):
    inst = write(tmp_path, "i.json", {"sequence": ["x^2"], "c": 3})
    code, _, err = run(capsys, ["family", "--instance", inst])
    assert code == 2
    assert "missing 'ring'" in err


@pytest.mark.parametrize("key", ["sequence", "c", "Ax"])
@pytest.mark.parametrize("command", ["family", "verify", "resolve", "iso"])
def test_instance_missing_key_is_named(tmp_path, capsys, command, key):
    bad = write(tmp_path, "bad.json", {k: v for k, v in INSTANCE.items() if k != key})
    good = write(tmp_path, "good.json", INSTANCE)
    argv = [command, "--instance", bad]
    if command == "iso":
        argv += ["--instance", good]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert f"missing {key!r}" in err


MALFORMED_RINGS = {
    "no-vars": {"relations": ["x^4+y^4"], "p": 32003},
    "array": [["x", "y"], ["x^4+y^4"]],
    "int-relation": {"vars": ["x", "y"], "relations": [3], "p": 32003},
    "int-var": {"vars": ["x", 2], "relations": ["x^2"], "p": 32003},
}
RING_COMMANDS = {
    "check": ["check"],
    "hypersurface": ["hypersurface"],
    "ci": ["ci"],
    "hilbert": ["hilbert"],
    "resolve": ["resolve", "--sequence", "x"],
}


@pytest.mark.parametrize("char", [[], ["--field-char", "101"]], ids=["file-p", "field-char"])
@pytest.mark.parametrize("bad", sorted(MALFORMED_RINGS))
@pytest.mark.parametrize("command", sorted(RING_COMMANDS))
def test_malformed_ring_file_is_an_input_error(tmp_path, capsys, command, bad, char):
    ring = write(tmp_path, "r.json", MALFORMED_RINGS[bad])
    code, out, err = run(capsys, [*RING_COMMANDS[command], "--ring", ring, *char])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_instance_ring_not_an_object(tmp_path, capsys):
    inst = write(tmp_path, "i.json", {**INSTANCE, "ring": ["x", "y", "z"]})
    code, _, err = run(capsys, ["family", "--instance", inst, "--field-char", "101"])
    assert code == 2
    assert "ring JSON" in err
