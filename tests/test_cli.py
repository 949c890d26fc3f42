import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realcoh.cli as cli
from realcoh import linalg
from realcoh.catalog import list_names
from realcoh.cli import _fmt_mat, _parse_mat, main
from realcoh.field import FieldTower
from realcoh.linalg import RealStructure, mat_from_ints, minverse, mmul

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- h1 ----------------------------------------------------------------------------


def test_h1_catalog_so23(capsys):
    code, out = run(capsys, "h1", "catalog:so(2,3)")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3
    assert data["verified"] is True
    assert len(data["classes"]) == 3
    assert data["classes"][0]["representative"][0][0] == "1"


def test_h1_deterministic_bytes(capsys):
    _, out1 = run(capsys, "h1", "catalog:o(2)")
    _, out2 = run(capsys, "h1", "catalog:o(2)")
    assert out1 == out2


def test_h1_text_format(capsys):
    code, out = run(capsys, "--format=text", "h1", "catalog:torus:fe")
    assert code == 0
    assert "2 classes" in out
    assert "signs" in out
    assert "verified: true" in out


def test_h1_nonconnected_reports_non_lifting(capsys):
    code, out = run(capsys, "h1", "catalog:n-sl2-t-compact")
    assert code == 0  # non-lifting is a definite answer, not a blockage
    data = json.loads(out)
    assert data["order"] == 2
    assert data["non_lifting"] == [1]
    assert data["blocked"] == []


@pytest.mark.parametrize("name", list_names())
def test_h1_from_emitted_json_round_trip(tmp_path, capsys, name):
    # h1 on the emitted file reproduces the catalog report byte for byte
    _, emitted = run(capsys, "catalog", "emit", name)
    path = tmp_path / "group.json"
    path.write_text(emitted)
    code, out = run(capsys, "h1", str(path))
    assert code == 0
    assert out == run(capsys, "h1", f"catalog:{name}")[1]


@pytest.mark.parametrize("name", ["so(2,3)", "so(3,4)", "so(4,5)",
                                  "sl(4,r)", "su(3,0)", "su(2,1)"])
def test_h1_from_basis_and_real_structure_only(tmp_path, capsys, name):
    # the Cartan subalgebra of k is computed from the basis alone, so a file
    # with no other group data gives the catalog report byte for byte; on
    # these names the fixed draw of SCAlgebra.cartan_subalgebra would leave
    # the square-root tower or give other representatives
    _, emitted = run(capsys, "catalog", "emit", name)
    data = json.loads(emitted)
    path = tmp_path / "group.json"
    path.write_text(json.dumps({key: data[key] for key in (
        "name", "kind", "n", "lie_basis", "N_sigma")}))
    code, out = run(capsys, "h1", str(path))
    assert code == 0
    assert out == run(capsys, "h1", f"catalog:{name}")[1]


def test_h1_blocked_classes_exit_partial(capsys, monkeypatch):
    # exit code 2 signals a partial report when a component is blocked
    real = cli.h1_nonconnected

    def fake(group, **kw):
        res = real(group, **kw)
        res.blocked.append((1, "square-root-unavailable"))
        return res

    monkeypatch.setattr(cli, "h1_nonconnected", fake)
    code, out = run(capsys, "h1", "catalog:o(2)")
    assert code == 2
    data = json.loads(out)
    assert data["blocked"] == [{"component": 1,
                                "code": "square-root-unavailable"}]


def test_h1_o12_file_needs_no_cartan_data(tmp_path, capsys):
    # O(1,2): identity component SO(1,2)^0, components diag(+-1, +-1, 1),
    # pi0 = Z/2 x Z/2 with trivial gamma; the Cartan decomposition is
    # computed, and the three twisted components stay blocked
    _, emitted = run(capsys, "catalog", "emit", "so(1,2)")
    so12 = json.loads(emitted)

    def diag(a, b):
        return [[str(a), "0", "0"], ["0", str(b), "0"], ["0", "0", "1"]]

    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "kind": "nonconnected", "lie_basis": so12["lie_basis"],
        "N_sigma": so12["N_sigma"],
        "component_reps": [diag(1, 1), diag(1, -1), diag(-1, 1),
                           diag(-1, -1)],
        "pi0_table": [[i ^ j for j in range(4)] for i in range(4)],
        "pi0_gamma": [0, 1, 2, 3]}))
    code, out = run(capsys, "h1", str(path))
    assert code == 2
    data = json.loads(out)
    assert data["order"] == 2
    assert data["verified"] is True
    assert data["blocked"] == [{"component": c, "code": "twist-data-required"}
                               for c in (1, 2, 3)]


# -- equiv -------------------------------------------------------------------------


def test_equiv_listed_representative(tmp_path, capsys):
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
    code, out = run(capsys, "equiv", "catalog:sl(2,r)",
                    "--cocycle", str(z))
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 0
    assert data["witness"] == [["1", "0"], ["0", "1"]]
    assert data["verified"] is True


def test_equiv_twisted_cocycle(tmp_path, capsys):
    # s^-1 * 1 * gamma(s) for a complex point s of SO(2,3)
    _, listing = run(capsys, "h1", "catalog:torus:f")
    reps = json.loads(listing)["classes"]
    # twist the nontrivial compact-torus class by a complex point
    # [[a, b], [-b, a]] with a = 5/4, b = 3/4 i
    z = tmp_path / "z.json"
    z.write_text(json.dumps([
        ["-17/8", "-15/8*i"],
        ["15/8*i", "-17/8"],
    ]))
    code, out = run(capsys, "equiv", "catalog:torus:f", "--cocycle", str(z))
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 1
    assert data["verified"] is True
    assert data["representative"] == reps[1]["representative"]


def test_equiv_rejects_non_cocycle(tmp_path, capsys):
    z = tmp_path / "z.json"
    z.write_text(json.dumps([["2", "0"], ["0", "1"]]))
    code, out = run(capsys, "equiv", "catalog:sl(2,r)",
                    "--cocycle", str(z))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not-cocycle"


@pytest.mark.parametrize("name,z", [
    ("o(2)", [["1", "i"], ["0", "1"]]),
    ("gm-affine", [["0", "1"], ["1", "0"]]),
])
def test_equiv_rejects_cocycle_outside_group(tmp_path, capsys, name, z):
    # z is a cocycle but does not normalize Lie(G), so it is not in G
    path = tmp_path / "z.json"
    path.write_text(json.dumps(z))
    code, out = run(capsys, "equiv", f"catalog:{name}", "--cocycle",
                    str(path))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not-member"


def test_equiv_nonconnected_undecided_is_not_a_false_answer(tmp_path,
                                                          capsys):
    # diag(1, -1, -1) is a cocycle of O(3), equivalent to the listed
    # diag(-1, -1, 1), but its torus is not conjugated into T without a
    # conjugator: the answer is conjugator-unavailable, never
    # no-equivalent-class
    z = tmp_path / "z.json"
    z.write_text(json.dumps([["1", "0", "0"], ["0", "-1", "0"],
                             ["0", "0", "-1"]]))
    code, out = run(capsys, "equiv", "catalog:o(3)", "--cocycle", str(z))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "conjugator-unavailable"


def test_equiv_nonconnected(tmp_path, capsys):
    _, listing = run(capsys, "h1", "catalog:o(2)")
    reps = json.loads(listing)["classes"]
    z = tmp_path / "z.json"
    z.write_text(json.dumps(reps[2]["representative"]))
    code, out = run(capsys, "equiv", "catalog:o(2)", "--cocycle", str(z))
    assert code == 0
    assert json.loads(out)["index"] == 2


def _rebased_torus_fe(capsys, tower):
    """catalog torus:fe as a file, rebased by the unimodular P = S * L, S a
    signed permutation and L unit lower bidiagonal: X -> P X P^-1 and
    N_sigma -> P N_sigma P^-1; and P."""
    _, emitted = run(capsys, "catalog", "emit", "torus:fe")
    data = json.loads(emitted)
    p = mmul(mat_from_ints(tower, [[0, -1, 0], [0, 0, 1], [1, 0, 0]]),
             mat_from_ints(tower, [[1, 0, 0], [-1, 1, 0], [0, 1, 1]]))
    p_inv = minverse(p, tower)

    def move(m):
        return _fmt_mat(mmul(mmul(p, _parse_mat(m, tower)), p_inv))

    return {"kind": "torus", "lie_basis": [move(m) for m in data["lie_basis"]],
            "N_sigma": move(data["N_sigma"])}, p


def test_equiv_forms_no_twist(tmp_path, capsys, monkeypatch):
    # every listed class of torus:fe and of a rebased copy, as listed and
    # moved by a complex torus point s (SO(2) x GL(1) at a = 5/4,
    # b = 3/4 i, c = 2 + i): equiv re-verifies its witness without
    # forming s^-1 z gamma(s)
    tower = FieldTower()
    data, p = _rebased_torus_fe(capsys, tower)
    group_file = tmp_path / "rebased.json"
    group_file.write_text(json.dumps(data))
    point = _parse_mat([["5/4", "3/4*i", "0"], ["-3/4*i", "5/4", "0"],
                        ["0", "0", "2+i"]], tower)
    cases = []
    for spec, nsigma, s in (
            ("catalog:torus:fe", [["1", "0", "0"], ["0", "1", "0"],
                                  ["0", "0", "1"]], point),
            (str(group_file), data["N_sigma"],
             mmul(mmul(p, point), minverse(p, tower)))):
        real = RealStructure(_parse_mat(nsigma, tower), tower)
        _, listing = run(capsys, "h1", spec)
        for c in json.loads(listing)["classes"]:
            rep = c["representative"]
            cases.append((spec, rep, rep))
            z = real.twist(s, _parse_mat(rep, tower))
            cases.append((spec, _fmt_mat(z), rep))

    def no_twist(*args, **kwargs):
        raise AssertionError("equiv formed a twist")

    monkeypatch.setattr(linalg.RealStructure, "twist", no_twist)
    path = tmp_path / "z.json"
    for spec, z, rep in cases:
        path.write_text(json.dumps(z))
        code, out = run(capsys, "equiv", spec, "--cocycle", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["verified"] is True
        assert report["representative"] == rep
    assert len(cases) == 8


def test_singular_witness_fails_verification(tmp_path, capsys, monkeypatch):
    # a zero witness satisfies s * rep * N = z * N * conj(s); the rank test
    # refuses it
    trivialize = cli.trivialize_cocycle

    def zero_witness(group, z):
        listed, signs, s = trivialize(group, z)
        return listed, signs, [[x * 0 for x in row] for row in s]

    monkeypatch.setattr(cli, "trivialize_cocycle", zero_witness)
    path = tmp_path / "z.json"
    path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    code, out = run(capsys, "equiv", "catalog:torus:f", "--cocycle",
                    str(path))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "verification-failed"


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._make_parser.cache_clear()
    counts = []
    for _ in range(3):
        run(capsys, "catalog", "list")
        counts.append(len(built))
    assert built.count("realcoh") == 1
    assert counts[0] == counts[2]


@pytest.mark.parametrize("command", ["h1", "equiv"])
@pytest.mark.parametrize("entry", ["-" * 3000 + "1",
                                   "(" * 2000 + "1" + ")" * 2000],
                         ids=["minus-signs", "parentheses"])
def test_deep_nesting_is_a_coded_error(tmp_path, command, entry):
    # the command-line program itself, so that a traceback would show on
    # its stderr
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"kind": "torus", "lie_basis": [[[entry]]],
                                 "N_sigma": [["1"]]}))
    cocycle = tmp_path / "z.json"
    cocycle.write_text(json.dumps([[entry]]))
    argv = (["h1", str(group)] if command == "h1" else
            ["equiv", "catalog:torus:e", "--cocycle", str(cocycle)])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "realcoh.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 1
    assert done.stderr == ""
    assert json.loads(done.stdout)["error"]["code"] == "nesting-too-deep"


@pytest.mark.parametrize("command", ["h1", "equiv"])
def test_deeply_nested_json_is_a_coded_error(tmp_path, command):
    # a file of deeply nested arrays overflows the JSON decoder's recursion
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = (["h1", str(path)] if command == "h1" else
            ["equiv", "catalog:torus:e", "--cocycle", str(path)])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "realcoh.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 1
    assert done.stderr == ""
    assert json.loads(done.stdout)["error"]["code"] == "input-too-deep"


# -- h2-quasitorus and lattice-decompose -------------------------------------------


@pytest.mark.parametrize("n,order", [(3, 1), (4, 2), (6, 2), (5, 1)])
def test_h2_quasitorus_mu_n(tmp_path, capsys, n, order):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(
        {"lie_basis": [[["1"]]], "N_sigma": [["1"]], "characters": [[n]]}))
    code, out = run(capsys, "h2-quasitorus", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["order"] == order
    assert data["verified"] is True


def test_lattice_decompose_swap_gives_gh_pair(tmp_path, capsys):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"tau": [[0, 1], [1, 0]]}))
    code, out = run(capsys, "lattice-decompose", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"e": 0, "f": 0, "gh": 1}


def test_lattice_decompose_rejects_non_involution(tmp_path, capsys):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"tau": [[2, 0], [0, 1]]}))
    code, out = run(capsys, "lattice-decompose", str(path))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not-involution"


# -- malformed input ----------------------------------------------------------------

# a one-dimensional torus, and a one-component group with trivial identity
# component, each well formed until a case overrides one field
MU = {"lie_basis": [[["1"]]], "N_sigma": [["1"]], "characters": [[2]]}
PI0 = {"kind": "nonconnected", "lie_basis": [], "N_sigma": [["1"]],
       "component_reps": [[["1"]]], "pi0_table": [[0]], "pi0_gamma": [0]}


@pytest.mark.parametrize("command,data,code", [
    ("h1", [1, 2], "bad-input"),
    ("h1", {"kind": "torus", "lie_basis": [[["1"]]],
            "N_sigma": [["1", "0"], ["0", "1"]]}, "bad-matrix"),
    ("h1", {"kind": "torus", "lie_basis": [[["1/0"]]], "N_sigma": [["1"]]},
     "parse-error"),
    ("lattice-decompose", {"tau": [[1, 2], [3]]}, "bad-input"),
    ("lattice-decompose", {"tau": [[0, 1], [1, 0], [1, 1]]}, "bad-input"),
    ("lattice-decompose", {"tau": [["a"]]}, "bad-input"),
    ("h2-quasitorus", dict(MU, characters=[[]]), "bad-input"),
    ("h2-quasitorus", dict(MU, characters=[["a"]]), "bad-input"),
    ("h2-quasitorus", dict(MU, characters=[[1, 2]]), "bad-input"),
    ("h1", dict(PI0, pi0_table=[[0, 1]]), "bad-input"),
    ("h1", dict(PI0, pi0_gamma=[5]), "bad-input"),
    ("h1", dict(PI0, pi0_gamma=[0, 0]), "bad-input"),
    ("h1", dict(PI0, pi0_gamma=["a"]), "bad-input"),
    ("h1", dict(PI0, pi0_table=[0]), "bad-input"),
    # a valid integer of 5 001 digits, past the interpreter's limit on
    # converting a string to an int
    ("h1", {"kind": "torus", "lie_basis": [[["1" + "0" * 5000]]],
            "N_sigma": [["1"]]}, "literal-too-long"),
    ("h1", {"kind": "nonreductive", "lie_basis": [[["0", "1"], ["0", "0"]]],
            "N_sigma": [["1", "0"], ["0", "0"]], "k_mats": [], "p_mats": []},
     "singular"),
    ("h1", dict(PI0, N_sigma=[["0"]]), "singular"),
], ids=["array", "basis-size", "zero-denominator", "tau-ragged",
        "tau-not-square", "tau-not-integer",
        "character-short", "character-not-integer", "character-long",
        "pi0-table-not-square", "pi0-gamma-out-of-range",
        "pi0-gamma-length", "pi0-gamma-not-integer", "pi0-row-not-list",
        "literal-too-long", "nonreductive-singular-nsigma",
        "nonconnected-singular-nsigma"])
def test_malformed_input_is_a_coded_error(tmp_path, capsys, command, data,
                                          code):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    exit_code, out = run(capsys, command, str(path))
    assert exit_code == 1
    assert json.loads(out)["error"]["code"] == code


@pytest.mark.parametrize("basis", [[["1", "1"], ["0", "1"]],
                                   [["0", "1"], ["0", "0"]]])
def test_non_semisimple_torus_is_a_coded_error(tmp_path, capsys, basis):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"kind": "torus", "lie_basis": [basis],
                                "N_sigma": [["1", "0"], ["0", "1"]]}))
    code, out = run(capsys, "h1", str(path))
    assert code == 1
    assert json.loads(out) == {"error": {"code": "not-semisimple",
                                         "message": "not-semisimple"}}


def test_non_theta_stable_algebra_is_a_coded_error(tmp_path, capsys):
    # so(3) conjugated by [[1, 1, 0], [0, 1, 0], [0, 0, 1]]: the Cartan
    # decomposition from theta(X) = -conj(X)^T is not available
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "reductive", "lie_basis": [
        [["-1", "2", "0"], ["-1", "1", "0"], ["0", "0", "0"]],
        [["0", "0", "1"], ["0", "0", "0"], ["-1", "1", "0"]],
        [["0", "0", "1"], ["0", "0", "1"], ["0", "-1", "0"]],
    ], "N_sigma": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    code, out = run(capsys, "h1", str(path))
    assert code == 1
    assert json.loads(out)["error"]["code"] == \
        "cartan-decomposition-unavailable"


# -- catalog and options ------------------------------------------------------------


def test_catalog_list_and_emit(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == 0
    names = json.loads(out)["names"]
    assert "so(2,3)" in names and "o(3)" in names
    code, out = run(capsys, "catalog", "emit", "mu2")
    assert code == 0
    assert json.loads(out)["kind"] == "nonconnected"


def test_unknown_catalog_name_is_error(capsys):
    code, out = run(capsys, "h1", "catalog:e8-split")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "unknown-name"


def test_abelian_so_pq_is_unknown_name(capsys):
    code, out = run(capsys, "h1", "catalog:so(1,1)")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "unknown-name"
    assert "catalog:torus:e" in error["message"]


@pytest.mark.parametrize("option", [["--seed", "1"], ["--field=gaussian"]])
def test_removed_global_options_are_usage_errors(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(option + ["h1", "catalog:sl(2,r)"])
    assert exc.value.code == 2
    assert "usage: realcoh" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [{"p_mats": []},
                                   {"k_mats": [], "p_mats": []}])
def test_nonconnected_empty_cartan_keys_are_absent(tmp_path, capsys, extra):
    # an empty k_mats or p_mats list leaves an abelian identity component
    # on the torus path, as when the key is missing
    _, want = run(capsys, "h1", "catalog:o(2)")
    _, emitted = run(capsys, "catalog", "emit", "o(2)")
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**json.loads(emitted), **extra}))
    code, out = run(capsys, "h1", str(path))
    assert code == 0
    assert out == want


@pytest.mark.parametrize("name", ["so(2,3)", "sl2-c2", "o(3)"])
def test_stale_cartan_keys_are_ignored(tmp_path, capsys, name):
    # files written when the Cartan decomposition or a Cartan subalgebra of
    # k was an input carry k_mats and p_mats or cartan_k_mats; they are
    # ignored, whatever they hold
    _, want = run(capsys, "h1", f"catalog:{name}")
    _, emitted = run(capsys, "catalog", "emit", name)
    data = json.loads(emitted)
    for extra in ({"k_mats": data["lie_basis"], "p_mats": []},
                  {"k_mats": 3}, {"cartan_k_mats": data["lie_basis"]},
                  {"cartan_k_mats": 3}):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({**data, **extra}))
        code, out = run(capsys, "h1", str(path))
        assert (code, out) == (0, want)
