"""Byte-for-byte regression net for `realcoh h1` and `realcoh equiv`.

`tests/golden/h1_catalog.json` maps every name of `catalog.list_names()` to
the exact stdout of `realcoh h1 catalog:NAME`.

`tests/golden/equiv_catalog.json` maps every name to one
`{"exit": CODE, "stdout": TEXT}` per class listed in that h1 output, in class
order: the result of `realcoh equiv catalog:NAME --cocycle REP` with REP the
class's representative written to a JSON file.  It pins the witnesses.

`tests/golden/lattice_h2.json` pins the integer normal forms behind the
other two commands: `{"exit": CODE, "stdout": TEXT}` of `realcoh
lattice-decompose` on the involution `tau` of every `torus:*` catalog entry
and on the files of `tests/test_cli.py`, and of `realcoh h2-quasitorus` on
the mu_n inputs of `tests/test_cli.py`.

Regenerate them all (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import tempfile
from fractions import Fraction

import pytest

from realcoh import catalog
from realcoh.cli import main
from realcoh.field import FieldTower

GOLDEN = pathlib.Path(__file__).parent / "golden" / "h1_catalog.json"
EQUIV_GOLDEN = pathlib.Path(__file__).parent / "golden" / "equiv_catalog.json"
LATTICE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "lattice_h2.json"


def cli_stdout(*argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def h1_stdout(name: str) -> str:
    return cli_stdout("h1", f"catalog:{name}")[1]


def equiv_results(name: str, h1_out: str, directory: pathlib.Path) -> list:
    """`realcoh equiv` on each listed representative of an h1 report."""
    out = []
    for cls in json.loads(h1_out)["classes"]:
        path = directory / f"rep{cls['index']}.json"
        path.write_text(json.dumps(cls["representative"]), encoding="utf-8")
        code, stdout = cli_stdout("equiv", f"catalog:{name}",
                                  "--cocycle", str(path))
        out.append({"exit": code, "stdout": stdout})
    return out


def lattice_h2_inputs() -> dict:
    """{"COMMAND INPUT-LABEL": (command, JSON input)} for the lattice golden."""
    out = {}
    for name in catalog.list_names():
        if name.startswith("torus:"):
            tau = catalog.get(name, FieldTower()).group.tau
            out[f"lattice-decompose catalog:{name}"] = (
                "lattice-decompose", {"tau": tau})
    for tau in ([[0, 1], [1, 0]], [[2, 0], [0, 1]]):
        out[f"lattice-decompose {json.dumps(tau)}"] = (
            "lattice-decompose", {"tau": tau})
    for n in (3, 4, 6, 5):
        out[f"h2-quasitorus mu_{n}"] = ("h2-quasitorus", {
            "lie_basis": [[["1"]]], "N_sigma": [["1"]], "characters": [[n]]})
    return out


def lattice_h2_results(directory: pathlib.Path) -> dict:
    out = {}
    for label, (command, data) in lattice_h2_inputs().items():
        path = directory / "input.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, stdout = cli_stdout(command, str(path))
        out[label] = {"exit": code, "stdout": stdout}
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _equiv_golden() -> dict:
    return json.loads(EQUIV_GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_catalog_name():
    assert sorted(_golden()) == sorted(catalog.list_names())
    assert sorted(_equiv_golden()) == sorted(catalog.list_names())


def test_lattice_h2_matches_golden(tmp_path):
    golden = json.loads(LATTICE_GOLDEN.read_text(encoding="utf-8"))
    assert lattice_h2_results(tmp_path) == golden


@pytest.mark.parametrize("name", catalog.list_names())
def test_h1_catalog_matches_golden(name):
    assert h1_stdout(name) == _golden()[name]


@pytest.mark.parametrize("name", catalog.list_names())
def test_equiv_catalog_matches_golden(name, tmp_path):
    assert equiv_results(name, _golden()[name], tmp_path) == \
        _equiv_golden()[name]


def _inertia(rep: list) -> tuple:
    """(positive, negative) eigenvalue counts of a rational symmetric
    matrix, with Fractions only: the characteristic polynomial from the
    Faddeev-LeVerrier recursion, then Descartes' rule of signs, which is
    exact for a polynomial whose roots are all real."""
    a = [[Fraction(x) for x in row] for row in rep]
    n = len(a)
    coeffs = [Fraction(1)]          # x^n, x^(n-1), ..., 1
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n))
              + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        coeffs.append(-sum(a[i][t] * m[t][i] for i in range(n)
                           for t in range(n)) / k)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    flipped = [c * (-1) ** (n - d) for d, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(flipped)


def test_o3_classes_are_the_four_signatures():
    # H^1(R, O(3)) is the set of real quadratic forms of rank 3: every
    # listed representative is real symmetric, one per inertia
    classes = json.loads(_golden()["o(3)"])["classes"]
    reps = [c["representative"] for c in classes]
    assert all(r[i][j] == r[j][i] for r in reps
               for i in range(3) for j in range(3))
    assert [_inertia(r) for r in reps] == [(3, 0), (1, 2), (0, 3), (2, 1)]


def _write(path: pathlib.Path, table: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    _write(GOLDEN, {name: h1_stdout(name) for name in catalog.list_names()})
    h1 = _golden()
    with tempfile.TemporaryDirectory() as tmp:
        _write(EQUIV_GOLDEN, {
            name: equiv_results(name, h1[name], pathlib.Path(tmp))
            for name in catalog.list_names()})
        _write(LATTICE_GOLDEN, lattice_h2_results(pathlib.Path(tmp)))
