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
