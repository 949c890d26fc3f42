"""Byte-for-byte regression net for `realcoh h1 catalog:NAME`.

`tests/golden/h1_catalog.json` maps every name of `catalog.list_names()` to
the exact stdout of `realcoh h1 catalog:NAME`.  Regenerate it (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from realcoh import catalog
from realcoh.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "h1_catalog.json"


def h1_stdout(name: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["h1", f"catalog:{name}"])
    return buf.getvalue()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_catalog_name():
    assert sorted(_golden()) == sorted(catalog.list_names())


@pytest.mark.parametrize("name", catalog.list_names())
def test_h1_catalog_matches_golden(name):
    assert h1_stdout(name) == _golden()[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {name: h1_stdout(name) for name in catalog.list_names()}
    GOLDEN.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
