"""Tests of the benchmark itself: seeded inputs repeat, every oracle rejects
a corrupted answer, and tracing leaves realcoh as it found it.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _torus_files(seed, workdir):
    w = workloads.TorusCli(seed, workdir)
    w.setup()
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_torus_inputs_repeat_for_a_seed(tmp_path):
    a = _torus_files(3, tmp_path / "a")
    b = _torus_files(3, tmp_path / "b")
    c = _torus_files(4, tmp_path / "c")
    assert a == b
    assert a != c


def test_equiv_twists_repeat_for_a_seed(monkeypatch):
    from realcoh.field import format_element

    monkeypatch.setattr(inputs, "P2_GROUPS", ["torus:fe", "sl(2,r)"])
    monkeypatch.setattr(inputs, "UNIPOTENT_GROUPS", ["sl(2,r)"])

    def twists(seed):
        w = workloads.EquivStream(seed, None)
        w.setup()
        ops = [w._twist(name, w.rng, name == "sl(2,r)")
               for name in inputs.P2_GROUPS for _ in range(3)]
        fixed = [(n, j, z) for n, j, z in w.fixed]
        return [(n, j, [[format_element(x) for x in row] for row in z])
                for n, j, z in ops + fixed]

    assert twists(5) == twists(5)
    assert twists(5)[:6] != twists(6)[:6]
    assert twists(5)[6:] == twists(6)[6:]   # fixed-seed unipotent twists


def test_catalog_names_match_the_order_table():
    w = workloads.H1Catalog(1, None)
    w.setup()
    assert len(w.names) == 25
    assert sorted(w.names) == sorted(oracles.ORDERS)


def test_h1_oracle_rejects_a_wrong_order():
    op = workloads.H1Catalog(0, None)._op("so(1,2)")
    rc, out = op.run()
    op.check((rc, out))
    report = json.loads(out)
    report["order"] += 1
    with pytest.raises(oracles.OracleError):
        op.check((rc, json.dumps(report)))
    report = json.loads(out)
    report["order"] -= 1
    report["classes"].pop()
    with pytest.raises(oracles.OracleError):
        op.check((rc, json.dumps(report)))


def test_h1_oracle_rejects_a_non_cocycle():
    op = workloads.H1Catalog(0, None)._op("torus:f")
    rc, out = op.run()
    report = json.loads(out)
    report["classes"][1]["representative"][0][0] = "2"
    with pytest.raises(oracles.OracleError):
        op.check((rc, json.dumps(report)))


def test_equiv_oracle_rejects_a_wrong_index_and_witness(monkeypatch):
    monkeypatch.setattr(inputs, "P2_GROUPS", ["torus:fe", "so(1,2)"])
    monkeypatch.setattr(inputs, "UNIPOTENT_GROUPS", ["so(1,2)"])
    w = workloads.EquivStream(0, None)
    w.setup()
    tested = 0
    for op in w.round_ops():
        if op.known_fault:
            continue
        index, h = op.run()
        op.check((index, h))
        for wrong in (index + 1, index - 1):
            with pytest.raises(oracles.OracleError):
                op.check((wrong, h))
        bad = copy.copy(h)
        bad[0] = list(h[0])
        bad[0][0] = h[0][0] + h[0][0].tower.i()
        with pytest.raises(oracles.OracleError):
            op.check((index, bad))
        tested += 1
    assert tested >= 6


def test_torus_cli_oracles_reject_corrupted_reports(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "TORUS_WORDS", ["ef", "fd"])
    w = workloads.TorusCli(0, tmp_path)
    w.setup()
    kinds = set()
    for op in w.round_ops():
        rc, out = op.run()
        op.check((rc, out))
        report = json.loads(out)
        kind = op.label.split(":")[0]
        kinds.add(kind)
        if kind == "h1":
            report["order"] *= 2
        elif kind == "equiv":
            wrong = dict(report, index=report["index"] + 1)
            with pytest.raises(oracles.OracleError):
                op.check((rc, json.dumps(wrong)))
            report["witness"][0][0] = report["witness"][0][0] + "+i"
        else:
            report["counts"]["f"] += 1
        with pytest.raises(oracles.OracleError):
            op.check((rc, json.dumps(report)))
        with pytest.raises(oracles.OracleError):
            op.check((1, '{"error":{"code":"x","message":"x"}}'))
    assert kinds == {"h1", "equiv", "lattice"}


def _realcoh_attributes():
    mods = tracer._modules()
    out = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            out[(short, attr)] = obj
    for short, cls, attr, _ in tracer.METHOD_SPANS + tracer.METHOD_COUNTS:
        owner = getattr(mods[short], cls)
        out[(short, cls, attr)] = owner.__dict__[attr]
    return out


def test_traced_run_restores_every_wrapped_function():
    before = _realcoh_attributes()
    w = workloads.H1Catalog(0, None)
    w.setup()
    w.names = ["torus:fe", "so(1,2)", "o(2)"]
    t = tracer.Tracer()
    stats, rounds, traced_s, untraced_s = run.measure(w, 0, t)
    assert not stats.wrong and rounds == 1
    assert [ok for _, ok in stats.rounds[0]] == [True] * 3
    layers = t.layer_totals()
    assert layers["cli.main"]["calls"] == 3
    assert layers["reductive.build_reductive"]["calls"] == 1
    assert t.counts["field.mul"] > 0
    after = _realcoh_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_wraps_functions_imported_by_name():
    from realcoh import linalg, reductive

    original = linalg.mmul
    t = tracer.Tracer()
    t.install()
    try:
        assert linalg.mmul is not original
        assert reductive.mmul is linalg.mmul
    finally:
        t.uninstall()
    assert linalg.mmul is original and reductive.mmul is original
