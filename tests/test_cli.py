import json

import pytest

from hadwiger import graphs, serialize
from hadwiger.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_small(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, _, _ = run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["n"] == 2


def test_construct_with_apex(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, _, _ = run(
        ["construct", "--g", "1", "--p", "1", "--k", "2", "--a", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(out.read_text())["n"] == 7


def test_construct_catalog_gap_exits_3(capsys):
    code, _, err = run(["construct", "--g", "7", "--p", "1", "--k", "2"], capsys)
    assert code == 3
    assert "catalog" in err


def test_construct_bad_parameters_exit_2(capsys):
    code, _, _ = run(["construct", "--g", "0", "--p", "1", "--k", "1"], capsys)
    assert code == 2


def test_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)[0] == 0
    code, out, _ = run(["verify", str(cert)], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_detects_mutation(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    keys = sorted(obj["model"]["sets"])
    # duplicate one branch set onto another: capacity violation
    obj["model"]["sets"][keys[0]] = obj["model"]["sets"][keys[1]]
    cert.write_text(json.dumps(obj))
    code, out, _ = run(["verify", str(cert)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False


def test_verify_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad)], capsys)[0] == 2


def test_eta_k5(tmp_path, capsys):
    path = tmp_path / "k5.json"
    path.write_text(serialize.dumps(serialize.graph_to_json(graphs.complete_graph(5))))
    code, out, _ = run(["eta", str(path)], capsys)
    assert code == 0
    assert out.strip() == "5"


def test_eta_budget_exit_4(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(serialize.dumps(serialize.graph_to_json(graphs.grid_graph(5))))
    code, _, err = run(["eta", str(path)], capsys)
    assert code == 4
    assert "budget" in err


def test_eta_cap_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k13.json"
    path.write_text(serialize.dumps(serialize.graph_to_json(graphs.complete_graph(13))))
    assert run(["eta", str(path)], capsys)[0] == 4
    monkeypatch.setenv("HADWIGER_ETA_CAP", "16")
    code, out, _ = run(["eta", str(path)], capsys)
    assert code == 0
    assert out.strip() == "13"


def test_bounds_table(capsys):
    code, out, _ = run(["bounds", "--g", "0", "--p", "1", "--k", "2"], capsys)
    assert code == 0
    assert "full_upper" in out and "149" in out


def test_export_dot_and_json(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    code, out, _ = run(["export", str(cert), "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph G {")
    code, out, _ = run(["export", str(cert), "--format", "json"], capsys)
    assert code == 0
    assert "edges" in json.loads(out)


def test_construct_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        run(["construct", "--g", "1", "--p", "2", "--k", "3", "--a", "1", "--out", str(out)], capsys)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("disc_faces", ["x", [["x"]]], ids=["string", "list-of-string"])
def test_verify_malformed_disc_faces_exits_2(tmp_path, capsys, disc_faces):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    obj["structure"]["disc_faces"] = disc_faces
    cert.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
