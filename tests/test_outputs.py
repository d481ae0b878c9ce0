"""Golden fingerprints of every file the CLI writes.

Two runs pin the whole output tree byte for byte: a single run with every
entity dump on, and an acps run with replicates and a KS reference. A
refactor of the output path that claims "same files" must leave these
hashes unchanged.
"""

import hashlib

from policysim.cli import main

RUN_SHA256 = {
    "run/mean.csv": "1c05195fe855726844d198094fc3b51e18b505bd5aad0e1d1da1975a90b1fd42",
    "run/plot.gp": "7a13f6e0c44c3fe878d6fe552d7a4acd7f44ee1dc3ec14749a78f2fad0ce9975",
    "run/run_0/agents.csv": "c98c698548432cf8c5dfc4f33f79cc66cf6dc6fca1866975b0a9b2fa9368755c",
    "run/run_0/families.csv": "edd23dc8b715943f0181dd0925457e1d8e81ab703a9f30b8f538d43aa7342836",
    "run/run_0/firms.csv": "0c7d39de6261103d507876d377b3552a2004bf4023208bc20ebb2ef506a9bae0",
    "run/run_0/grave.csv": "c8da82f79c2d8615e0c279f102ff76537c9d4452a95edf4b4c8dddfd426cd106",
    "run/run_0/monthly.csv": "1c05195fe855726844d198094fc3b51e18b505bd5aad0e1d1da1975a90b1fd42",
    "run/run_0/sales.csv": "a9437d7f89a30e8f914ecf6b57c5be623413b81572c2b996a961962b04435479",
    "run/std.csv": "ab53931f1d6614840a6099e0b5db667cfdfdc053cfbaea47362441a8f8646539",
    "summary.json": "eee56628e354c7f3e217b1da7fee8eb1916176d028cc3b18f2356abaa7e0b884",
}

ACPS_SHA256 = {
    "fixture3/mean.csv": "079433430cbfef9c53f0b149355c44885a2c218eceb33570856efd2e133c18c6",
    "fixture3/plot.gp": "7a13f6e0c44c3fe878d6fe552d7a4acd7f44ee1dc3ec14749a78f2fad0ce9975",
    "fixture3/run_0/monthly.csv": "77728b489f20595617548f136994ab0cb2758282b1b05347a49b8a066a5af1e0",
    "fixture3/run_1/monthly.csv": "4c027a37d18e64a8b42b233c1c34642e16ac249d27f6575c36bbdfbc0ff1db16",
    "fixture3/std.csv": "54f04b811ae4c9dd7954720ed6d33a01e828cb257269501115fb238eb1a3d9de",
    "ks_report.csv": "ead38a11b18410d5df0397f815eb53014019a96c9f708093278e4a9df1edc9ca",
    "solo/mean.csv": "d60e4fd269bd8a75e422301d7eb8c9ce246f9d2436cd5c1483bc2f6f699f94ba",
    "solo/plot.gp": "7a13f6e0c44c3fe878d6fe552d7a4acd7f44ee1dc3ec14749a78f2fad0ce9975",
    "solo/run_0/monthly.csv": "6f8b98d27701f15945ed7ec948429b9d93b12baf8d7fa6f475368dfa9f4d77f5",
    "solo/run_1/monthly.csv": "85c6f4f820772f8afb5998ac6efe8595812242991748795e27765cec0e7c6ed6",
    "solo/std.csv": "9d5ebe359bc8bca5786c67c0e6739781719ab2100c7400552c66e4451c6475c9",
    "summary.json": "dbe9f68daa755ed42833521705c87eb9f9071e2a3d39dff60d58832b257bac6b",
}

REFERENCE = {
    "fixture3": {"consumption": 40.0, "labor": 30.0, "transaction": 2.0, "firms": 9.0, "property": 0.0},
    "solo": {"consumption": 15.0, "labor": 12.0, "transaction": 1.0, "firms": 4.0, "property": 0.0},
}


def tree_sha256(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def data_rows(path):
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def test_run_with_every_dump(tmp_path):
    out = tmp_path / "out"
    code = main([
        "run",
        "--save-data", "agents,grave,house,family,firms",
        "--months", "24",
        "--seed", "3",
        "--cores", "1",
        "--output", str(out),
    ])
    assert code == 0
    run_dir = out / "run" / "run_0"
    for name in ("agents.csv", "families.csv", "firms.csv", "grave.csv", "sales.csv"):
        assert data_rows(run_dir / name) >= 1, name
    assert data_rows(run_dir / "grave.csv") == 11
    assert data_rows(run_dir / "sales.csv") == 14
    assert tree_sha256(out) == RUN_SHA256


def test_acps_with_reference(tmp_path):
    reference = tmp_path / "reference.csv"
    lines = ["region,tax_kind,total"]
    for region, totals in REFERENCE.items():
        lines += [f"{region},{kind},{total!r}" for kind, total in totals.items()]
    reference.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "acps",
        "--runs", "2",
        "--months", "24",
        "--seed", "3",
        "--cores", "1",
        "--reference", str(reference),
        "--output", str(out),
    ])
    assert code == 0
    assert tree_sha256(out) == ACPS_SHA256
