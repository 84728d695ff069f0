"""The README quick tour, pinned byte for byte.

One test runs every tour command through ``dispatch`` in a temporary
directory, on relative paths, so no output holds a path of the host. It
compares the sha256 of each command's stdout and of each file the tour
writes with one manifest, ``tests/goldens/tour.sha256``, in ``sha256sum``
layout. A change that moves output bytes on purpose re-pins them there: the
failure lists every output that moved, with its new digest.
"""

import hashlib
import shutil
from pathlib import Path

from procex.cli import dispatch
from procex.process_model import fixture_path

MANIFEST = Path(__file__).parent / "goldens" / "tour.sha256"

EXPLAIN = ["explain", "loan.bp", "--model", "model.json",
           "--attrs", "credit_score=580,loan_amount=300000", "--mode", "process-aware"]
# Each command by the name its stdout is pinned under, in tour order.
TOUR = {
    "validate": ["validate", "loan.bp"],
    "causal-graph": ["causal-graph", "loan.bp"],
    "simulate": ["simulate", "loan.bp", "--n", "10000", "--seed", "42",
                 "--out", "loan_log.jsonl"],
    "train": ["train", "loan.bp", "--log", "loan_log.jsonl", "--out", "model.json"],
    "explain": [*EXPLAIN, "--out", "explanation.json"],
    "reject": [*EXPLAIN, "--strategy", "reject"],
    "explain-case": ["explain", "loan.bp", "--model", "model.json", "--log", "loan_log.jsonl",
                     "--case-id", "c000123", "--mode", "vanilla"],
    "evaluate": ["evaluate", "loan.bp", "--model", "model.json", "--log", "loan_log.jsonl",
                 "--instances", "20", "--seeds", "0,1,2,3,4",
                 "--require-activity", "skilled_agent_review",
                 "--out", "report.json", "--figdata", "figdata.csv"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_tour_output_matches_its_pinned_digest(tmp_path, monkeypatch, capsys):
    shutil.copy(fixture_path(), tmp_path / "loan.bp")
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, argv in TOUR.items():
        assert dispatch(argv) == 0, name
        digests[f"{name}.stdout"] = _sha256(capsys.readouterr().out.encode())
    for path in sorted(tmp_path.iterdir()):
        if path.name != "loan.bp":
            digests[path.name] = _sha256(path.read_bytes())
    pinned = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split()
        pinned[name] = digest
    moved = [f"{digest}  {name}" for name, digest in digests.items()
             if pinned.get(name) != digest]
    missing = sorted(set(pinned) - set(digests))
    assert not moved and not missing, (
        "tour outputs moved (new digests):\n" + "\n".join(moved)
        + "".join(f"\nnot written: {name}" for name in missing)
    )
