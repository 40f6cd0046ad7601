"""Byte-stability gate for ``oracle`` reports.

The digests below are sha256 sums of the exact stdout of each command,
recorded before the oracle moved to a single enumeration pass and to the
difference-constraint solver; the two n = 5 digests were recorded before the
simplex moved to per-row scaling and the witnesses to integers.  Every byte
is pinned, witnesses included, so any change to the enumeration order, the
witnesses, the ceilings or the report layout shows up here.  A change that alters these reports on purpose
must re-record the digests and say so.

The graph file is written to a fresh directory that becomes the working
directory, so its relative path -- echoed in ``config`` -- is stable.

The last test rechecks every witness of every preset at n <= 3 against its
signed hyperplanes, for all three arrangement kinds.
"""

import contextlib
import hashlib
import io
import json

import pytest

from shi_ish.cli import main
from shi_ish.core import Graph
from shi_ish.geometry import ARRANGEMENT_KINDS, build_arrangement, check_region, enumerate_regions

GRAPH_FILE = "two_edges.json"
GRAPH_FILE_DATA = {"n": 4, "edges": [[1, 3], [2, 4]]}

GOLDEN = {
    "oracle --n 3 --arrangement cox":
        "d9e50cd580984e4f61b3904313759a9976d5943fb43ae2c76e020ce7e15e80d0",
    "oracle --n 3 --arrangement shi":
        "7a5c9ab76684a1b05237747ee1106ad860720d6683131069088c04ab191660ec",
    "oracle --n 3 --arrangement ish":
        "564abe17eca2f68868ae8f51635815cc504ecde95c8f57a89eb954039547ab7b",
    "oracle --n 4 --arrangement cox":
        "0d9d023d9915b5e40b106370bb353ba26070af526056918bdc6d1db66a4dc39f",
    "oracle --n 4 --arrangement shi":
        "ae8111512e6978573ca6180531c7d98a4e1424059dd4fda4b0008bffe4f2cf17",
    "oracle --n 4 --arrangement ish":
        "c0d1e78bddebdee9258176b164f2c3de6dd40ec15d48649ae628eeaee60a0f35",
    "oracle --n 4 --arrangement shi --graph path":
        "a6efb9c7f69de85e4eccc99581b39be1b08682a8f225205b66023b4aa4747b21",
    "oracle --n 4 --arrangement ish --graph path":
        "c964e90fe86b179bd04854b69ace530633d0d28a47e3a0fe3d6a7cc3ad6f32d5",
    f"oracle --n 4 --arrangement shi --graph {GRAPH_FILE}":
        "1aca6ea1ff50d9d91a16ae836da8ef57f1858db37011e92e7b50ee2d87186da5",
    f"oracle --n 4 --arrangement ish --graph {GRAPH_FILE}":
        "c626003ddffffc8cb9da34f3843196bccd1e676dfe9ce8bafaab3f7c5dafb82c",
    "oracle --n 4 --arrangement shi --format tsv":
        "0b70552c82f5a26460c44e7da02f43b28e9d8ff516d012aabfd49cbb74772b4d",
    # n = 5: witness nudges and simplex systems larger than any at n <= 4
    "oracle --n 5 --allow-large --arrangement shi --graph path":
        "8ff4a71e0814db131bc9ef4e92b842c2c61265ba20133ea5c6c8336bb2f30720",
    "oracle --n 5 --allow-large --arrangement ish --graph path":
        "fefc14865c8ad4b58e8affbb83a1398a4bc99cd475a42bdd57df460222920b7b",
}


def oracle_stdout(command: str) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return code, out.getvalue().encode()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_oracle_stdout_is_byte_stable(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / GRAPH_FILE).write_text(json.dumps(GRAPH_FILE_DATA))
    code, stdout = oracle_stdout(command)
    assert code == 0
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("kind", ARRANGEMENT_KINDS)
@pytest.mark.parametrize("preset", ["complete", "empty", "path"])
def test_every_witness_is_strictly_inside_its_region(kind, preset):
    for n in range(1, 4):
        arrangement = build_arrangement(kind, n, getattr(Graph, preset)(n))
        regions = enumerate_regions(arrangement)
        assert regions
        assert all(check_region(arrangement, region) for region in regions)
