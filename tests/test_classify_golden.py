"""Golden outputs of ``classify H G --oracle``, as text and as ``--json``, on
every pair of the classification grid.

The groups are the grid's relabeled groups (``helpers.grid_groups``), passed
as JSON files.  The pins were taken from the library before the twisted
product was built row by row and group naming was pruned by invariants; a
change that moves a name, a count, a factor set or a butterfly's store ref
changes a pin.  All 46 commands run in one fresh interpreter: the library's
memo caches are keyed by table equality, so a group cached by an earlier
test under another name would change the refs.  A pin is the first 16 hex
digits of the sha256 of ``[exit code, stdout, stderr]`` as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import GRID, GRID_BOUND, grid_groups

import butterflies
from butterflies import jsonio

# (text, --json) per pair; the four pairs with a non-abelian kernel G end in
# the oracle's error, the same for both
PINS = {
    "Z2,Z2": ("30a1143f6fd7ced3", "394f048b9332b1f8"),
    "Z2,Z3": ("2fe8c38d2f34ffc7", "306073296c373140"),
    "Z2,Z4": ("7af87552ada24398", "bf6f3ce7d8b7ca72"),
    "Z2,V4": ("a0e7301e248919af", "ced1e5397bab1217"),
    "Z3,Z2": ("65788ae983cb6f49", "d92c214bf4dc6194"),
    "Z3,Z3": ("cc4e1240c7f1e2bf", "7562e1b0d9583db0"),
    "Z3,Z4": ("c9e43aaf41f8381d", "570998edceb375fa"),
    "Z3,V4": ("f88faae8656e866b", "fd4c148e84273570"),
    "Z4,Z2": ("fae18e4e7f28387c", "d4673a53d574b074"),
    "Z4,Z3": ("bff8ef8688707048", "0b1fcfd8d13cc331"),
    "Z4,Z4": ("8e5af7885611bdb8", "6281bc3b7f7365fd"),
    "Z4,V4": ("0f4693fef43ea7a4", "8e941768e5adcc3d"),
    "V4,Z2": ("0a7c00f8ed8ce63c", "8eae85889c88ff0e"),
    "V4,Z3": ("900c4e57aaae40ea", "49120bee9df5ac35"),
    "V4,Z4": ("340236547e7a80cf", "b6199b62c921334b"),
    "V4,V4": ("5c65183300d37bd1", "d608e372106698a9"),
    "Z2,Z8": ("2b58f2d253dc3d5b", "9bdc144817650d9a"),
    "Z8,Z2": ("26649a0b70811c43", "de3d903da9b5c59e"),
    "S3,Z2": ("2cb7869555d21621", "1f912974bae310fd"),
    "Z2,S3": ("522485b69c2daf95", "522485b69c2daf95"),
    "Z2,D4": ("853aa88f55b1cb51", "853aa88f55b1cb51"),
    "Z2,Q8": ("b0a050e64e5c3c0e", "b0a050e64e5c3c0e"),
    "Z3,S3": ("e688b63fe5ac6ea7", "e688b63fe5ac6ea7"),
}

RUNNER = """
import contextlib, hashlib, io, json, sys
from butterflies import cli
groups, ws, pairs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
out = {}
for h, g, bound in pairs:
    for mode in ([], ["--json"]):
        argv = ["--workspace", ws, *mode, "classify", f"{groups}/{h}.json", f"{groups}/{g}.json",
                "--oracle", "--bound", str(bound)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        digest = hashlib.sha256(json.dumps([code, stdout.getvalue(), stderr.getvalue()]).encode())
        out.setdefault(f"{h},{g}", []).append(digest.hexdigest()[:16])
print(json.dumps(out))
"""


def classify_digests(src: Path, work: Path) -> dict:
    """The pins' digests for every grid pair, from the library under `src`."""
    for name, G in grid_groups().items():
        (work / f"{name}.json").write_text(json.dumps(jsonio.to_jsonable(G)))
    pairs = [(h, g, GRID_BOUND.get((h, g), 16)) for h, g in GRID]
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(work), str(work / "ws"), json.dumps(pairs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict:
    return classify_digests(Path(butterflies.__file__).parents[1], tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("pair", GRID, ids=[f"{h},{g}" for h, g in GRID])
def test_classify_output_matches_pin(digests, pair):
    key = f"{pair[0]},{pair[1]}"
    assert tuple(digests[key]) == PINS[key]
