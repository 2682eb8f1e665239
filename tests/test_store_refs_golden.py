"""Golden store refs: the canonical bytes of every loadable kind on two
fixture sets.

For each fixture set and kind, a pin is the first 16 hex digits of the
sha256 of the content refs of its objects, in order.  The objects are the
groups, crossed modules, morphisms and butterflies of ``generate_fixtures``,
the 2-group of each crossed module, and the fractor and a monoidal functor
of each butterfly.  Every object must also reload to the same bytes.  The
pins were taken from the library before each JSON kind's fields were stated
once, in ``jsonio._KINDS``; a change that moves a canonical serialization,
and so a store ref, changes a pin.  The objects are built in one fresh
interpreter: the library's memo caches are keyed by table equality, so an
object cached by an earlier test under other names would change the refs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import butterflies

SETS = ((0, 8), (1, 16))

# (number of objects, pin) per kind and fixture set
PINS = {
    "0,8": {
        "group": (48, "6097db90cb5abbc2"),
        "xmod": (11, "b9e13cbb057ec13a"),
        "2group": (11, "bfda1968de92fb95"),
        "xmod-morphism": (109, "18f2b97dde36c6b2"),
        "butterfly": (26, "916346b18b8494fe"),
        "fractor": (26, "3c259f60bde3888a"),
        "monoidal": (26, "484fcbd407f7d1ee"),
    },
    "1,16": {
        "group": (53, "55324a3b767409b1"),
        "xmod": (12, "5609be9c69e164a4"),
        "2group": (12, "029d93b4c88b64ad"),
        "xmod-morphism": (160, "8cc1a628d39e8f44"),
        "butterfly": (29, "257ac12ef456a77d"),
        "fractor": (29, "5c55b8a8cdfaf4ab"),
        "monoidal": (29, "287f8d9bb1fa343e"),
    },
}

RUNNER = """
import hashlib, json, sys
from butterflies import jsonio
from butterflies.butterfly import to_fractor
from butterflies.laws import generate_fixtures
from butterflies.weakmap import all_set_sections, extract_monoidal
from butterflies.xmod import denormalize
out = {}
for seed, bound in json.loads(sys.argv[1]):
    fx = generate_fixtures(seed, bound)
    kinds = {
        "group": [G for X in fx.crossed_modules for G in (X.G, X.G0)] + [B.E for B in fx.butterflies],
        "xmod": fx.crossed_modules,
        "2group": [denormalize(X) for X in fx.crossed_modules],
        "xmod-morphism": fx.morphisms,
        "butterfly": fx.butterflies,
        "fractor": [to_fractor(B) for B in fx.butterflies],
        "monoidal": [extract_monoidal(B, all_set_sections(B)[0]) for B in fx.butterflies],
    }
    pins = out[f"{seed},{bound}"] = {}
    for kind, objects in kinds.items():
        digest, reloads = hashlib.sha256(), True
        for obj in objects:
            data = jsonio.to_jsonable(obj)
            digest.update(jsonio.content_ref(data).encode())
            again = jsonio.to_jsonable(jsonio.from_jsonable(json.loads(json.dumps(data))))
            reloads = reloads and jsonio.canonical_bytes(again) == jsonio.canonical_bytes(data)
        pins[kind] = [len(objects), digest.hexdigest()[:16], reloads]
print(json.dumps(out))
"""


def ref_digests(src: Path) -> dict:
    """[count, pin, reloads] per kind and fixture set, from the library under `src`."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(SETS)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def digests() -> dict:
    return ref_digests(Path(butterflies.__file__).parents[1])


@pytest.mark.parametrize("key", list(PINS))
@pytest.mark.parametrize("kind", list(PINS["0,8"]))
def test_store_refs_match_pin(digests, key, kind):
    count, pin, reloads = digests[key][kind]
    assert reloads
    assert (count, pin) == PINS[key][kind]
