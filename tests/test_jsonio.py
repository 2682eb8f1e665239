"""Round-trip tests for the JSON encodings."""

from __future__ import annotations

import pytest

from helpers import Z2, Z4, invalid_butterfly_json, z4_extension_butterfly

from butterflies import jsonio
from butterflies.butterfly import to_fractor
from butterflies.errors import ParseError
from butterflies.extension import conjugation_xmod, discrete_xmod
from butterflies.fingroup import cyclic_group
from butterflies.weakmap import all_set_sections, extract_monoidal
from butterflies.xmod import denormalize, identity_morphism


class TestRoundTrips:
    def test_group(self):
        G = cyclic_group(6)
        assert jsonio.from_jsonable(jsonio.to_jsonable(G)) == G

    def test_group_identity_relocation(self):
        data = {"kind": "group", "table": [[1, 0], [0, 1]]}
        G = jsonio.from_jsonable(data)
        assert G.table[0][0] == 0 and G.relabeling is not None

    def test_declared_order_checked(self):
        with pytest.raises(ParseError):
            jsonio.from_jsonable({"kind": "group", "order": 3, "table": [[0, 1], [1, 0]]})

    def test_xmod(self):
        X = conjugation_xmod(Z4)
        Y = jsonio.from_jsonable(jsonio.to_jsonable(X))
        assert (Y.G, Y.G0, Y.boundary.map, Y.action.act) == (X.G, X.G0, X.boundary.map, X.action.act)

    def test_two_group_reconstructs_composition(self):
        T = denormalize(conjugation_xmod(Z2))
        U = jsonio.from_jsonable(jsonio.to_jsonable(T))
        assert U.m == T.m and U.i.map == T.i.map

    def test_butterfly(self):
        B = z4_extension_butterfly()
        assert jsonio.from_jsonable(jsonio.to_jsonable(B)) == B

    def test_morphism(self):
        P = identity_morphism(discrete_xmod(Z2))
        Q = jsonio.from_jsonable(jsonio.to_jsonable(P))
        assert Q.p.map == P.p.map and Q.p0.map == P.p0.map

    def test_monoidal(self):
        B = z4_extension_butterfly()
        M = extract_monoidal(B, all_set_sections(B)[0])
        N = jsonio.from_jsonable(jsonio.to_jsonable(M))
        assert (N.F0, N.F1, N.F2) == (M.F0, M.F1, M.F2)

    def test_fractor_serializes_as_butterfly_plus_derived(self):
        B = z4_extension_butterfly()
        F = to_fractor(B)
        data = jsonio.to_jsonable(F)
        assert data["kind"] == "fractor"
        assert "derived" in data and "butterfly" in data
        F2 = jsonio.from_jsonable(data)
        assert F2.left.p1.map == F.left.p1.map
        assert F2.right.p1.map == F.right.p1.map

    def test_fractor_derived_mismatch_rejected(self):
        B = z4_extension_butterfly()
        data = jsonio.to_jsonable(to_fractor(B))
        data["derived"]["sigma_bar"][0] = 99
        with pytest.raises(ParseError):
            jsonio.from_jsonable(data)

    def test_fractor_of_invalid_butterfly_rejected(self):
        data = {"kind": "fractor", "butterfly": invalid_butterfly_json()}
        with pytest.raises(ValueError, match="i-complex"):
            jsonio.from_jsonable(data)


class TestRefs:
    def test_canonical_refs_stable(self):
        a = jsonio.content_ref(jsonio.to_jsonable(cyclic_group(4)))
        b = jsonio.content_ref(jsonio.to_jsonable(cyclic_group(4)))
        assert a == b and len(a) == 64

    def test_unknown_kind(self):
        from butterflies.errors import UnknownKind

        with pytest.raises(UnknownKind):
            jsonio.from_jsonable({"mystery": True})
