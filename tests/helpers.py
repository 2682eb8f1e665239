"""Shared small fixtures for the test suite."""

from __future__ import annotations

from butterflies import jsonio
from butterflies.butterfly import identity_butterfly
from butterflies.extension import ExtensionDatum, butterfly_from_extension, conjugation_xmod
from butterflies.fingroup import (
    GroupHom,
    cyclic_group,
    klein_four,
    symmetric_group,
    trivial_group,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
V4 = klein_four()
S3 = symmetric_group(3)
ONE = trivial_group()


def z4_extension_butterfly():
    """The nonsplit extension Z2 <- Z4 <- Z2 as a butterfly D(Z2) -> A(Z2)."""
    datum = ExtensionDatum(
        H=Z2, G=Z2, E=Z4, iota=GroupHom(Z2, Z4, (0, 2)), sigma=GroupHom(Z4, Z2, (0, 1, 0, 1))
    )
    return butterfly_from_extension(datum)


def trivial_extension_butterfly():
    """The split extension Z2 <- Z2xZ2 <- Z2 as a butterfly D(Z2) -> A(Z2)."""
    E = V4
    datum = ExtensionDatum(
        H=Z2, G=Z2, E=E, iota=GroupHom(Z2, E, (0, 1)), sigma=GroupHom(E, Z2, (0, 0, 1, 1))
    )
    return butterfly_from_extension(datum)


def invalid_butterfly_json():
    """The identity butterfly of C(Z3) with rho replaced by sigma, as JSON:
    well-typed, but it fails the i-complex and right-wing conditions."""
    data = jsonio.to_jsonable(identity_butterfly(conjugation_xmod(Z3)))
    data["rho"] = data["sigma"]
    return data
