"""Pinned answers for the benchmark's output checks, and the brute force that
re-derives the extension counts without using the library.

Groups here are plain Cayley tables (tuples of rows, identity at index 0).
The brute force enumerates every normalized Schreier pair (phi, f) -- phi is
any map H -> Aut(G), not only a homomorphism -- and counts classes as orbits
under change of section.  It shares no code with ``butterflies.extension``.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# classify-grid: (H, G) -> (classes, all normalized factor sets)

CLASSIFY_REFERENCE = {
    ("Z2", "Z2"): (2, 2),
    ("Z2", "Z3"): (2, 4),
    ("Z2", "Z4"): (4, 6),
    ("Z2", "V4"): (7, 10),
    ("Z3", "Z2"): (1, 4),
    ("Z3", "Z3"): (3, 9),
    ("Z3", "Z4"): (1, 16),
    ("Z3", "V4"): (3, 24),
    ("Z4", "Z2"): (2, 8),
    ("Z4", "Z3"): (2, 36),
    ("Z4", "Z4"): (6, 96),
    ("Z4", "V4"): (10, 160),
    ("V4", "Z2"): (8, 16),
    ("V4", "Z3"): (4, 54),
    ("V4", "Z4"): (32, 320),
    ("V4", "V4"): (82, 544),
    ("Z2", "Z8"): (6, 16),
    ("Z8", "Z2"): (2, 128),
    ("S3", "Z2"): (2, 32),
    ("Z2", "S3"): (1, 6),
    ("Z2", "D4"): (4, 16),
    ("Z2", "Q8"): (8, 32),
    ("Z3", "S3"): (1, 36),
}

# Pairs whose |H|.|G| exceeds the default bound of 16 and is passed explicitly.
CLASSIFY_BOUND = {("Z3", "S3"): 18}

# Defects of the library that the benchmark counts instead of hiding.  With a
# non-abelian kernel G the cocycle enumerator only lets phi range over
# homomorphisms H -> Aut(G), so the butterfly route finds the right number of
# classes but its class counts sum to the short totals below, and the oracle
# raises KeyError when a section change leaves the enumerated set.  An op that
# fails in exactly this way is a known defect; any other wrong answer fails.
KNOWN_SHORT_TOTAL = {
    ("Z2", "S3"): 4,
    ("Z2", "D4"): 12,
    ("Z2", "Q8"): 20,
    ("Z3", "S3"): 3,
}
KNOWN_ORACLE_ERROR = KeyError

# ---------------------------------------------------------------------------
# law-suites: (fixture seed, bound) -> pinned outcome

# The law-suites pool.  It is the same for every benchmark seed, which only
# orders it: suite cost per fixture seed ranges over 0.1-0.6 s, and a pool
# drawn per seed would move throughput by more than the bounds allow.
FIXTURE_SEEDS = tuple(range(14))
FIXTURE_BOUNDS = (8, 16)

# (crossed modules, morphisms, butterflies, two-cells, bicategory cases,
#  fractions cases); both clean suites are ok, both fault runs fail with the
# same case counts.
LAW_REFERENCE = {
    (0, 8): (11, 109, 26, 4, 394, 353),
    (0, 16): (12, 160, 29, 4, 305, 464),
    (1, 8): (11, 109, 27, 4, 384, 353),
    (1, 16): (12, 160, 29, 4, 289, 466),
    (2, 8): (11, 109, 24, 4, 288, 349),
    (2, 16): (12, 160, 28, 4, 385, 463),
    (3, 8): (11, 108, 23, 4, 205, 342),
    (3, 16): (12, 159, 31, 4, 391, 468),
    (4, 8): (11, 109, 25, 4, 281, 348),
    (4, 16): (12, 159, 29, 4, 292, 465),
    (5, 8): (11, 109, 26, 4, 325, 351),
    (5, 16): (12, 161, 27, 4, 259, 462),
    (6, 8): (11, 110, 26, 4, 396, 351),
    (6, 16): (12, 160, 30, 4, 290, 470),
    (7, 8): (11, 110, 24, 4, 225, 348),
    (7, 16): (12, 160, 29, 4, 296, 465),
    (8, 8): (11, 109, 25, 4, 346, 348),
    (8, 16): (12, 159, 30, 4, 332, 464),
    (9, 8): (11, 110, 25, 4, 382, 352),
    (9, 16): (12, 160, 30, 4, 273, 466),
    (10, 8): (11, 108, 25, 4, 414, 347),
    (10, 16): (12, 158, 29, 4, 268, 463),
    (11, 8): (11, 109, 25, 4, 294, 349),
    (11, 16): (12, 160, 30, 4, 468, 466),
    (12, 8): (11, 109, 26, 4, 340, 353),
    (12, 16): (12, 157, 32, 4, 495, 461),
    (13, 8): (11, 109, 26, 4, 380, 351),
    (13, 16): (12, 159, 28, 4, 232, 461),
}

# ---------------------------------------------------------------------------
# store-roundtrip: crossed module name -> command -> pinned ref prefixes

REF_PREFIX = 16
STORE_REFERENCE = {
    'D(Z2)': {
        'identity': ('b7de87585137ead5',),
        'compose': ('a97eddc85bd349be',),
        'flip': ('b7de87585137ead5',),
        'span': ('1c3379897e259075', 'e6b8880b934e1d4e', 'e6b8880b934e1d4e'),
        'split': ('fd27ab1f81ad89bc',),
        'extract': ('55027d419978e86e',),
        'assemble': ('44474bdd20fab522',),
    },
    'D(Z3)': {
        'identity': ('7cfc356e74194802',),
        'compose': ('8d649020456f2c55',),
        'flip': ('7cfc356e74194802',),
        'span': ('a9d290c1582429c9', '6ccf24ef660ec797', '6ccf24ef660ec797'),
        'split': ('ae2c69f9a384582c',),
        'extract': ('77b2f99add566416',),
        'assemble': ('6ad1afc783b4d06d',),
    },
    'D(Z4)': {
        'identity': ('28a129c66308e4ce',),
        'compose': ('94dd0f46eeb9e610',),
        'flip': ('28a129c66308e4ce',),
        'span': ('d312e083083f36c7', 'e6091f2d8668a858', 'e6091f2d8668a858'),
        'split': ('0d78a81e2c243437',),
        'extract': ('a798104ce82889c3',),
        'assemble': ('d80eb68f78eeebde',),
    },
    'D(Z2xZ2)': {
        'identity': ('3bbe45f21a7dab95',),
        'compose': ('8c1b856459a6fb17',),
        'flip': ('3bbe45f21a7dab95',),
        'span': ('897635eeba5e93c2', '9c6503ca5abbe7bf', '9c6503ca5abbe7bf'),
        'split': ('2e1333ed595ec654',),
        'extract': ('cab2c4c462f1f2b0',),
        'assemble': ('51ea8f6092cbe61f',),
    },
    'A(Z2)': {
        'identity': ('7cd37a655479b459',),
        'compose': ('b2c7e6ff9dc3e49a',),
        'flip': ('7cd37a655479b459',),
        'span': ('4c8b2661041c252d', 'a2710fe59d5d7471', 'c4c04554c531be48'),
        'split': ('4e07c5b7aaa6b83e',),
        'extract': ('c9a31f4c3e3433f9',),
        'assemble': ('e3d0ef297260bb44',),
    },
    'A(Z3)': {
        'identity': ('e75279c7ace53e57',),
        'compose': ('81f46a1bdf39a7a5',),
        'flip': ('249f5af7d0c847c9',),
        'span': ('6281c4ec0682740f', '84fa45da4232efae', '57423fc37941dec2'),
        'split': ('871b138256fc0e77',),
        'extract': ('cae232c33302e9d9',),
        'assemble': ('4916169cbefdd660',),
    },
    'A(Z4)': {
        'identity': ('4c20240a807c08a7',),
        'compose': ('9ec573c0d7999917',),
        'flip': ('6f74b6c9d26eb85a',),
        'span': ('6f11df8faaf8e418', '423534de7923a4fb', '31f659fcafc1bcb5'),
        'split': ('b1ce1daffb064539',),
        'extract': ('607e1d7c18ca9f70',),
        'assemble': ('0ef6b0101d5ab55c',),
    },
    'A(Z2xZ2)': {
        'identity': ('0fb851745218c652',),
        'compose': ('d03397627ea640b4',),
        'flip': ('0fb851745218c652',),
        'span': ('5f13da943cff5438', '130b0c2f04ebdd8a', 'd5655a4ae0f2e688'),
        'split': ('e1073324556c90aa',),
        'extract': ('beaa66e26d01821d',),
        'assemble': ('2efa869487b351ef',),
    },
    'C(Z2)': {
        'identity': ('748a753975d86c6b',),
        'compose': ('94a16a1c0292f2a4',),
        'flip': ('da976d3ecaffffde',),
        'span': ('c76204df3d9a57a0', '112fafab5b469f71', '5346c8a7c9cba5c9'),
        'split': ('02a08e51f0206c00',),
        'extract': ('c249e03ae9a7b8b7',),
        'assemble': ('e1e57dd0b14f945a',),
    },
    'C(Z3)': {
        'identity': ('2bca00de5791e991',),
        'compose': ('61fa6211e52c3465',),
        'flip': ('172ffb1c83b35e16',),
        'span': ('6185643f0ac3f071', 'cf7c3a646352a3ee', 'b673c2c83993000f'),
        'split': ('a3c91f7d109e4c82',),
        'extract': ('59c4e6503516bf09',),
        'assemble': ('0fd07b90da5e1565',),
    },
    'C(Z4)': {
        'identity': ('660d397a5ad04f15',),
        'compose': ('546765fd3330e461',),
        'flip': ('b69ed7502f6f1f0b',),
        'span': ('73b66b1503067455', '9b1a74cfce8a14c9', '11bc259f5ab5d93c'),
        'split': ('f91538bd242994da',),
        'extract': ('ba2d48f04618e9ff',),
        'assemble': ('3c9339556b1426bf',),
    },
    'C(Z2)^*(Z4)': {
        'identity': ('84f36761d6ba654b',),
        'compose': ('16277a53118c05bd',),
        'flip': ('ed0f083de456bfdd',),
        'span': ('c614bfb92f989c30', '82c20e09a03102d2', '11efa4ac328a6a3c'),
        'split': ('72559163bea21dd3',),
        'extract': ('ba2d48f04618e9ff',),
        'assemble': ('3c9339556b1426bf',),
    },
    'C(S3)': {
        'identity': ('1bd5fef6b3c118f8',),
        'compose': ('865e48b4a9c2572c',),
        'flip': ('6b57d4b318f1d6fb',),
        'span': ('7721e9a521f0b954', 'ef4d9eec0c142465', '1afe311b2c2faf1c'),
        'split': ('fc04248c96275e10',),
        'extract': ('fc51c64941a0f773',),
        'assemble': ('bf4714770cea16f5',),
    },
    'A(S3)': {
        'identity': ('9d628d3a6fec8c47',),
        'compose': ('af083f5308d4f7a9',),
        'flip': ('fe2030fae0ee80f2',),
        'span': ('aa8b5d200cf7be7e', '538a76f6b04cd8b0', 'edaf34ebf80eff33'),
        'split': ('550e51371c88f075',),
        'extract': ('cbbf4bfdfa3d386b',),
        'assemble': ('7201f5ffb1a6eed3',),
    },
    'C(D4)': {
        'identity': ('b1121489d8a8e034',),
        'compose': ('ef2757406e1004c2',),
        'flip': ('c613a51bafad9022',),
        'span': ('a4a80c834e83c3a9', 'a49e51d58d7023f3', '5aaf19f2b4beb129'),
        'split': ('b0ac373089ccf5d9',),
        'extract': ('1a997baefe288ac1',),
        'assemble': ('6d0064da8b8629f9',),
    },
    'A(D4)': {
        'identity': ('72ed570f31090be2',),
        'compose': ('c1f83a5788dd676e',),
        'flip': ('04b3856da81ac8fc',),
        'span': ('9ccbee248f2ff525', 'eb4d75cfc55634b7', '8a612f977097ea30'),
        'split': ('330864846cdefe81',),
        'extract': ('1f4996961687b75c',),
        'assemble': ('94e44f09a02a629e',),
    },
    'C(Q8)': {
        'identity': ('dc84b5a75ce90cfd',),
        'compose': ('bc1749296e27eb2c',),
        'flip': ('548e9dcb3de99bf9',),
        'span': ('c1336e123647dc4a', 'ad749442fa59ba39', 'ca10d3b68d05272d'),
        'split': ('056f91ef22cf6d2a',),
        'extract': ('a0a37591c36d28ec',),
        'assemble': ('e576b81573760304',),
    },
}


# ---------------------------------------------------------------------------
# brute force


def automorphisms(table) -> list[tuple[int, ...]]:
    """Every bijection fixing 0 that preserves the table, identity first."""
    n = len(table)
    out = []
    for tail in itertools.permutations(range(1, n)):
        p = (0,) + tail
        if all(p[table[a][b]] == table[p[a]][p[b]] for a in range(n) for b in range(n)):
            out.append(p)
    out.sort()
    return out


def _inverse(table) -> list[int]:
    return [row.index(0) for row in table]


def schreier_data(H, G) -> list[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]]:
    """Every normalized (phi, f) with phi(x) in Aut(G), f: H x H -> G, and

        phi(x) phi(y) = c(f(x,y)) phi(xy)                      (c = conjugation)
        phi(x)(f(y,z)) f(x,yz) = f(x,y) f(xy,z)

    phi is returned as a tuple of permutations of G.  Slots are filled in a
    fixed order and each condition is tested as soon as its inputs are set.
    """
    nH, nG = len(H), len(G)
    autos = automorphisms(G)
    ginv = _inverse(G)
    conj = [tuple(G[G[g][a]][ginv[g]] for a in range(nG)) for g in range(nG)]
    # phi first (slots 1..nH-1), then f on pairs with both entries non-zero
    pairs = [(x, y) for x in range(1, nH) for y in range(1, nH)]
    results = []
    for phi_tail in itertools.product(autos, repeat=nH - 1):
        phi = (tuple(range(nG)),) + phi_tail
        allowed = {}
        for x, y in pairs:
            # c(f) = phi(x) phi(y) phi(xy)^-1 pins f up to the centre
            lhs = tuple(phi[x][phi[y][a]] for a in range(nG))
            pxy = phi[H[x][y]]
            allowed[(x, y)] = [g for g in range(nG) if tuple(conj[g][pxy[a]] for a in range(nG)) == lhs]
            if not allowed[(x, y)]:
                break
        else:
            f = [[0] * nH for _ in range(nH)]
            # a triple is checkable once all four f-values it reads are set
            position = {p: i for i, p in enumerate(pairs)}

            def last(x, y):
                return position.get((x, y), -1)

            checks = [[] for _ in pairs]
            for x, y, z in itertools.product(range(1, nH), repeat=3):
                k = max(last(y, z), last(x, H[y][z]), last(x, y), last(H[x][y], z))
                if k >= 0:
                    checks[k].append((x, y, z))

            def ok(x, y, z):
                return G[phi[x][f[y][z]]][f[x][H[y][z]]] == G[f[x][y]][f[H[x][y]][z]]

            def fill(k):
                if k == len(pairs):
                    results.append((phi, tuple(tuple(r) for r in f)))
                    return
                x, y = pairs[k]
                for g in allowed[(x, y)]:
                    f[x][y] = g
                    if all(ok(*t) for t in checks[k]):
                        fill(k + 1)
                f[x][y] = 0

            fill(0)
    return results


def class_count(H, G, data) -> int:
    """Orbits of the Schreier data under change of section by h: H -> G.

    The section x -> h(x) s(x) changes (phi, f) to
        phi'(x) = c(h(x)) phi(x),
        f'(x,y) = h(x) phi(x)(h(y)) f(x,y) h(xy)^-1.
    """
    nH, nG = len(H), len(G)
    ginv = _inverse(G)
    conj = [tuple(G[G[g][a]][ginv[g]] for a in range(nG)) for g in range(nG)]
    seen = set()
    classes = 0
    for phi, f in data:
        if (phi, f) in seen:
            continue
        classes += 1
        for tail in itertools.product(range(nG), repeat=nH - 1):
            h = (0,) + tail
            phi2 = tuple(tuple(conj[h[x]][phi[x][a]] for a in range(nG)) for x in range(nH))
            f2 = tuple(
                tuple(
                    G[G[G[h[x]][phi[x][h[y]]]][f[x][y]]][ginv[h[H[x][y]]]]
                    for y in range(nH)
                )
                for x in range(nH)
            )
            seen.add((phi2, f2))
    return classes


def brute_force_counts(H, G) -> tuple[int, int]:
    """(classes, factor sets) of extensions of H by G, from tables alone."""
    data = schreier_data(H, G)
    return class_count(H, G, data), len(data)


# ---------------------------------------------------------------------------
# the groups of the classify grid, as tables independent of the library


def cyclic_table(n: int):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def product_table(A, B):
    nB = len(B)
    pairs = [(a, b) for a in range(len(A)) for b in range(nB)]
    return tuple(tuple(A[a][c] * nB + B[b][d] for (c, d) in pairs) for (a, b) in pairs)


def permutation_group_table(perms):
    """Table of a list of permutations (tuples) closed under composition,
    with (p * q)(i) = p(q(i)); the identity must come first."""
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[i]] for i in range(len(p)))] for q in perms) for p in perms)


def _closure(gens):
    n = len(gens[0])
    ident = tuple(range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(n))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return [ident] + sorted(seen - {ident})


def reference_tables() -> dict[str, tuple[tuple[int, ...], ...]]:
    """Z2, Z3, Z4, Z8, V4, S3, D4 and Q8 as Cayley tables."""
    s3 = _closure([(1, 0, 2), (1, 2, 0)])
    d4 = _closure([(1, 2, 3, 0), (0, 3, 2, 1)])  # symmetries of a square
    # Q8 as permutations of {±1, ±i, ±j, ±k} acted on by left multiplication
    q8 = _closure([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)])
    return {
        "Z2": cyclic_table(2),
        "Z3": cyclic_table(3),
        "Z4": cyclic_table(4),
        "Z8": cyclic_table(8),
        "V4": product_table(cyclic_table(2), cyclic_table(2)),
        "S3": permutation_group_table(s3),
        "D4": permutation_group_table(d4),
        "Q8": permutation_group_table(q8),
    }
