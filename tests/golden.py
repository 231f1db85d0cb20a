"""Frozen reference values used across the test suite.

Triangle rows and sequence prefixes were transcribed by hand from
published references (OEIS A354665-A354668 and the sum sequences named
below) and double-checked against independent enumeration before
freezing. Recursion term tables were transcribed from the published
recurrences for the same triangles; keys are (delta_n, delta_k) pairs
or delta_n offsets, values are coefficients.
"""

from __future__ import annotations

# tile-indexed triangle, rows 0..13: entry[n][k] counts n-tile tilings
# that use k combs

# (m, t) = (2, 3), A354665
TRIANGLE_2_3 = [
    [1],
    [1, 0],
    [1, 0, 1],
    [1, 1, 2, 0],
    [1, 2, 4, 0, 1],
    [1, 3, 6, 3, 3, 0],
    [1, 4, 9, 8, 9, 0, 1],
    [1, 5, 13, 17, 18, 6, 4, 0],
    [1, 6, 18, 30, 36, 20, 16, 0, 1],
    [1, 7, 24, 48, 66, 55, 40, 10, 5, 0],
    [1, 8, 31, 72, 114, 120, 100, 40, 25, 0, 1],
    [1, 9, 39, 103, 186, 234, 221, 135, 75, 15, 6, 0],
    [1, 10, 48, 142, 289, 420, 456, 350, 225, 70, 36, 0, 1],
    [1, 11, 58, 190, 431, 709, 876, 805, 581, 280, 126, 21, 7, 0],
]

# (m, t) = (2, 4), A354666
TRIANGLE_2_4 = [
    [1],
    [1, 0],
    [1, 0, 1],
    [1, 0, 2, 0],
    [1, 1, 4, 0, 1],
    [1, 2, 6, 0, 3, 0],
    [1, 3, 9, 4, 9, 0, 1],
    [1, 4, 12, 10, 18, 0, 4, 0],
    [1, 5, 16, 21, 36, 10, 16, 0, 1],
    [1, 6, 21, 36, 60, 30, 40, 0, 5, 0],
    [1, 7, 27, 57, 100, 81, 100, 20, 25, 0, 1],
    [1, 8, 34, 84, 158, 168, 200, 70, 75, 0, 6, 0],
    [1, 9, 42, 118, 243, 322, 400, 231, 225, 35, 36, 0, 1],
    [1, 10, 51, 160, 361, 560, 736, 560, 525, 140, 126, 0, 7, 0],
]

# (m, t) = (2, 5), A354667
TRIANGLE_2_5 = [
    [1],
    [1, 0],
    [1, 0, 1],
    [1, 0, 2, 0],
    [1, 0, 4, 0, 1],
    [1, 1, 6, 0, 3, 0],
    [1, 2, 9, 0, 9, 0, 1],
    [1, 3, 12, 5, 18, 0, 4, 0],
    [1, 4, 16, 12, 36, 0, 16, 0, 1],
    [1, 5, 20, 25, 60, 15, 40, 0, 5, 0],
    [1, 6, 25, 42, 100, 42, 100, 0, 25, 0, 1],
    [1, 7, 31, 66, 150, 112, 200, 35, 75, 0, 6, 0],
    [1, 8, 38, 96, 225, 224, 400, 112, 225, 0, 36, 0, 1],
    [1, 9, 46, 134, 325, 424, 700, 364, 525, 70, 126, 0, 7, 0],
]

# (m, t) = (3, 3), A354668
TRIANGLE_3_3 = [
    [1],
    [1, 0],
    [1, 0, 0],
    [1, 0, 0, 1],
    [1, 0, 1, 2, 0],
    [1, 1, 3, 4, 0, 0],
    [1, 2, 5, 8, 0, 0, 1],
    [1, 3, 8, 12, 0, 3, 3, 0],
    [1, 4, 12, 18, 9, 12, 9, 0, 0],
    [1, 5, 16, 27, 25, 29, 27, 0, 0, 1],
    [1, 6, 21, 42, 51, 66, 54, 0, 6, 4, 0],
    [1, 7, 27, 62, 95, 135, 108, 36, 30, 16, 0, 0],
    [1, 8, 34, 88, 160, 234, 216, 126, 95, 64, 0, 0, 1],
    [1, 9, 42, 122, 252, 396, 432, 321, 280, 160, 0, 10, 5, 0],
]

TRIANGLES = {
    (2, 3): TRIANGLE_2_3,
    (2, 4): TRIANGLE_2_4,
    (2, 5): TRIANGLE_2_5,
    (3, 3): TRIANGLE_3_3,
}

# row sums of the tile-indexed triangles
TILE_SUMS = {
    (2, 3): [1, 1, 2, 4, 8, 16, 32, 64, 128, 256],           # A011782
    (2, 4): [1, 1, 2, 3, 7, 12, 27, 49, 106, 199, 419],      # A099163
    (4, 2): [1, 1, 1, 1, 5, 12, 21, 34, 70, 155, 318, 610],
    (2, 5): [1, 1, 2, 3, 6, 11, 22, 43, 86, 171, 342, 683],  # A005578
}

# row sums of the board-indexed triangles, equivalently the
# (1, t-1)-antidiagonal sums of the tile-indexed ones
CELL_SUMS = {
    (2, 3): [1, 1, 1, 1, 1, 2, 4, 6, 9, 12, 16, 24, 36, 54, 81, 117],  # A224809
    (2, 4): [1, 1, 1, 1, 1, 1, 1, 2, 4, 6, 9, 12, 16, 20, 25, 35],     # A224808
    (4, 2): [1, 1, 1, 1, 1, 2, 4, 8, 16, 24, 36, 54, 81, 135, 225],
    (2, 5): [1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 6, 9, 12, 16, 20, 25,
             30, 36, 48, 64],                                          # A224811
}

# entry recursions B(n,k): (deltas {(n,k): c}, shifts {(dn,dk): c})
ENTRY_RELATIONS = {
    (2, 3): (
        {(0, 0): 1, (1, 1): -1},
        {(1, 0): 1, (1, 1): 1, (2, 1): -1, (2, 2): 1, (3, 1): 1, (3, 3): -1},
    ),
    (2, 4): (
        {(0, 0): 1, (2, 1): -1, (2, 2): -1},
        {(1, 0): 1, (2, 1): 1, (2, 2): 2, (3, 1): -1, (3, 2): -1,
         (4, 1): 1, (4, 2): 1, (4, 3): -1, (4, 4): -1},
    ),
    (4, 2): (
        {(0, 0): 1, (2, 1): -1, (3, 2): -1, (4, 4): -1},
        {(1, 0): 1, (2, 1): 1, (3, 1): -1, (3, 2): 1, (4, 1): 1,
         (4, 3): 1, (4, 4): 2, (5, 2): 1, (5, 3): 2, (5, 4): -1,
         (6, 3): -1, (6, 5): -1, (7, 4): -1, (7, 5): -1, (7, 6): -1,
         (8, 7): -1, (8, 8): -1},
    ),
    (2, 5): (
        {(0, 0): 1, (1, 1): -1, (2, 2): -1, (3, 1): -1, (3, 3): 1},
        {(1, 0): 1, (1, 1): 1, (2, 1): -1, (2, 2): 2, (3, 1): 1,
         (3, 2): -1, (3, 3): -2, (4, 1): -1, (4, 2): 1, (4, 3): 1,
         (4, 4): -1, (5, 1): 1, (5, 3): -2, (5, 5): 1},
    ),
}

# projected tile-count recursions B(n): (deltas {n: c}, shifts {dn: c})
TILE_SUM_RELATIONS = {
    (2, 3): ({0: 1, 1: -1}, {1: 2}),
    (2, 4): ({0: 1, 2: -2}, {1: 1, 2: 3, 3: -2}),
    (4, 2): (
        {0: 1, 2: -1, 3: -1, 4: -1},
        {1: 1, 2: 1, 4: 4, 5: 2, 6: -2, 7: -3, 8: -2},
    ),
    (2, 5): ({0: 1, 1: -1, 2: -1}, {1: 2, 2: 1, 3: -2}),
}

# cell-count recursions A(n) over board length
CELL_SUM_RELATIONS = {
    (2, 3): ({0: 1, 3: -1}, {1: 1, 3: 1, 4: -1, 5: 1, 6: 1, 9: -1}),
    (2, 4): (
        {0: 1, 5: -1, 8: -1},
        {1: 1, 5: 1, 6: -1, 7: 1, 8: 2, 9: -1, 10: 1, 13: -1, 16: -1},
    ),
    (4, 2): (
        {0: 1, 3: -1, 5: -1, 8: -1},
        {1: 1, 3: 1, 4: -1, 5: 2, 7: 2, 8: 4, 9: -2, 11: -2, 12: -1,
         13: -1, 15: -1, 16: -1},
    ),
    (2, 5): (
        {0: 1, 5: -1, 7: -1, 10: -1, 15: 1},
        {1: 1, 5: 1, 6: -1, 7: 1, 8: -1, 9: 1, 10: 2, 11: -1, 12: 1,
         15: -2, 16: 1, 17: -2, 20: -1, 25: 1},
    ),
}

# coefficients of (1 - x - x^3) / ((1 - 2x)(1 - x^2)(1 + 2x^2 + x^3 + x^4)),
# which generate the (4, 2) tile sums
GF_4_2 = (
    (1, -1, 0, -1),
    ((1, -2), (1, 0, -1), (1, 0, 2, 1, 1)),
)

# DOT export of the (2, 3) digraph, frozen byte for byte
DOT_2_3 = """digraph metatiles {
  rankdir=LR;
  "0" [shape=doublecircle];
  "01" [shape=circle];
  "0101" [shape=circle];
  "0" -> "0" [label="S"];
  "0" -> "0101" [label="C"];
  "01" -> "0" [label="S"];
  "01" -> "01" [label="C"];
  "0101" -> "01" [label="S"];
  "0101" -> "0" [label="C"];
}
"""

# SHA-256 digests of the m, t <= 6 digraphs, frozen from the string-state
# implementation: per family (export_dot, "digraph --format text" run as
# f"{exit code}\n{stdout}{stderr}"), and CycleStructure.to_json for the
# families whose structure classifies
DIGRAPH_DIGESTS = {
    (1, 2): (
        "f938bb5d173e6acc3e4d3fb39f3d116b1f8d94dddb69d272df7b5c892d9ceb96",
        "36f42f4afedd13b5d1af03b971a113cf1175f9aa9bd8a2b9a0d691593d1f93eb",
    ),
    (1, 3): (
        "f938bb5d173e6acc3e4d3fb39f3d116b1f8d94dddb69d272df7b5c892d9ceb96",
        "36f42f4afedd13b5d1af03b971a113cf1175f9aa9bd8a2b9a0d691593d1f93eb",
    ),
    (1, 4): (
        "f938bb5d173e6acc3e4d3fb39f3d116b1f8d94dddb69d272df7b5c892d9ceb96",
        "36f42f4afedd13b5d1af03b971a113cf1175f9aa9bd8a2b9a0d691593d1f93eb",
    ),
    (1, 5): (
        "f938bb5d173e6acc3e4d3fb39f3d116b1f8d94dddb69d272df7b5c892d9ceb96",
        "36f42f4afedd13b5d1af03b971a113cf1175f9aa9bd8a2b9a0d691593d1f93eb",
    ),
    (1, 6): (
        "f938bb5d173e6acc3e4d3fb39f3d116b1f8d94dddb69d272df7b5c892d9ceb96",
        "36f42f4afedd13b5d1af03b971a113cf1175f9aa9bd8a2b9a0d691593d1f93eb",
    ),
    (2, 2): (
        "2489a16542ab97999da17e954edd67befcc16dd2f4c28e66d9cfe61b5d16a696",
        "2d597e3b48378231fad40bfefda792f0373f0369436164dbf5a236bfe9594a2b",
    ),
    (2, 3): (
        "16abb7a9312e5d3d9c0362cb5de36b022723f85e618adc62ed459b353052a08d",
        "272f0e359f25c9086161571f5fd7c9596b79244df04be280cee252bbf0b77d9a",
    ),
    (2, 4): (
        "88bcce2db4d04d48b3ace2b920de34dd52a2773117bd0343f665ccc00f067950",
        "52a2b5cb79ffa27407e9348b7659cccfa655ae21fbc9732d539dbe0399c457d0",
    ),
    (2, 5): (
        "2433598a78d9a537a1feb6bc906f98024108f1e87fa8b03774b45d25e86ae584",
        "ee27bd37cde69331e8bb3d4f21a70e050f6836bc14db92ed910795ec25aa6bae",
    ),
    (2, 6): (
        "de34248311db55016b66ac1a0703b89c79a43cd85b45f6d0b6f8464f766bf85b",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (3, 2): (
        "de43a7999415de87eb9ef370fa0d102057f0f3709da81b3332db3208478c3423",
        "c294d3b39b9a64f2e0e14e5ec0eaeaa06b293345216451251b255683f8673a08",
    ),
    (3, 3): (
        "d59553724d325cf1301e946e8a4be664b37cffc455ad37026a949578221aa239",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (3, 4): (
        "cc42a67d21829e49d085e332737b67f4ea1c34299c6303cc83dc990f1c40fc12",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (3, 5): (
        "edaff918d76888e7bc36d0908c2d164945b981f2064dfdadc9081b46a2671354",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (3, 6): (
        "7bd8a92cd9c5aa27f4ed7c52c0c4e32c3699411f2891c8b06556ad1a985555b2",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (4, 2): (
        "91bcc9f6462bd8e1044e0b4aac0a80ff84b7837f323a2c11903fae18ebc8dceb",
        "c17bbda8c7130ac6078468caf54244e198d0fe3f058f876734dbd48c8a1c0cca",
    ),
    (4, 3): (
        "fba35a99ee7a3850b711168818ccdc63ecf0a3bc8b64f5630aaaef9bfc174b94",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (4, 4): (
        "75af7aa883a60de2f007222057843bfa74090b9249220344dceae30e794922d1",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (4, 5): (
        "789208bde97f9948579e8523348b947512c60063411bf8d86f95d52c21a73575",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (4, 6): (
        "caa4ea99953db7b4adb9a46fb5031059bb02eb132377b639d24f818065781412",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (5, 2): (
        "0cccb85fa9d20a866f4f0b2ea8a1f61447939038ebab986ac9ef168fdf74ee61",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (5, 3): (
        "ff4697af5cbf32d81de8cf3eaaf5847f04a0c8c0f2618e620ffd56a6b0ab0c5b",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (5, 4): (
        "9c49e75956b7dd5e7e6d91c9a7bb2a35a30ce0ca212c6d35bdeb3b65fb295239",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (5, 5): (
        "888cb9ae9c81861f904c095fa82857231c2efd1aa46cc75060abcdc306d22d23",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (5, 6): (
        "37dd26996cec577ed24bc973743bf0aa8acf7f5bdb92984636cb76ad5e78fc17",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (6, 2): (
        "21a28b4410df9ac57c91ca67d6c3a8bb32dbe2e7069fbaecc80ddc16afda3e1d",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (6, 3): (
        "d7df785fad0f0edc1eb075d9497b01af7ffa8be45223dd5c3fdb3aafb8f69328",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (6, 4): (
        "fe7e70772b3e4e59d7ecfca09db81a45ff1eca933909a4bf696e342d19bee1b8",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (6, 5): (
        "0d36e77ed657d37be32622ce878c6b5d87560cc22e7823bc86f006239d0d873d",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
    (6, 6): (
        "271be82a6272d92ba4e8b232c6ddcc6ba6551ef264922f50cbc747f821fe81e7",
        "d6f5b3283f0de63f4605989dc7d3156d28c9d3ab030e57b8b2760b0e20d4ebd4",
    ),
}
STRUCTURE_DIGESTS = {
    (1, 2): "83cfad8c4ae220cc4ba41e2734f30ccc502ebcd0bdabd2a7ed6edd67025fee4e",
    (1, 3): "2dda80c5e0bebb4302c70ea1e42c2f15e3b899a4393a2a2de0ffaf6a0be67442",
    (1, 4): "96cde36a145bfb3fb0cd88b5a33d74bb12dd496a2417d7dbde6f709303be3313",
    (1, 5): "29632d9b756bd4e9375ecfd2272d15335d464dba915de35131d4065ea519e0a6",
    (1, 6): "6b6365c0c847f5c4c70d4aa1f768308335acde3879a5f424d6052dd837c3d1a2",
    (2, 2): "88796791b6b1d86b74d54bd65e6e3b015e589c6ecb41da4315606316542cf637",
    (2, 3): "05c59727c006c5678b2698b1a76a101afd41b2b192becd5e2edc2eb91fcabc3a",
    (2, 4): "0ae43af9deabc9689dec2de25b768b38b182700a3d5ddbb05d7cf4d41c358988",
    (2, 5): "4af058c7a5977d70f72d93889b9d89f71cbd979ac9e9aa896de1e942d570178c",
    (3, 2): "9fafc8b12cb4be068c485cc4d183a449a7584fcbff2af10c3df4f6a6577b8df8",
    (4, 2): "b562f92049685b89c0dc387f4aeec044d946893d2aefa3be882ff28f76287e31",
}

# SHA-256 of `verify --profile P --format F` stdout: grid strings, case
# counts and notes of all 21 checks
VERIFY_DIGESTS = {
    ("quick", "text"): "d8b2e028f46abb3af016399cb3d54ecaf1ed24a1abbfda389545b977dd9316c4",
    ("quick", "json"): "194be7c1e5954f918634caa683cdb9e95acb1df007d6f4c19692f2d8a8e88c88",
    ("full", "text"): "df743be8b0f9b36a478a805ee3067affd8c66063455f6a15097f52a768bdf0be",
    ("full", "json"): "c75b008776847d3818d64eee5427d0f555c9f06d8b9ae5c1c86853fd8d3eebdb",
}

# SHA-256 of `--help` stdout at COLUMNS=80, top level ("") and each
# subcommand, as argparse lays it out on Python 3.10-3.12 (3.13 changed the
# layout)
HELP_DIGESTS = {
    "": "fdbef4c3bcda4c3a507282604797ac5145646feae5ce2bf14e9977d59ba4c702",
    "triangle": "94e24ff7c7ee4df070241b29fa481cb2343de62a139318e05ed7a4f5c929f154",
    "sums": "91e32fa4d4edf2a24cb70de70992346fe7204131071ff3d921a6e2746220f51f",
    "subsets": "6dd97f803e6fdc22237733be91cf80267211e547b85625cce104788439911ca7",
    "digraph": "1ca02ba4fa4c0b2bc91436a8125965f2de6ed0f5f13bdccfac37ddb8392c51b7",
    "metatiles": "60cf7ddc9b7280bbfddf14f368160ea542f2546d0254f77997cac14ac96c4621",
    "recursion": "267949268ac25edd503462122cd6332826d5ffef9e33bbb52ea49c655d0e8530",
    "verify": "4d22398c17c9f52f3e57371cd98b25f6cead085154b619b8dca47bc3d5f0f12a",
}
