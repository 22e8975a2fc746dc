"""Golden equivalence: the pipeline's output is pinned byte for byte.

The fixpoint loop re-examines only the clauses and variables whose
neighbourhood changed since their last check. That is a pure speed-up:
it must evolve the clause database exactly as a full rescan every round
would. Each case below pins what a full rescan produced on seeded
instances from the in-repo generators, with and without frozen
variables: the reduced formula's fingerprint, the size of the variable
map, the size and SHA-256 of the reconstruction stack, every
:class:`PreprocessStats` counter except the wall-clock time, and the
SHA-256 of the DRAT lines.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.cnf.structured import (
    all_equal_formula,
    complete_graph_edges,
    cycle_graph_edges,
    graph_coloring_formula,
    pigeonhole_formula,
)
from repro.preprocess import Preprocessor, PreprocessStats
from repro.proofs import ProofLog


def _implication_chain(n: int) -> CNFFormula:
    """x1, and x_i -> x_{i+1}: decided by unit propagation alone."""
    return CNFFormula.from_ints([[1]] + [[-i, i + 1] for i in range(1, n)], n)


def _mixed(n: int, m2: int, m3: int, m4: int, seed: int) -> CNFFormula:
    """Random 2-, 3- and 4-clauses over the same variables: short clauses
    subsume and strengthen long ones, so every technique has work."""
    clauses = []
    for k, m in ((2, m2), (3, m3), (4, m4)):
        clauses += random_ksat(n, m, k, seed=seed * 10 + k).to_ints()
    return CNFFormula.from_ints(clauses, n)


def _disjoint(n: int, m: int, count: int, seed: int) -> CNFFormula:
    """``count`` small random 3-SAT formulas on disjoint variables: many
    short fixpoint cascades (up to 9 rounds) in one run."""
    clauses = []
    for part in range(count):
        shift = n * part
        for clause in random_ksat(n, m, 3, seed=seed + part).to_ints():
            clauses.append([lit + shift if lit > 0 else lit - shift for lit in clause])
    return CNFFormula.from_ints(clauses, n * count)


#: name -> (formula factory, Preprocessor options)
_INSTANCES = {
    "rand3-n50-r4.26": (lambda: random_ksat(50, 213, 3, seed=11), {}),
    "rand3-n100-r4.26": (lambda: random_ksat(100, 426, 3, seed=12), {}),
    "rand3-n150-r3.0": (lambda: random_ksat(150, 450, 3, seed=13), {}),
    "rand3-n300-r3.0": (lambda: random_ksat(300, 900, 3, seed=14), {}),
    "rand3-n200-r2.0": (lambda: random_ksat(200, 400, 3, seed=15), {}),
    "rand3-n120-r4.26-growth": (
        lambda: random_ksat(120, 511, 3, seed=16),
        {"bve_growth": 4, "bve_occurrence_limit": 24},
    ),
    "rand3-30x9-r3.0": (lambda: _disjoint(9, 27, 30, 300), {}),
    "rand3-25x12-r4.25": (lambda: _disjoint(12, 51, 25, 400), {}),
    "rand4-n80-r9.9": (lambda: random_ksat(80, 792, 4, seed=17), {}),
    "mixed-n60": (lambda: _mixed(60, 40, 120, 60, 1), {}),
    "mixed-n120": (lambda: _mixed(120, 100, 150, 100, 6), {}),
    "mixed-n60-max2": (lambda: _mixed(60, 40, 120, 60, 1), {"max_rounds": 2}),
    "mixed-n200": (lambda: _mixed(200, 70, 500, 300, 5), {}),
    "mixed-n80-growth": (lambda: _mixed(80, 50, 180, 100, 3), {"bve_growth": 3}),
    "mixed-n150-growth": (
        lambda: _mixed(150, 90, 300, 200, 4),
        {"bve_growth": 2, "bve_occurrence_limit": 30},
    ),
    "php-5-4": (lambda: pigeonhole_formula(5, 4), {}),
    "php-4-4": (lambda: pigeonhole_formula(4, 4), {}),
    "all-equal-40": (lambda: all_equal_formula(40), {}),
    "cycle9-3col": (
        lambda: graph_coloring_formula(cycle_graph_edges(9), 9, 3),
        {},
    ),
    "k5-4col": (lambda: graph_coloring_formula(complete_graph_edges(5), 5, 4), {}),
    "chain-200": (lambda: _implication_chain(200), {}),
}


def _frozen(formula: CNFFormula) -> frozenset:
    return frozenset(range(1, formula.num_variables + 1, 5))


#: The pinned :class:`PreprocessStats` counters, in golden-tuple order.
COUNTERS = (
    "original_variables",
    "original_clauses",
    "original_literals",
    "reduced_variables",
    "reduced_clauses",
    "reduced_literals",
    "rounds",
    "interrupted",
    "tautologies_removed",
    "units_propagated",
    "pure_literals",
    "subsumed_clauses",
    "strengthened_literals",
    "blocked_clauses",
    "eliminated_variables",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot(name: str, frozen: bool) -> tuple:
    """``(status, map size, stack size, counters, fingerprint, stack
    SHA-256, DRAT line count, DRAT SHA-256)`` of one case."""
    factory, options = _INSTANCES[name]
    formula = factory()
    proof = ProofLog()
    result = Preprocessor(**options).preprocess(
        formula, frozen=_frozen(formula) if frozen else (), proof=proof
    )
    lines = proof.lines()
    return (
        result.status,
        len(result.variable_map),
        len(result.stack),
        tuple(getattr(result.stats, counter) for counter in COUNTERS),
        result.formula.fingerprint(),
        _sha256(repr(result.stack.steps)),
        len(lines),
        _sha256("\n".join(lines)),
    )


#: Recorded with the full-rescan pipeline, which ran every technique over
#: every clause and variable in every round.
GOLDEN = {
    ("all-equal-40", False): (
        "SAT", 0, 78,
        (40, 78, 156, 0, 0, 0, 2, False, 0, 0, 0, 0, 0, 78, 0),
        "80e0fd61bb1a44b79e3eb919cf819fc12e32596d1bdcf0bc80357da032d194cf",
        "41102faf555d57ff185adc52e52199f8ada0676a9df328a1fe1d99882b116b13",
        78, "fb0aae66d30360ccf4eb9390251ced14f9d05f195964ca0dce4b9db06e72e9c5",
    ),
    ("all-equal-40", True): (
        "REDUCED", 8, 33,
        (40, 78, 156, 8, 14, 28, 2, False, 0, 0, 0, 0, 0, 2, 31),
        "62d66bedbc2138ed35d4035e1b00737b11ddcf16c55570119f1a5c1a70c2cb1b",
        "7a5ab829d231e5d94721676f0aa99a284abcb9db2a2447be6ebf8efc9cd089ba",
        180, "ddccd31978cbf7f4caa1f53df48f8f684acd6686907ce67f68906d780ae439fa",
    ),
    ("chain-200", False): (
        "SAT", 0, 200,
        (200, 200, 399, 0, 0, 0, 2, False, 0, 200, 0, 0, 0, 0, 0),
        "80e0fd61bb1a44b79e3eb919cf819fc12e32596d1bdcf0bc80357da032d194cf",
        "dab3c881138f70e8d80507ca5cbc785363f90d6277ff7459e1976c75bb8216d4",
        598, "a028e10db3a045d74ac2b759ae644b296e65d789e20fe3a41add1933113b1335",
    ),
    ("chain-200", True): (
        "REDUCED", 40, 160,
        (200, 200, 399, 40, 40, 40, 2, False, 0, 0, 4, 0, 195, 156, 0),
        "1f27a02a94243d5602a412b0f1e76ceaf6c91d2367cbf8449963d322eb2937b5",
        "965daf6c882df4a6c0d06c2e14f08858da5504ec90762db7a5325e9e6d1cfb64",
        550, "ca6996ee9b4e4f6d93bbd67fa1a2b0c9d8bf3db2f317aee77863c704922a4a21",
    ),
    ("cycle9-3col", False): (
        "SAT", 0, 52,
        (27, 63, 135, 0, 0, 0, 3, False, 0, 0, 1, 0, 0, 27, 24),
        "80e0fd61bb1a44b79e3eb919cf819fc12e32596d1bdcf0bc80357da032d194cf",
        "15328fbd5623da17b9bbe7287ce0f1bf4ae9edceed1e36489913133ceb6481ac",
        135, "02b12e55e8771230febcc2c4a350054a2e8e2290a433dafdb1a510c1228eb7bf",
    ),
    ("cycle9-3col", True): (
        "REDUCED", 6, 48,
        (27, 63, 135, 6, 1, 3, 2, False, 0, 0, 0, 0, 0, 27, 21),
        "e79c2b223cca82d35c3b27c59a98bfeed90ce1895c94b3cf2fff0dd3231b9153",
        "a7aa6f09be0dce952dcf686f3cf760a7c6f6e985f169d9238652e7cd11e31144",
        142, "59a2b25e81da11c9a28952c8028bfe1bc58e5a05ca2e6f6531713ca97394c563",
    ),
    ("k5-4col", False): (
        "REDUCED", 15, 35,
        (20, 75, 160, 15, 40, 120, 2, False, 0, 0, 0, 0, 0, 30, 5),
        "8597aaafa2d8c8213beeb4a5f91f2388ffa58edc41c5975fe13be54437f8ca37",
        "c95e400c49caa60529b29a3ec10b6f38c2e46003dbfd14a3cf7c6947a1037d0a",
        75, "ed52d0267baa16c265fcca5bad3c6bf45c2778013d019d6aa49a1035ccf091ce",
    ),
    ("k5-4col", True): (
        "REDUCED", 15, 35,
        (20, 75, 160, 15, 40, 120, 2, False, 0, 0, 0, 0, 0, 30, 5),
        "fa4f3f28780f543ed36d1f50547158c1378f2aa1abaea6e01c70c12c44382f6b",
        "8c376a82c726deecd0140757c17f3213f4e129fcd9487be541b1a3617ce14270",
        75, "014adaa137c3a6d21505a1fdb0aeb357943664f90ff6a9089d0151ec70d70f80",
    ),
    ("mixed-n120", False): (
        "REDUCED", 105, 15,
        (120, 350, 1050, 105, 319, 999, 3, False, 0, 0, 5, 4, 11, 0, 10),
        "3aaf7a2f985987925844022d6e138d6a46b4768b1f6c7dd5564d7e7b5323fc4e",
        "2574e39e0b40ec9ef25c0db3f1f6c9fc74e296b7e5121b38a87b943f7815dfdd",
        141, "84c49108e926330e2f867e3d8ca05c6db8991ba86acfeb7b5a1547644b924fdb",
    ),
    ("mixed-n120", True): (
        "REDUCED", 108, 12,
        (120, 350, 1050, 108, 324, 1001, 3, False, 0, 0, 4, 3, 12, 0, 8),
        "13692aa382c2b1a366b0f48473510a56ab6f0f8ecd9f538f364b10837ef1992f",
        "1b41493793ed5628e35a8cc45be51127eb2b84fea97310f5cd0fff9fb321aa26",
        120, "83adf9f0cd8a21d8dc4b0b6c58f46b6f14d41dc12e2429d0e0349e604084877e",
    ),
    ("mixed-n150-growth", False): (
        "REDUCED", 144, 6,
        (150, 590, 1880, 144, 580, 1882, 3, False, 0, 0, 0, 9, 9, 0, 6),
        "8074f4c2bf9973a3cd0fec4ecade4bafdc0da76e83f79b75b4f7a3db3fc9c519",
        "f6fccdec7d72e905cfc12362ae8dd48701de564e2619b8dd53f37eea65a43e27",
        110, "adab5a533a725127139d27eae36cb03e7828340ea295724d9d471b3b5ab5b912",
    ),
    ("mixed-n150-growth", True): (
        "REDUCED", 146, 4,
        (150, 590, 1880, 146, 582, 1870, 3, False, 0, 0, 0, 9, 9, 0, 4),
        "edf79162e307ce518308879ab4ec30ec635d2d01590c247a15719267416b08c4",
        "8e1a371cab11e44e91ad4f84bbf381fa2f5778d94d3a632c80e3e0a3c10d71c3",
        70, "d8644702d58e8f46c801462e8e1c4c06041db54d167d6dc0f7381135bf8f0810",
    ),
    ("mixed-n200", False): (
        "REDUCED", 197, 4,
        (200, 870, 2840, 197, 853, 2811, 3, False, 0, 0, 1, 4, 3, 1, 2),
        "5a3e60a7a66ca73a33c2452ce0bd2432f79ebb347e66fec1816bd378875cfd94",
        "6654a071cef1191c0137b60281ce68f8f6669a3087402a57b88c69678fcb7eac",
        63, "ccb51b52bde732d0b755520df061b1abf0b49d1dc9652604b935b7cd3c346d71",
    ),
    ("mixed-n200", True): (
        "REDUCED", 197, 4,
        (200, 870, 2840, 197, 853, 2811, 3, False, 0, 0, 1, 4, 3, 1, 2),
        "5a3e60a7a66ca73a33c2452ce0bd2432f79ebb347e66fec1816bd378875cfd94",
        "6654a071cef1191c0137b60281ce68f8f6669a3087402a57b88c69678fcb7eac",
        63, "ccb51b52bde732d0b755520df061b1abf0b49d1dc9652604b935b7cd3c346d71",
    ),
    ("mixed-n60", False): (
        "REDUCED", 55, 5,
        (60, 220, 680, 55, 209, 680, 4, False, 0, 0, 0, 7, 14, 0, 5),
        "7d86b346ff5af8eec3c031994af271aa9c6c2a51c4299ec5d98ffb008ab485f8",
        "d328763ceec40234f2be8cb8f477e2708fdb3357d5055926bd61fbc541230002",
        113, "86fff0b1ea97620a37b21a09e5cc629d2d4d2fdb8d92101f553b575130d37af9",
    ),
    ("mixed-n60", True): (
        "REDUCED", 57, 3,
        (60, 220, 680, 57, 211, 674, 4, False, 0, 0, 0, 7, 14, 0, 3),
        "9fff0205fc53385630066662f4003dea975e33781990c54d2170bee09f954b5b",
        "52a806099d3196b4b053cb78327b375484827868dd3fa04b8e2f3c60a06bc3d2",
        85, "0b03057ff5ead1978a472b185cc4265813de16714e7fdb5b8cae46ce5b44f1d5",
    ),
    ("mixed-n60-max2", False): (
        "REDUCED", 55, 5,
        (60, 220, 680, 55, 210, 685, 2, False, 0, 0, 0, 6, 14, 0, 5),
        "2fc58738912f60584bac93268e1cb79ecfb714ddcc243d7e765bccf757dd3b95",
        "d328763ceec40234f2be8cb8f477e2708fdb3357d5055926bd61fbc541230002",
        112, "78507f164f46319423db1263fad49a8a9599d0ded7c41d7671689332effe02d2",
    ),
    ("mixed-n60-max2", True): (
        "REDUCED", 57, 3,
        (60, 220, 680, 57, 212, 679, 2, False, 0, 0, 0, 6, 14, 0, 3),
        "8c113589a70db407dae61c08f6d9addc6c7e2f01e4300b56cb527843a141ad1b",
        "52a806099d3196b4b053cb78327b375484827868dd3fa04b8e2f3c60a06bc3d2",
        84, "f4e1b8078e12c4467ecb16558aca0f9f3e8123229793ed1e51a4121a8201684a",
    ),
    ("mixed-n80-growth", False): (
        "REDUCED", 73, 7,
        (80, 330, 1040, 73, 321, 1045, 3, False, 0, 0, 1, 6, 17, 0, 6),
        "988e3c3a232a36960623e89a10ce946e00a8c25bb3a9400d15b4248559e872fe",
        "5fad20b0ccd07ac001f2aa200a0cdcd106dd1e1d6544d3f8f7acdac4b13ae8aa",
        153, "d4ca6bc680075680acda5eafd22305c7923d3c5226b1b42c3a2605da028b5e9b",
    ),
    ("mixed-n80-growth", True): (
        "REDUCED", 74, 6,
        (80, 330, 1040, 74, 320, 1033, 3, False, 0, 0, 1, 6, 17, 0, 5),
        "b021fa201ecbb0953dbe588fc5957152cb270f7eaa7fbf0d0c7ac5ef31b9ebce",
        "4f93d2f63aa3321a5794e72540a61797cbb401353c80b55137a75bccc01854d0",
        136, "b9a2e2f8c7eba2b9fe1afe85fd16f9ba399d5d8a71b797efc4e932f2bfb8c2b4",
    ),
    ("php-4-4", False): (
        "SAT", 0, 15,
        (16, 28, 64, 0, 0, 0, 4, False, 0, 0, 1, 0, 6, 0, 14),
        "80e0fd61bb1a44b79e3eb919cf819fc12e32596d1bdcf0bc80357da032d194cf",
        "5ec2dc81207014ef0fe1ec50ab7987e74fcaf8672a476f2d07acf1f4584d7cfb",
        136, "648ef8aa48941184a55d1962995a33c7d9fb0ef958193a7155c3b2ce1d855e38",
    ),
    ("php-4-4", True): (
        "REDUCED", 4, 15,
        (16, 28, 64, 4, 4, 16, 4, False, 0, 0, 0, 0, 7, 3, 12),
        "99fb4cc70240e6b2b3fe25fcad726a8e845d0ee30f207a8d15bab6fd9f312f86",
        "d886def1720a364c8d298e5fe5eaab10c3abccd836f64d74ce926bc53772e495",
        144, "abab4af087bd30af3809da558fbea05d2c66a53cbbd7b9958745488ea611274a",
    ),
    ("php-5-4", False): (
        "REDUCED", 15, 5,
        (20, 45, 100, 15, 40, 120, 2, False, 0, 0, 0, 0, 0, 0, 5),
        "8597aaafa2d8c8213beeb4a5f91f2388ffa58edc41c5975fe13be54437f8ca37",
        "ce8053a1948c2f6c3da5eeecf78cfd46c3f36c60937d3430d32657d150c64e96",
        45, "26a7409360e17f459dee796de8b5ab34c5a4ddb0da04af745cf117b7a8ebb948",
    ),
    ("php-5-4", True): (
        "REDUCED", 15, 5,
        (20, 45, 100, 15, 40, 120, 2, False, 0, 0, 0, 0, 0, 0, 5),
        "fa4f3f28780f543ed36d1f50547158c1378f2aa1abaea6e01c70c12c44382f6b",
        "2a197efb4fd4f4741871a162b4653401f02bf30cfc57b810d91e71c8d0510e4a",
        45, "15250c493dd76b30c17ec022d6fde2dd0c7447428b7e682fbc2a7008c89215e7",
    ),
    ("rand3-25x12-r4.25", False): (
        "REDUCED", 239, 122,
        (300, 1275, 3825, 239, 915, 2607, 8, False, 0, 3, 0, 202, 310, 71, 48),
        "b22be2dbb0af4422f1d45ec95caa7bb013d3afca67c23a1c6f457d687d17b8b9",
        "619488f01546437f83ad9c0158d1e4d3f0d88053af3a2fbd3561d2e861344c15",
        1506, "44609aef95df7a9d92e977b1630ad77fc64b34c525711ec96944c582ca8ac619",
    ),
    ("rand3-25x12-r4.25", True): (
        "REDUCED", 253, 86,
        (300, 1275, 3825, 253, 942, 2663, 8, False, 0, 1, 0, 244, 318, 45, 40),
        "0622897ff6dbad815bbab924593141427c49e5cef1cc000aa8e8569ae21d76a4",
        "28a2f2541feb594d8a9ee56e0321c6cc3fdfe5eb1288b4418da6b56f85050c0b",
        1471, "a361d73c7334eef6a926bc130a0fa14bd9e2fa1ee1598da8f0b0752a814e0864",
    ),
    ("rand3-30x9-r3.0", False): (
        "REDUCED", 41, 320,
        (270, 810, 2430, 41, 119, 362, 5, False, 0, 6, 21, 60, 124, 130, 163),
        "0803934c33161c55ffe47a466b6b914b7d59073efed27b087c2169ac2b5495de",
        "0991002a800b964149052993443474a9fe5efd950e8cc6537287047396b0b757",
        2233, "bbdaeb4a991f7c32d9f36dffd448cae4e44c6e382e0ffc68c7ae1e1549fa1a17",
    ),
    ("rand3-30x9-r3.0", True): (
        "REDUCED", 101, 271,
        (270, 810, 2430, 101, 181, 529, 7, False, 0, 0, 15, 118, 162, 117, 139),
        "eb88b2d57e9f68dab5fd7bc1d85543d2e92df038b599a8c96eb3cc7e52b0932e",
        "0dc86f5ce1ea3763124167d5cfce464fc0effe606f824e08c2a554e49aec6510",
        2179, "f8b5a7f8e7fc161cb53a4922c568af366aa8ddbf6b90393feb56a44bab27beda",
    ),
    ("rand3-n100-r4.26", False): (
        "REDUCED", 96, 4,
        (100, 426, 1278, 96, 414, 1253, 2, False, 0, 0, 2, 0, 0, 0, 2),
        "d59be84fe6909fbbb39d53f3218b638b81bce561677d3e1845ac47a955542505",
        "26922095c92f97c6ae3f9b19a07a5d47e410a153997907eda86c0440d9bf9b9d",
        34, "a9d7a615d096ed2312b8a7b303a5b21acaebafeb51f3564ea19f55f93ba4a391",
    ),
    ("rand3-n100-r4.26", True): (
        "REDUCED", 98, 2,
        (100, 426, 1278, 98, 421, 1269, 2, False, 0, 0, 1, 0, 0, 0, 1),
        "e7fe7555bdc5d4d02c6c958e7290a054111b10cf8ca36962f2c12d537f33d231",
        "e8b8d7582a5627d5096c678045fe60b589f952ee4ccbd741af473e06a3adb81e",
        17, "e283b59b0d2cea11282bee0f21c0b6cea8012ff8dfee088572fa0b2c471a2935",
    ),
    ("rand3-n120-r4.26-growth", False): (
        "REDUCED", 110, 10,
        (120, 511, 1533, 110, 518, 1626, 2, False, 0, 0, 0, 0, 0, 0, 10),
        "499ae720196e321f5a473d7fcd111f2a70839119e7e09f50bccef57d08c51244",
        "dc1365f75c5cd81e96289e578ee7f5e5ba15347c1a7fec3a2081773907db014c",
        129, "9966f5c6d6f16a4016a238b0ffcb718a0e0853110a7967c4c65bba18d574850d",
    ),
    ("rand3-n120-r4.26-growth", True): (
        "REDUCED", 112, 8,
        (120, 511, 1533, 112, 515, 1599, 2, False, 0, 0, 0, 0, 0, 0, 8),
        "6690ea3624b45ab77c7b6b63dfa7adcf346e42fac99f090c797e08247bd21cd1",
        "7257818f5eff80327d4d7b4150174a23d92e0f3495d459e748cffd3e2853be4b",
        102, "834e00b09992d37577608935a8ceb57a540a637edd1bc48a1c4e57a8c210b369",
    ),
    ("rand3-n150-r3.0", False): (
        "REDUCED", 120, 31,
        (150, 450, 1350, 120, 388, 1256, 2, False, 0, 0, 8, 0, 0, 2, 21),
        "83ee47a9eb5928fa6dd3f4f164beaa0f1165ecdfb1b23f4827662f3e6c99746b",
        "f3bab9d88a3d71d9f176be497d9ffbbe5f0b798c96cf9e56b9463ccafe7c7823",
        254, "f0a41fd567b4e9effb02cd4d324f56ec881e80c9137f641d54e89fd4bbbbae01",
    ),
    ("rand3-n150-r3.0", True): (
        "REDUCED", 127, 24,
        (150, 450, 1350, 127, 406, 1289, 2, False, 0, 0, 5, 0, 0, 2, 17),
        "b51664a0a9dffce3c99f5b8f691175fdabfcc2b6c15e258f35d1c7457cb5601a",
        "bda07b64c867f9f46b3ba470357a6fcfe2e2b1634305b4661e3290ab129c92ca",
        194, "c9667f866fe62b9659153c707be3c98657ae945dc3ef686e91ab1dd9188bb6c3",
    ),
    ("rand3-n200-r2.0", False): (
        "REDUCED", 103, 95,
        (200, 400, 1200, 103, 257, 992, 2, False, 0, 0, 23, 0, 0, 3, 69),
        "76aa2c4d9dedb29517e0f4422330f840630f84362b7715a0f286fe33685cf85a",
        "e0185b45057db167cf6607282a4c09f05f5df89fd56bbce66fb63f3e06a6c27c",
        543, "2b8b94b56ece4f2732c40d9b4121105e2eb1500a977153ba98672ecd2166ba9b",
    ),
    ("rand3-n200-r2.0", True): (
        "REDUCED", 123, 75,
        (200, 400, 1200, 123, 282, 1031, 2, False, 0, 0, 19, 0, 0, 2, 54),
        "cccebfafe508742581aa284ae26df3439ec510ff33754996095dbd4d22a3f3c2",
        "fec53db80946e6dc05551da05fd7b0cf15d375457f26f7ce79068f1ea4c83101",
        446, "6c5439514024e4122b23ba5e8468275758b606046b7d91e7594e2ee28e09303e",
    ),
    ("rand3-n300-r3.0", False): (
        "REDUCED", 264, 37,
        (300, 900, 2700, 264, 836, 2614, 2, False, 0, 0, 9, 0, 0, 1, 27),
        "af0d2325e26aed12944f5be8fb94f40c5d4d9270ccb4f40fcefb206e3e6728fb",
        "3ee77f384e843613f969880d45309bdcfc1cec192dd9bae012cebb9e79a2f6f7",
        278, "9f1dae2bee03187e3d3e5d799881ae5cdfe286ea1c106cd90978edf5f808db74",
    ),
    ("rand3-n300-r3.0", True): (
        "REDUCED", 269, 32,
        (300, 900, 2700, 269, 839, 2605, 2, False, 0, 0, 9, 0, 0, 1, 22),
        "084f03a5f3cab64374d7b55200c07f8019c8ed3d769ce8e7d2364f9fd33796c7",
        "b9033acfd4196acd8e45acac657c8b6b9c591108a51552cfcf4f2f9335e64c21",
        239, "357a2d084885f847b0f429c0fb71c6b97aa53c2bc5c3eea760605c46f177980f",
    ),
    ("rand3-n50-r4.26", False): (
        "REDUCED", 49, 1,
        (50, 213, 639, 49, 212, 644, 2, False, 0, 0, 0, 0, 0, 0, 1),
        "bc5d0e4e57b39421a175b25fd555d7222c8acd7e5f781a0b53818f8f0076c9fa",
        "66e21336f59ff3d6634393965b2d65a2ff803c6bd34d6e6690327ce55d194c58",
        17, "3690078ec882044df4fdc6af80891751a1652fc271ec3967a0584df4faf18c16",
    ),
    ("rand3-n50-r4.26", True): (
        "REDUCED", 50, 0,
        (50, 213, 639, 50, 213, 639, 1, False, 0, 0, 0, 0, 0, 0, 0),
        "9cdfb8f2bf663d6c1d4b427161971176060768a9b4ba8b916b327bc6a6ec5c98",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("rand4-n80-r9.9", False): (
        "REDUCED", 80, 0,
        (80, 792, 3168, 80, 792, 3168, 1, False, 0, 0, 0, 0, 0, 0, 0),
        "3e0db8a5acc5c583884bcbd0e27411064789f0637c7f3a6420719d28c1b28923",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("rand4-n80-r9.9", True): (
        "REDUCED", 80, 0,
        (80, 792, 3168, 80, 792, 3168, 1, False, 0, 0, 0, 0, 0, 0, 0),
        "3e0db8a5acc5c583884bcbd0e27411064789f0637c7f3a6420719d28c1b28923",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("frozen", [False, True], ids=["free", "frozen"])
@pytest.mark.parametrize("name", sorted(_INSTANCES))
def test_pipeline_matches_full_rescan_golden(name, frozen):
    assert snapshot(name, frozen) == GOLDEN[(name, frozen)]


def test_golden_pins_every_counter_but_the_clock():
    fields = {field.name for field in dataclasses.fields(PreprocessStats)}
    assert set(COUNTERS) == fields - {"elapsed_seconds"}
