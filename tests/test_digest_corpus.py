"""Recorded digest corpus: byte-identity of closures, orbits and certificates.

The literals below were recorded once and must never be regenerated: any
change to how closures or orbits are enumerated has to reproduce them
exactly, independently of the benchmark's certificate gates.  The Klein-bottle
rows are the
per-representative class evidence of the torsion-free certificate for the
Klein bottle lifted to GL(3, Z), one row per nontrivial entry of the
built-in n = 3 torsion table, in table order.
"""

import hashlib

from congrusep import modgrp
from congrusep.exactlin import IntegerMatrix
from congrusep.jordan import torsion_order
from congrusep.separate import avoid_conjugacy, dump_certificate, torsion_class_table

E12 = IntegerMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
E23 = IntegerMatrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
U = IntegerMatrix([[1, 1], [0, 1]])
NEG_I = IntegerMatrix([[-1, 0], [0, -1]])

HEISENBERG_MOD5 = (125, "df2f7efbea050719d4af21dee5709560f1264b44024e682f8a412720e399e67d")

# the mod-7 class of the order-3 coordinate shift, the class the Heisenberg
# group <E12, E23> avoids at m = 7
SHIFT3 = IntegerMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
SHIFT3_CLASS_MOD7 = (156408, "d54d5e4528275f111df30f306b096ccf81f1e7ddaa60e823c3bedc0ac732272d")

FLAGSHIP_CERT_SHA256 = "035e2c70baa353e259bf6f743791cb016892bbfde7609dbccff720dc0b8623cc"

# [order, modulus, class_size, class_digest] per nontrivial n = 3 table entry
KLEIN_PER_REP = [
    [2, 3, 1, "0e993a922093adb272f16d6c592b6118f53ba48e56d494bc489ea318331e13ca"],
    [2, 4, 28, "283b3a05df71c02a857978500411826f5d1517c54a7c20afb6fa41de1d552c0a"],
    [2, 3, 117, "4b1a64353ee81d879a9e2235824789fa55a4e4eec8f72b7dccc167ca8d9c180c"],
    [2, 4, 336, "98fdee9f0f17681ddc8c1047539e0d8adefc46261bffe21ac6c0f86c3d45d795"],
    [2, 3, 117, "4b1a64353ee81d879a9e2235824789fa55a4e4eec8f72b7dccc167ca8d9c180c"],
    [3, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
    [3, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
    [4, 3, 702, "dcab761212fcf349aad28f629077a6d4d8715bfafb48c3ffe3ba7d4fd9feb834"],
    [4, 3, 702, "bbd618626d37bdfd71697832dd89f58b1ba96d0240e1390237880ec8f88d24dc"],
    [4, 2, 42, "ea806f4585f2f2a16d4425d6bf2436f0b6c121a844cfa53d5314430d82fb7b85"],
    [4, 2, 42, "ea806f4585f2f2a16d4425d6bf2436f0b6c121a844cfa53d5314430d82fb7b85"],
    [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
    [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
    [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
    [6, 2, 56, "e3e6f19abf1c22030b9ee6b73a12e7b65c09f088d162da8a32fd59b47d8a570d"],
]


def test_heisenberg_image_mod5_digest():
    image = modgrp.generate([modgrp.reduce(g, 5) for g in (E12, E23)])
    assert (image.size, image.digest()) == HEISENBERG_MOD5


def test_shift3_class_mod7_digest():
    cls = modgrp.conj_class(modgrp.reduce(SHIFT3, 7))
    assert (cls.size, cls.digest()) == SHIFT3_CLASS_MOD7


def test_klein_bottle_per_rep_classes():
    reps = [r for r in torsion_class_table(3).entries if torsion_order(r) > 1]
    assert len(reps) == len(KLEIN_PER_REP)
    for rep, (order, m, size, digest) in zip(reps, KLEIN_PER_REP):
        assert torsion_order(rep) == order
        cls = modgrp.conj_class(modgrp.reduce(rep, m))
        assert (cls.size, cls.digest()) == (size, digest)


def test_flagship_certificate_bytes():
    text = dump_certificate(avoid_conjugacy([U], NEG_I))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == FLAGSHIP_CERT_SHA256
