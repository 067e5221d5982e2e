"""Byte-level pin of the move layer's outputs.

Every IX/XI result on a fixed corpus, each corpus surface's
``maximally_spread`` record and ``all_maximal_spreadings`` of theta(3..5)
are serialized and hashed into one digest.  A change to ids, slot order,
signs, move documents or record hashes changes the digest.
"""

import hashlib
import json
import time

from mbs import maximally_spread, moebius_annulus, quasi_pure, random_surface, random_walk, theta
from mbs.io import move_to_document, record_to_document, serialize
from mbs.moves import all_maximal_spreadings
from mbs.search import neighbors

GOLDEN_DIGEST = "e44b1ae421ddfbad57ed257d3c9cf5abc49e7d24c1b58ec21990e59ac868d534"


def golden_corpus():
    """Corpus seeds 1..100, each followed along four chained 3-move walks,
    plus theta(3..7), spread theta(3..6), mb and qn."""
    surfaces = []
    for seed in range(1, 101):
        surface = random_surface(seed, 3 + seed % 28)
        surfaces.append(surface)
        for i in range(4):
            surface = random_walk(surface, seed + 1000 * i, 3)[0]
            surfaces.append(surface)
    surfaces += [theta(n) for n in range(3, 8)]
    surfaces += [maximally_spread(theta(n))[0] for n in range(3, 7)]
    surfaces += [moebius_annulus(), quasi_pure()]
    return surfaces


def test_move_outputs_match_golden_digest():
    start = time.perf_counter()
    digest = hashlib.sha256()

    def spread_entry(surface, record):
        digest.update(serialize(surface))
        digest.update(json.dumps(record_to_document(record)).encode())

    results = 0
    for surface in golden_corpus():
        for move, after in neighbors(surface):
            digest.update(json.dumps(move_to_document(move), sort_keys=True).encode())
            digest.update(serialize(after))
            results += 1
        spread_entry(*maximally_spread(surface))
    for n in range(3, 6):
        for surface, record in all_maximal_spreadings(theta(n)):
            spread_entry(surface, record)
    assert results >= 1000
    assert digest.hexdigest() == GOLDEN_DIGEST
    assert time.perf_counter() - start < 2.0
