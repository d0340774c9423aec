"""The seeded generators: `random_cubical_group` builds each base cubical
model once per process and never changes it, the draw sequence of every
generator is the same with the caches cold or warm, the conjugations by
elementary operations match the former products, and the batches do no
constant or empty work (deterministic work counts, not wall-clock
bounds)."""

import hashlib
import importlib
import random

from rational_oracle import (product_conjugate_complex,
                             product_conjugate_cubical,
                             random_unimodular_with_inverse, translate)
from regver import matrices, randomized
from regver.homology import CubicalGroup
from regver.matrices import IntMatrix
from regver.randomized import (conjugate_complex, conjugate_cubical,
                               random_chain_complex, random_cubical_group,
                               random_int_matrix)
from regver.suites import verify_cubical_batch, verify_les_batch

homology_mod = importlib.import_module("regver.homology")

# the cached builders random_cubical_group calls; each wraps a public one
BUILDERS = (randomized._function_model, randomized._interval,
            randomized._constant)
# every argument tuple random_cubical_group can ask for
BASE_ARGS = [(randomized._function_model, (s, top))
             for s in (2, 3) for top in (1, 2, 3)] \
    + [(b, (top,)) for b in (randomized._interval, randomized._constant)
       for top in (1, 2, 3)]


def clear_caches():
    for b in BUILDERS:
        b.cache_clear()
    IntMatrix.identity.cache_clear()


def draws(seed: int) -> list:
    """Rounds of (cubical group, matrix, unimodular, its inverse) from one
    generator, so that each draw depends on the state the last one left."""
    rng = random.Random(seed)
    return [(random_cubical_group(rng), random_int_matrix(rng, 3, 4),
             *random_unimodular_with_inverse(rng, rng.randint(1, 5)))
            for _ in range(12)]


def matrices_of(rounds) -> list:
    out = []
    for g, m, p, pinv in rounds:
        out += [x for _, x in sorted(g.faces.items())]
        out += [x for _, x in sorted(g.degeneracies.items())]
        out += [m, p, pinv]
    return out


def digest(rounds) -> str:
    text = repr([m.to_lists() for m in matrices_of(rounds)])
    return hashlib.sha256(text.encode()).hexdigest()


def test_cached_base_models_stay_unmutated(monkeypatch):
    """Every base model a batch conjugated is still equal, after the batch,
    to a fresh build through the uncached builder."""
    real = randomized.conjugate_cubical
    used = {}
    monkeypatch.setattr(randomized, "conjugate_cubical",
                        lambda rng, c: used.setdefault(id(c), c)
                        and real(rng, c))
    clear_caches()
    assert verify_cubical_batch(50, seed=9).passed
    checked = 0
    for builder, args in BASE_ARGS:
        cached = builder(*args)
        if id(cached) in used:
            fresh = builder.__wrapped__(*args)
            assert (cached.top, cached.ranks) == (fresh.top, fresh.ranks)
            assert cached.faces == fresh.faces
            assert cached.degeneracies == fresh.degeneracies
            checked += 1
    assert checked == len(used) > 1


def test_public_builders_return_a_new_group_on_every_call():
    """Only random_cubical_group shares the cached base models, so a caller
    that changes a group it built cannot change anyone else's."""
    for builder, args in BASE_ARGS:
        public = builder.__wrapped__
        assert public(*args) is not public(*args)
        assert public(*args) is not builder(*args)
        public(*args).faces.clear()
        assert builder(*args).faces == public(*args).faces


# sha256 of draws(77), taken from the generators as they were before the base
# models were cached and their results built unchecked
DRAWS_77 = "6b9d866febe7bd2e914c83d3a450c51dafd1a386208cee4f8365bca02a0dd5e3"


def test_draws_are_the_same_with_the_caches_cold_and_warm():
    clear_caches()
    cold = draws(77)
    warm = draws(77)
    assert cold == warm
    for m in matrices_of(cold):
        assert m.rows and m.cols
        assert m == IntMatrix.from_rows(m.to_lists())
    for _, _, p, pinv in cold:
        assert p * pinv == IntMatrix.identity(p.rows)
    # the draw sequence itself is pinned, so that caching or building
    # through the unchecked constructor cannot reorder the random calls
    assert digest(cold) == DRAWS_77


def test_conjugations_match_the_product_route():
    """conjugate_cubical and conjugate_complex, which apply elementary
    operations, give the groups and complexes of the former route through
    the products P M P^-1, and leave rng where it left it.  The complexes
    are drawn in degrees 0..3 and re-indexed to start at -1, 0 or 1."""
    rng = random.Random(78)
    for _ in range(40):
        seed = rng.random()
        for conj, oracle, base in (
                (conjugate_cubical, product_conjugate_cubical,
                 random_cubical_group(rng)),
                (conjugate_complex, product_conjugate_complex,
                 translate(random_chain_complex(rng), rng.randint(-1, 1)))):
            mine, theirs = random.Random(seed), random.Random(seed)
            assert conj(mine, base) == oracle(theirs, base)
            assert mine.getstate() == theirs.getstate()


def test_base_models_are_built_once_per_argument_tuple(monkeypatch):
    """A 50-instance batch validates each conjugated instance and each
    distinct base model once; without the cache every instance would
    validate its base model again."""
    real = CubicalGroup.validate
    calls = []
    monkeypatch.setattr(CubicalGroup, "validate",
                        lambda self: calls.append(self) or real(self))
    clear_caches()
    assert verify_cubical_batch(50, seed=12).passed
    built = 0
    for b in BUILDERS:
        info = b.cache_info()
        assert info.misses == info.currsize
        built += info.currsize
    assert 0 < built <= len(BASE_ARGS)
    assert len(calls) == 50 + built


def test_les_batch_eliminates_no_all_zero_input(monkeypatch):
    """The LES batch asks `rank` and `kernel` about all-zero matrices (zero
    and empty differentials), and none of them reaches the elimination."""
    real = matrices._bareiss
    eliminated, asked = [], []

    def counting(rows, reduce=False):
        eliminated.append(any(map(any, rows)))
        return real(rows, reduce)

    def watched(f):
        def g(rows, *args):
            asked.append(any(map(any, rows)))
            return f(rows, *args)
        return g

    monkeypatch.setattr(matrices, "_bareiss", counting)
    monkeypatch.setattr(homology_mod, "rank", watched(matrices.rank))
    monkeypatch.setattr(homology_mod, "kernel", watched(matrices.kernel))
    assert verify_les_batch(60, seed=5).passed
    assert eliminated and all(eliminated)
    assert not all(asked)
