import json
import random
from fractions import Fraction
from operator import mul

import pytest

from regver.homology import (ChainComplex, ChainMap, ComplexFormatError,
                             CubicalGroup, InvalidComplexData,
                             TwoArrowDiagram, associated_complex,
                             complex_from_json, complex_to_json,
                             cubical_from_json, cubical_to_json,
                             RationalHomology, decomposition_check,
                             degenerate_generators, homology, induced_map,
                             normalized_complex,
                             normalized_kernel_bases, simple_of_diagram,
                             simple_of_map, translate, truncate_leq,
                             two_term_complex, verify_les_exactness)
from rational_oracle import (OracleHomology, frac_matrix, frac_solve,
                             oracle_chain_map, oracle_induced_map, rref_rank)
from regver.matrices import (IntMatrix, column_lattice_basis, det, frac_rank,
                             invariant_factors, invariant_factors_by_minors,
                             kernel_basis, rank, smith_normal_form)
from regver.randomized import (constant_cubical, conjugate_cubical,
                               function_model_cubical, interval_cubical,
                               random_chain_complex, random_chain_map,
                               random_cubical_group, random_int_matrix)
from regver import suites
from regver.suites import (two_arrow_hand_instance, verify_cubical_batch,
                           verify_snf_batch, verify_two_arrow_formula)


# -- Smith normal form --------------------------------------------------------

def test_snf_examples():
    assert invariant_factors(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]
    u, d, v = smith_normal_form(IntMatrix.zero(2, 3))
    assert d.is_zero()
    assert invariant_factors(IntMatrix.identity(3)) == [1, 1, 1]


def test_snf_reconstruction_batch():
    rng = random.Random(41)
    for _ in range(60):
        m = random_int_matrix(rng, 4, 4)
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        inv = invariant_factors(m)
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(42)
    for _ in range(40):
        m = random_int_matrix(rng, 3, 3)
        assert invariant_factors(m) == invariant_factors_by_minors(m)


def test_kernel_basis_is_saturated():
    m = IntMatrix.from_rows([[2, 4]])
    k = kernel_basis(m)
    assert k.cols == 1
    col = [k.entries[0][0], k.entries[1][0]]
    assert 2 * col[0] + 4 * col[1] == 0
    from math import gcd
    assert abs(gcd(col[0], col[1])) == 1


# -- chain complexes ----------------------------------------------------------

def test_complex_rejects_bad_differential():
    with pytest.raises(InvalidComplexData):
        ChainComplex(0, 2, {0: 1, 1: 1, 2: 1},
                     {1: IntMatrix.from_rows([[1]]),
                      2: IntMatrix.from_rows([[1]])})


def test_homology_of_multiplication_by_two():
    c = two_term_complex(1, [[2]])
    assert homology(c, 0) == (0, [2])
    assert homology(c, 1) == (0, [])


def test_homology_zero_differentials():
    c = ChainComplex(0, 1, {0: 2, 1: 3}, {1: IntMatrix.zero(2, 3)})
    assert homology(c, 0) == (2, [])
    assert homology(c, 1) == (3, [])


def test_translate():
    c = two_term_complex(1, [[2]])
    assert translate(c, 0) == c
    assert translate(translate(c, 1), 1) == translate(c, 2)
    assert translate(c, 2).diff(3) == c.diff(1)
    assert translate(c, 1).diff(2) == c.diff(1).scale(-1)


def test_truncate_at_source_degree():
    # cochain view of Z --2--> Z puts the source in cochain degree -1;
    # truncating there keeps only the (trivial) kernel of multiplication
    c = two_term_complex(1, [[2]])
    t = truncate_leq(c, -1)
    assert (t.lo, t.hi) == (1, 1) and t.rank(1) == 0
    # truncating at the top cochain degree changes nothing
    assert truncate_leq(c, 0) == c
    empty = truncate_leq(c, -5)
    assert all(empty.rank(n) == 0 for n in range(empty.lo, empty.hi + 1))


def test_truncate_keeps_kernel():
    # d = (1 0): kernel of the outgoing map has rank 1
    c = ChainComplex(0, 1, {0: 1, 1: 2}, {1: IntMatrix.from_rows([[1, 0]])})
    t = truncate_leq(c, -1)
    assert (t.lo, t.hi) == (1, 1) and t.rank(1) == 1


def test_truncate_at_injective_outgoing_differential():
    # d_1 = 2 is injective, so the cut degree 1 becomes rank 0 and d_2 must
    # land in it as a 0 x 1 matrix, not a 0 x 0 one
    c = ChainComplex(0, 2, {0: 1, 1: 1, 2: 1},
                     {1: IntMatrix.from_rows([[2]]),
                      2: IntMatrix.from_rows([[0]])})
    t = truncate_leq(c, -1)
    assert (t.lo, t.hi) == (1, 2) and t.rank(1) == 0 and t.rank(2) == 1
    assert t.diff(2) == IntMatrix.zero(0, 1)
    assert homology(t, 2) == homology(c, 2) == (1, [])


# -- cubical groups -----------------------------------------------------------

def test_one_zero_cube():
    c = constant_cubical(0)
    cx = associated_complex(c)
    assert (cx.lo, cx.hi) == (0, 0) and cx.rank(0) == 1


def test_interval_boundary_is_difference_of_faces():
    c = interval_cubical(1)
    cx = associated_complex(c)
    # basis at level 1: (c0, c1, p1); d(p1) = face_1 - face_0 = c1 - c0
    col = [cx.diff(1).entries[r][2] for r in range(2)]
    assert col == [-1, 1]


def test_normalized_complex_values():
    assert normalized_complex(constant_cubical(0)).rank(0) == 1
    nc = normalized_complex(interval_cubical(2))
    # level 1 kernel: rank 3 source, the two degenerate cells are cut
    assert nc.rank(1) == 1
    # degenerate-only levels of the constant group normalize to zero
    nc_const = normalized_complex(constant_cubical(2))
    assert [nc_const.rank(n) for n in range(3)] == [1, 0, 0]


def test_function_model_validates():
    function_model_cubical(2, 3)
    function_model_cubical(3, 2)


def test_decomposition_examples():
    assert decomposition_check(constant_cubical(1)).passed
    assert decomposition_check(interval_cubical(2)).passed
    rng = random.Random(43)
    for _ in range(3):
        assert decomposition_check(random_cubical_group(rng)).passed


def test_cubical_rejects_nonzero_d_squared():
    # one extra entry in face (2,1,0) keeps face o degeneracy = id but
    # breaks d o d = 0 on the associated complex
    c = interval_cubical(2)
    faces = dict(c.faces)
    rows = faces[(2, 1, 0)].to_lists()
    rows[2][2] += 1
    faces[(2, 1, 0)] = IntMatrix.from_rows(rows)
    for i in (1, 2):
        for j in (0, 1):
            assert faces[(2, i, j)] * c.degeneracy(1, i) == IntMatrix.identity(3)
    with pytest.raises(InvalidComplexData,
                       match=r"^invalid cubical data: d o d != 0 at degree 2$"):
        CubicalGroup(2, dict(c.ranks), faces, dict(c.degeneracies))


def test_precomputed_kernel_bases_change_nothing():
    rng = random.Random(47)
    for _ in range(25):
        g = random_cubical_group(rng)
        bases = normalized_kernel_bases(g)
        assert normalized_complex(g, bases) == normalized_complex(g)
        given, computed = (decomposition_check(g, bases).to_dict(),
                           decomposition_check(g).to_dict())
        given.pop("elapsed")
        computed.pop("elapsed")
        assert given == computed and given["status"] == "pass"


def test_randomized_cubical_batch():
    rep = verify_cubical_batch(30, seed=44)
    assert rep.passed


def test_homology_splits_normalized_plus_degenerate():
    rng = random.Random(45)
    from fractions import Fraction
    for _ in range(10):
        g = random_cubical_group(rng)
        cx = associated_complex(g)
        nc = normalized_complex(g)
        bases = {n: column_lattice_basis(degenerate_generators(g, n))
                 for n in range(g.top + 1)}
        # rational homology ranks of the degenerate subcomplex
        mats = {}
        for n in range(1, g.top + 1):
            cols = []
            for j in range(bases[n].cols):
                img = cx.diff(n) * IntMatrix.from_rows(
                    [[x] for x in bases[n].column(j)])
                sol = frac_solve(frac_matrix(bases[n - 1]),
                                 [Fraction(v) for v in img.column(0)])
                assert sol is not None
                cols.append(sol)
            mats[n] = [[cols[j][i] for j in range(len(cols))]
                       for i in range(bases[n - 1].cols)]
        for n in range(g.top + 1):
            r_out = frac_rank(mats.get(n, [])) if n > 0 else 0
            r_in = frac_rank(mats.get(n + 1, [])) if n < g.top else 0
            h_degenerate = bases[n].cols - r_out - r_in
            assert homology(cx, n)[0] == homology(nc, n)[0] + h_degenerate


# -- simple complexes ---------------------------------------------------------

def test_simple_of_zero_map_between_trivial():
    z = ChainComplex(0, 0, {0: 0}, {})
    s = simple_of_map(ChainMap(z, z, {}))
    assert all(s.rank(n) == 0 for n in range(s.lo, s.hi + 1))


def test_simple_of_identity_is_acyclic():
    c = two_term_complex(1, [[1]])
    f = ChainMap(c, c, {0: IntMatrix.identity(1), 1: IntMatrix.identity(1)})
    s = simple_of_map(f)
    for n in range(s.lo, s.hi + 1):
        assert homology(s, n) == (0, [])


def test_diagram_with_zero_arrows_is_direct_sum():
    rng = random.Random(46)
    a = random_chain_complex(rng)
    b = random_chain_complex(rng)
    c = random_chain_complex(rng)
    diag = TwoArrowDiagram(a, b, c, ChainMap(a, b, {}), ChainMap(a, c, {}))
    s = simple_of_diagram(diag)
    for n in range(s.lo, s.hi + 1):
        assert s.rank(n) == a.rank(n - 1) + b.rank(n) + c.rank(n)
    for n in range(s.lo + 1, s.hi + 1):
        ta = translate(a, 1)
        block = s.diff(n)
        # top-left block is -d_A shifted
        for i in range(a.rank(n - 2)):
            for j in range(a.rank(n - 1)):
                assert block.entries[i][j] == ta.diff(n).entries[i][j]


def test_diagram_with_trivial_middle_recovers_simple_of_map():
    rng = random.Random(47)
    found_nonzero = False
    for _ in range(12):
        a = random_chain_complex(rng)
        c = random_chain_complex(rng)
        b = ChainComplex(0, 0, {0: 0}, {})
        r = random_chain_map(rng, a, c)
        diag = TwoArrowDiagram(a, b, c, ChainMap(a, b, {}), r)
        s1 = simple_of_diagram(diag)
        s2 = translate(simple_of_map(r), 1)
        lo, hi = min(s1.lo, s2.lo), max(s1.hi, s2.hi)
        assert all(s1.rank(n) == s2.rank(n) for n in range(lo, hi + 1))
        assert all(s1.diff(n) == s2.diff(n) for n in range(lo + 1, hi + 1))
        if any(not m.is_zero() for m in r.mats.values()):
            found_nonzero = True
    assert found_nonzero


def test_two_arrow_differential_matches_block_formula():
    assert verify_two_arrow_formula().passed


def test_two_arrow_hand_instance_is_valid():
    s = simple_of_diagram(two_arrow_hand_instance())
    s.validate()
    assert [s.rank(n) for n in range(s.lo, s.hi + 1)] == [2, 3, 1]


def test_diagram_rejects_mismatched_arrows():
    a = two_term_complex(1, [[2]])
    b = two_term_complex(1, [[3]])
    g = ChainMap(a, a, {})
    with pytest.raises(InvalidComplexData):
        TwoArrowDiagram(a, b, a, g, ChainMap(a, a, {}))


# -- long exact sequence ------------------------------------------------------

def test_les_zero_and_identity_maps():
    c = two_term_complex(1, [[2]])
    assert verify_les_exactness(ChainMap(c, c, {})).passed
    idm = ChainMap(c, c, {0: IntMatrix.identity(1), 1: IntMatrix.identity(1)})
    assert verify_les_exactness(idm).passed


def test_les_randomized():
    rng = random.Random(48)
    for _ in range(25):
        a = random_chain_complex(rng)
        b = random_chain_complex(rng)
        f = random_chain_map(rng, a, b)
        assert verify_les_exactness(f).passed


def les_batch_seeds(seed: int, batch: int) -> list[int]:
    """Seeds of the 10 `verify_les_batch` calls of input batch `batch` of the
    benchmark's homology-batch workload: the last 10 of 32 draws, after 12
    cubical and 10 SNF seeds (`homology_seeds` in perfbench/worker.py)."""
    rng = random.Random(f"homology-batch:{seed}:{batch}")
    return [rng.randrange(2 ** 31) for _ in range(32)][22:]


def test_random_chain_map_matches_the_fraction_route():
    """The integer kernel must give exactly the maps, and consume exactly the
    random draws, of the former Fraction route: the benchmark's inputs are
    built from them.  Each seed replays verify_les_batch's 60 draws."""
    seeds = les_batch_seeds(90210, 0) + list(range(7000, 7008))
    draws = 0
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(60):
            a = random_chain_complex(rng)
            b = random_chain_complex(rng)
            replay = random.Random()
            replay.setstate(rng.getstate())
            got = random_chain_map(rng, a, b)
            want = oracle_chain_map(replay, a, b)
            assert got.mats == want.mats
            assert rng.getstate() == replay.getstate()
            draws += 1
    assert draws >= 1000


def random_les_instances(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        a = random_chain_complex(rng)
        b = random_chain_complex(rng)
        yield random_chain_map(rng, a, b)


def test_rational_homology_dims_are_the_free_ranks():
    for f in random_les_instances(61, 40):
        for cx in (f.source, f.target, simple_of_map(f)):
            h = RationalHomology(cx)
            for n in range(cx.lo, cx.hi + 1):
                assert h.dim(n) == homology(cx, n)[0]
                for z in h.reps[n]:  # integer cycles
                    assert all(type(x) is int for x in z)
                    assert not any(sum(map(mul, row, z))
                                   for row in cx.diff(n).entries)


def assert_positive_multiple(got: IntMatrix, want):
    """got = c * want entrywise for one rational c > 0."""
    assert got.rows == len(want) and all(len(r) == got.cols for r in want)
    pairs = [(g, w) for grow, wrow in zip(got.entries, want)
             for g, w in zip(grow, wrow)]
    c = next((Fraction(g) / w for g, w in pairs if w), None)
    if c is None:
        assert got.is_zero()
    else:
        assert c > 0 and all(g == c * w for g, w in pairs)


def test_induced_maps_are_positive_multiples_of_the_fraction_route():
    for f in random_les_instances(62, 150):
        a, b = f.source, f.target
        s = simple_of_map(f)
        new = {"a": RationalHomology(a), "b": RationalHomology(b),
               "s": RationalHomology(s)}
        old = {"a": OracleHomology(a), "b": OracleHomology(b),
               "s": OracleHomology(s)}

        def proj(n):
            return IntMatrix.identity(a.rank(n)).hstack(
                IntMatrix.zero(a.rank(n), b.rank(n + 1)))

        def incl(n):
            return IntMatrix.zero(a.rank(n), b.rank(n + 1)).stack(
                IntMatrix.identity(b.rank(n + 1)))

        for n in range(s.lo - 2, s.hi + 2):
            for src, dst, mat, shift in (("a", "b", f.mat, 0),
                                         ("s", "a", proj, 0),
                                         ("b", "s", incl, 1)):
                got = induced_map(new[src], new[dst], mat, n, shift)
                want = oracle_induced_map(old[src], old[dst], mat, n, shift)
                assert rank(got) == rref_rank(want)
                assert_positive_multiple(got, want)


def test_express_rejects_non_cycles():
    # Z^2 -> Z, (x, y) -> x: H_1 is spanned by the class of (0, 1)
    h = RationalHomology(two_term_complex(1, [[1, 0]]))
    assert h.reps[1] == [[0, 1]] and h.express(1, [[0, 3]]) == ([[3]], 1)
    with pytest.raises(ValueError, match="not a cycle"):
        h.express(1, [[0, 1], [1, 0]])
    # Z -> Z, 1 -> 1: zero homology; degree 0 holds only a boundary, and
    # degree 1 no cycle, so any nonzero vector there is no class
    h = RationalHomology(two_term_complex(1, [[1]]))
    assert h.dim(0) == h.dim(1) == 0
    assert h.express(0, [[5]]) == ([[]], 1)
    with pytest.raises(ValueError, match="not a cycle"):
        h.express(1, [[1]])


def test_snf_batch_suite():
    assert verify_snf_batch(30, seed=49, oracle_count=10).passed


def _identity_snf(m):
    # U = V = I, D = m: U m V = D and both transforms are unimodular, but a
    # random 4x4 matrix is not diagonal
    n = IntMatrix.identity(m.rows)
    return n, m, n


def _negated_snf(m):
    # negate the first row of U and of D: still U m V = D with U unimodular,
    # and D is diagonal, but its first entry is negative
    u, d, v = smith_normal_form(m)
    flip = IntMatrix.from_rows([[-1 if i == j == 0 else int(i == j)
                                 for j in range(m.rows)]
                                for i in range(m.rows)])
    return flip * u, flip * d, v


@pytest.mark.parametrize("fake", [_identity_snf, _negated_snf])
def test_snf_batch_rejects_non_diagonal_d(monkeypatch, fake):
    monkeypatch.setattr(suites, "smith_normal_form", fake)
    rep = verify_snf_batch(5, seed=49, oracle_count=0)
    assert not rep.passed
    assert rep.counterexample["reason"] == "D not diagonal"
    assert rep.counterexample["instance"] == 0


# -- JSON interchange ---------------------------------------------------------

def test_complex_json_round_trip():
    rng = random.Random(50)
    for _ in range(5):
        c = random_chain_complex(rng)
        obj = complex_to_json(c)
        again = complex_from_json(json.loads(json.dumps(obj)))
        assert again == c
        assert complex_to_json(again) == obj


def test_cubical_json_round_trip():
    rng = random.Random(51)
    for g in (interval_cubical(2), constant_cubical(1),
              conjugate_cubical(rng, function_model_cubical(2, 2))):
        obj = cubical_to_json(g)
        again = cubical_from_json(json.loads(json.dumps(obj)))
        assert cubical_to_json(again) == obj
        assert again.ranks == g.ranks and again.faces == g.faces


@pytest.mark.parametrize("mutate,fragment", [
    (lambda o: o.pop("ranks"), "ranks"),
    (lambda o: o.__setitem__("degrees", [0]), "degrees"),
    (lambda o: o["differentials"].__setitem__("1", [[1, 2, 3]]), "differentials.1"),
])
def test_complex_json_diagnostics(mutate, fragment):
    obj = complex_to_json(two_term_complex(1, [[2]]))
    mutate(obj)
    with pytest.raises(ComplexFormatError) as err:
        complex_from_json(obj)
    assert fragment in str(err.value)


def test_invalid_differential_data_rejected():
    obj = complex_to_json(two_term_complex(1, [[2]]))
    obj["degrees"] = [0, 2]
    obj["ranks"]["2"] = 1
    obj["differentials"]["2"] = [[1]]
    obj["differentials"]["1"] = [[1]]
    with pytest.raises(ComplexFormatError):
        complex_from_json(obj)
