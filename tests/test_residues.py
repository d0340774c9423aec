import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residue_oracle
from regver.logforms import (t_log_counts, verify_goncharov_boundary,
                             verify_mixed_boundary, verify_wang_boundary)
from regver.matrices import det
from regver.residues import (Ambient, CoordFunction, FaceDivisor,
                             residue_tuple)
from residue_oracle import (WedgeElement, coord_function, det_residue,
                            from_vector, map_coord, power, product,
                            random_function, restrict, top_residue,
                            valuation)


def yx(amb, i):
    return amb.line_function(i)


def test_coordinate_lists():
    amb = Ambient(2, 1)
    assert amb.coordinates() == [("x", 1), ("y", 1), ("x", 2), ("y", 2),
                                 ("z", 0), ("z", 1)]
    assert Ambient(1, 0).coordinates() == [("x", 1), ("y", 1)]


def test_degree_zero_constraint_enforced():
    amb = Ambient(1, 0)
    with pytest.raises(ValueError):
        coord_function(amb, {("y", 1): 1})
    with pytest.raises(ValueError):
        coord_function(amb, {("z", 0): 1, ("z", 1): -1})


@st.composite
def coord_functions(draw, amb):
    """A degree-0 monomial through the checked constructor."""
    exps = {}
    for block in amb.blocks():
        head = draw(st.lists(st.integers(-3, 3), min_size=len(block) - 1,
                             max_size=len(block) - 1))
        exps.update(zip(block, head + [-sum(head)]))
    return coord_function(amb, exps)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derived_functions_equal_their_checked_copies(data):
    """Products, powers, restrictions and the basis and ratio functions are
    built unchecked; each must equal what the checked builder makes."""
    amb = Ambient(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
    f, g = data.draw(coord_functions(amb)), data.draw(coord_functions(amb))
    derived = [product(f, g), power(f, data.draw(st.integers(-3, 3))),
               *amb.basis_functions()]
    if amb.proj:
        z = st.integers(0, amb.proj)
        derived.append(amb.z_ratio(data.draw(z), data.draw(z)))
    derived += [restrict(f, div) for div in amb.divisors()
                if valuation(f, div) == 0]
    for h in derived:
        again = coord_function(h.ambient, dict(h.exps))
        assert (h.ambient, h.exps) == (again.ambient, again.exps)


def test_valuation_examples():
    amb = Ambient(1, 2)
    f = yx(amb, 1)
    assert valuation(f, FaceDivisor(amb, ("y", 1))) == 1
    assert valuation(f, FaceDivisor(amb, ("x", 1))) == -1
    g = amb.z_ratio(2, 0)
    assert valuation(g, FaceDivisor(amb, ("z", 1))) == 0


def test_restrict_examples():
    amb = Ambient(2, 0)
    f2 = yx(amb, 2)
    got = restrict(f2, FaceDivisor(amb, ("y", 1)))
    want = Ambient(1, 0).line_function(1)
    assert (got.ambient, got.exps) == (want.ambient, want.exps)

    amb_p = Ambient(0, 2)
    g = amb_p.z_ratio(2, 1)
    got = restrict(g, FaceDivisor(amb_p, ("z", 0)))
    want = Ambient(0, 1).z_ratio(1, 0)
    assert (got.ambient, got.exps) == (want.ambient, want.exps)

    with pytest.raises(ValueError):
        restrict(yx(amb, 1), FaceDivisor(amb, ("y", 1)))


def test_wedge_element_canonicalization():
    amb = Ambient(2, 0)
    f1, f2 = yx(amb, 1), yx(amb, 2)
    w12 = WedgeElement.from_functions([f1, f2])
    w21 = WedgeElement.from_functions([f2, f1])
    assert w21 == -w12
    assert WedgeElement.from_functions([f1, f1]).is_zero()
    # dependent slots vanish
    assert WedgeElement.from_functions([f1, power(f1, 2)]).is_zero()
    # a power scales linearly
    assert WedgeElement.from_functions([power(f1, 2), f2]) == w12 * 2


def test_wedge_element_merges_equal_values():
    amb = Ambient(2, 0)
    f1, f2 = yx(amb, 1), yx(amb, 2)
    a = WedgeElement.from_functions([product(f1, f2), f2])
    b = WedgeElement.from_functions([f1, f2])
    assert a == b  # f2 ^ f2 part dies


def test_residue_of_units_is_zero():
    amb = Ambient(1, 2)
    w = WedgeElement.from_functions([amb.z_ratio(2, 1)])
    assert w.residue(FaceDivisor(amb, ("y", 1))).is_zero()


def test_wang_residue_signs():
    m = 3
    amb = Ambient(m, 0)
    w = WedgeElement.from_functions(amb.basis_functions())
    target = Ambient(m - 1, 0)
    base = WedgeElement.from_functions(target.basis_functions())
    for i in range(1, m + 1):
        res_y = w.residue(FaceDivisor(amb, ("y", i)))
        res_x = w.residue(FaceDivisor(amb, ("x", i)))
        assert res_y == base * ((-1) ** (i + 1))
        assert res_x == base * ((-1) ** i)


def test_projective_residue_signs():
    m = 3
    amb = Ambient(0, m)
    w = WedgeElement.from_functions(amb.basis_functions())
    target = Ambient(0, m - 1)
    base = WedgeElement.from_functions(target.basis_functions())
    # z_0 = 0: rewrite the slots as z_1/z_0 ^ z_2/z_1 ^ ... and restrict
    assert w.residue(FaceDivisor(amb, ("z", 0))) == -base
    for i in range(1, m + 1):
        assert w.residue(FaceDivisor(amb, ("z", i))) == base * ((-1) ** (i - 1))


def test_residue_alternating_and_multilinear():
    rng = random.Random(31)
    amb = Ambient(2, 2)
    for _ in range(30):
        funcs = [random_function(rng, amb) for _ in range(3)]
        div = FaceDivisor(amb, rng.choice(amb.coordinates()))
        w = WedgeElement.from_functions(funcs)
        swapped = WedgeElement.from_functions([funcs[1], funcs[0], funcs[2]])
        assert swapped.residue(div) == -w.residue(div)
        repeated = WedgeElement.from_functions([funcs[0], funcs[0], funcs[2]])
        assert repeated.residue(div).is_zero()
        # multilinearity in the first slot
        g = random_function(rng, amb)
        prod = WedgeElement.from_functions([product(funcs[0], g), funcs[1],
                                            funcs[2]])
        split = w + WedgeElement.from_functions([g, funcs[1], funcs[2]])
        assert prod.residue(div) == split.residue(div)


def permutation_sign(perm) -> int:
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def test_residue_path_independence():
    """Res(sigma . funcs) == sgn(sigma) Res(funcs) for every permutation
    sigma of the slots: the leftmost tie-break then meets the ties of the
    valuations in every slot order."""
    rng = random.Random(32)
    amb = Ambient(2, 2)
    checked = 0
    for _ in range(200):
        funcs = tuple(random_function(rng, amb)
                      for _ in range(rng.randint(1, 4)))
        div = FaceDivisor(amb, rng.choice(amb.coordinates()))
        base = residue_oracle.residue_tuple(funcs, div)
        for perm in permutations(range(len(funcs))):
            moved = residue_oracle.residue_tuple([funcs[k] for k in perm], div)
            assert moved == base * permutation_sign(perm)
        checked += 1
    assert checked == 200


def test_double_residues_anticommute():
    rng = random.Random(33)
    amb = Ambient(2, 3)
    coords = amb.coordinates()
    for _ in range(40):
        funcs = [random_function(rng, amb) for _ in range(3)]
        w = WedgeElement.from_functions(funcs)
        c1, c2 = rng.sample(coords, 2)
        if c1[0] != "z" and c2[0] != "z" and c1[1] == c2[1]:
            continue  # same collapsed block
        d1 = FaceDivisor(amb, c1)
        d2 = FaceDivisor(amb, c2)
        path_a = w.residue(d1).residue(
            FaceDivisor(d1.target(), map_coord(d1, c2)))
        path_b = w.residue(d2).residue(
            FaceDivisor(d2.target(), map_coord(d2, c1)))
        assert path_a == -path_b


# -- the package's top-arity residue against the wedge algebra -------------

def random_unimodular(rng, n):
    """A dense n x n integer matrix of determinant +-1: the identity under
    6n random row additions, then a row swap and a negation."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    i = rng.randrange(n)
    rows[i] = [-x for x in rows[i]]
    return rows


AMBIENTS = [Ambient(lines, proj) for lines in range(13)
            for proj in range(13 - lines) if lines + proj]


@pytest.mark.parametrize("amb", AMBIENTS, ids=lambda a: f"{a.lines}-{a.proj}")
def test_residue_tuple_matches_the_wedge_algebra(amb):
    """residue_tuple equals the top coefficient of the oracle's residue of
    the wedge on the basis tuple, on random tuples (a repeated slot or the
    constant 1 in a slot gives 0) and on the basis conjugated by random
    dense unimodular matrices."""
    rng = random.Random(1000 * amb.lines + amb.proj)
    n = amb.basis_size()
    basis = amb.basis_functions()
    tuples = [basis]
    for _ in range(2):
        tuples.append([random_function(rng, amb) for _ in range(n)])
    zeros = []
    if n > 1:
        rep = list(tuples[1])
        rep[rng.randrange(1, n)] = rep[0]
        zeros.append(rep)
    unit = list(tuples[2])
    unit[rng.randrange(n)] = CoordFunction(amb, {})
    zeros.append(unit)
    for _ in range(2):
        u = random_unimodular(rng, n)
        assert abs(det(u)) == 1
        tuples.append([from_vector(amb, row) for row in u])
    for div in amb.divisors():
        for funcs in tuples + zeros:
            assert residue_tuple(funcs, div) == top_residue(funcs, div)
        for funcs in zeros:
            assert residue_tuple(funcs, div) == 0


def near_permutation(rng, amb):
    """N functions with at most two nonzero exponents each, like the
    sweeps' basis tuples: powers of line functions and of z ratios, in
    random slots, repeats allowed."""
    two = [amb.line_function(i) for i in range(1, amb.lines + 1)]
    two += [amb.z_ratio(j, k) for j in range(amb.proj + 1)
            for k in range(amb.proj + 1) if j != k]
    return [power(rng.choice(two), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(amb.basis_size())]


SMALL = [amb for amb in AMBIENTS if amb.basis_size() <= 9]


@pytest.mark.parametrize("amb", SMALL, ids=lambda a: f"{a.lines}-{a.proj}")
def test_residue_tuple_matches_the_determinant_route(amb):
    """residue_tuple, one slot reduction along the flag, equals the former
    route (the divisor reduction, the restriction, then matrices.det) on
    random dense tuples, on near-permutation tuples and on the basis with
    its slots permuted, along every divisor; zero residues included."""
    rng = random.Random(2000 * amb.lines + amb.proj)
    n = amb.basis_size()
    basis = amb.basis_functions()
    tuples = [rng.sample(basis, n) for _ in range(2)]
    tuples += [[random_function(rng, amb) for _ in range(n)]
               for _ in range(4)]
    tuples += [near_permutation(rng, amb) for _ in range(12)]
    got = [(residue_tuple(funcs, div), det_residue(funcs, div))
           for funcs in tuples for div in amb.divisors()]
    assert all(fast == slow for fast, slow in got)
    assert any(fast == 0 for fast, _ in got)
    assert any(fast not in (0, 1, -1) for fast, _ in got)


def test_residue_tuple_needs_one_function_per_basis_element():
    amb = Ambient(2, 1)
    div = amb.divisors()[0]
    with pytest.raises(ValueError):
        residue_tuple(amb.basis_functions()[1:], div)
    with pytest.raises(ValueError):
        residue_tuple(Ambient(1, 2).basis_functions(), div)


def test_residue_tuple_accepts_an_equal_ambient():
    """Functions on an Ambient equal to the divisor's but not the same
    object pass the ambient check and give the same residues."""
    amb, twin = Ambient(2, 1), Ambient(2, 1)
    assert twin is not amb and twin == amb
    for div in amb.divisors():
        assert residue_tuple(twin.basis_functions(), div) \
            == residue_tuple(amb.basis_functions(), div)


def test_residue_tuple_builds_no_coord_function(monkeypatch):
    """residue_tuple reduces exponent rows and never builds a monomial: with
    the CoordFunction constructor refusing, it still returns, unchanged,
    the residue of the basis tuple along every divisor of every sweep
    ambient up to N = 12 and of a random tuple along each such divisor."""
    rng = random.Random(12)
    cases = []
    for amb in AMBIENTS:
        tuples = [amb.basis_functions(),
                  [random_function(rng, amb) for _ in range(amb.basis_size())]]
        cases += [(funcs, div) for div in amb.divisors() for funcs in tuples]
    expected = [residue_tuple(funcs, div) for funcs, div in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("residue_tuple built a CoordFunction")

    monkeypatch.setattr(CoordFunction, "__init__", refuse)
    assert [residue_tuple(funcs, div) for funcs, div in cases] == expected
    assert any(expected)


def test_t_log_counts_never_vanish():
    """T_n is nonzero, so the boundary sweeps may compare -g with the sign
    instead of -g T_(N-1) with the sign times T_(N-1)."""
    for n in range(61):
        assert t_log_counts(n).terms


# -- boundary theorems --------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 5))
def test_wang_boundary(m):
    rep = verify_wang_boundary(m)
    assert rep.passed
    assert rep.stats["divisors"] == 2 * m


@pytest.mark.parametrize("m", range(1, 5))
def test_goncharov_boundary(m):
    rep = verify_goncharov_boundary(m)
    assert rep.passed
    assert rep.stats["divisors"] == m + 1


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                 (1, 3)])
def test_mixed_boundary(n, m):
    assert verify_mixed_boundary(n, m).passed


@pytest.mark.parametrize("k", range(1, 5))
def test_mixed_boundary_degenerate_cases_reduce(k):
    assert verify_mixed_boundary(k, 0).passed
    assert verify_mixed_boundary(0, k).passed
