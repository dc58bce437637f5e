from dataclasses import replace

import numpy as np
import pytest

from orthograph import (
    AlgebraShape,
    Element,
    MinimizingScalar,
    NotNormalized,
    NotPositive,
    Projection,
    PureState,
    WitnessVector,
    ZeroElement,
    abs_star,
    bj_orthogonal,
    brute_force_min_lambda,
    direct_sum,
    embed,
    mutual_strong,
    projection_witness_check,
    sample_element,
    state_witness_check,
    strong_bj,
    verify_certificate,
)
from orthograph.algebra import DEFAULT_TOLERANCES as TOL
from orthograph.orthogonality import strong_direction

from conftest import e11_m2, e22_m2, random_element

BAND = 2 * TOL.orth


# ------------------------------------------------------------- plain form


def test_bj_disjoint_units_orthogonal():
    d = bj_orthogonal(e11_m2(), e22_m2())
    assert d.verdict and not d.indeterminate
    assert isinstance(d.certificate, WitnessVector)
    # the witness attains the norm of x and kills the pairing
    assert d.certificate.attained_norm == pytest.approx(1.0, abs=1e-9)
    assert abs(d.certificate.pairing) <= 1e-9
    assert verify_certificate(d, e11_m2(), e22_m2())


def test_bj_self_fails_with_minimizer():
    d = bj_orthogonal(e11_m2(), e11_m2())
    assert not d.verdict and not d.indeterminate
    assert isinstance(d.certificate, MinimizingScalar)
    assert d.certificate.lam == pytest.approx(-1.0, abs=1e-6)
    assert d.certificate.achieved <= 1e-7
    assert verify_certificate(d, e11_m2(), e11_m2())


def test_bj_zero_direction_is_vacuous():
    a = e11_m2()
    d = bj_orthogonal(a, Element.zero([2]))
    assert d.verdict and d.margin == pytest.approx(a.norm())
    with pytest.raises(ZeroElement):
        bj_orthogonal(Element.zero([2]), a)


def test_decision_invariants_on_random_pairs(rng):
    for i in range(60):
        a = sample_element([3], ["full", "deficient:1"][i % 2], 100 + i)
        b = sample_element([3], ["deficient:1", "projection:1"][i % 2], 200 + i)
        d = bj_orthogonal(a, b)
        if d.verdict:
            assert d.margin >= -TOL.orth
        else:
            assert isinstance(d.certificate, MinimizingScalar)
            assert d.certificate.achieved < a.norm() * (1 - TOL.orth)
        assert verify_certificate(d, a, b)


def test_false_certificate_must_show_a_norm_drop():
    x = y = e11_m2()
    d = bj_orthogonal(x, y)
    assert not d.verdict and verify_certificate(d, x, y)
    # lam = 0 reproduces ||x|| exactly, but shows no drop: not a rejection
    fake = replace(d, certificate=MinimizingScalar(0j, x.norm()))
    assert not verify_certificate(fake, x, y)


# ----------------------------------------------------------- tie band


def test_margin_ladder_around_the_tolerance():
    """Deliberate drops around tol.orth: diag(1, 1-k*tol) against E11 has
    achievable relative drop exactly k*tol."""

    def pair(k):
        return Element([2], [np.diag([1.0, 1.0 - k * TOL.orth])]), e11_m2()

    clean_true = bj_orthogonal(*pair(0.2))
    assert clean_true.verdict and not clean_true.indeterminate

    knife = bj_orthogonal(*pair(1.0))
    assert knife.indeterminate

    near_false = bj_orthogonal(*pair(1.5))
    assert near_false.indeterminate and not near_false.verdict

    clean_false = bj_orthogonal(*pair(10.0))
    assert not clean_false.verdict and not clean_false.indeterminate
    assert clean_false.margin == pytest.approx(-10 * TOL.orth, rel=0.2)


def test_gap_capped_pair_is_true_without_certificates():
    # second singular value just below the attaining cluster caps descent:
    # the fast rejection path must not fire here
    x = Element([2], [np.diag([1.0, 1.0 - 2e-8])])
    d = bj_orthogonal(x, e11_m2(), want_certificate=False)
    assert d.verdict and not d.indeterminate


def _small_gap_pair(name):
    x = Element([2], [np.diag([1.0, 0.9989])])
    y = Element([2], [np.array([[-0.008, 0.7], [0.7, 0.0]])])
    if name == "m3":
        x = Element([3], [np.diag([1.0, 0.9988, 0.3])])
        y = Element([3], [np.array([[-0.008, 0.7, 0.1], [0.7, 0.0, 0.0], [0.2, 0.0, 0.4]])])
    elif name == "m2_in_2+3":
        x, y = embed(x, 0, [2, 3]), embed(y, 0, [2, 3])
    return x, y


@pytest.mark.parametrize("name", ["m2", "m3", "m2_in_2+3"])
def test_uncertified_false_agrees_with_certified_on_small_gaps(name):
    # |f| is large but the singular gap is about 1e-3: the drop is only
    # about 4e-8, so the fast-false rule must not fire
    x, y = _small_gap_pair(name)
    fast = bj_orthogonal(x, y, want_certificate=False)
    cert = bj_orthogonal(x, y)
    _, achieved = brute_force_min_lambda(x, y, 100, 40)
    oracle = achieved >= x.norm() * (1 - TOL.orth)
    assert not (fast.indeterminate or cert.indeterminate)
    assert fast.verdict == cert.verdict == oracle


def _gapped_pairs(count=100):
    """(x, y, gap, f, drop): x with a top singular value 1 and a relative
    gap 10^U(-4, 0) below it, y a plain or a strong (b b* a) direction with
    support value f < 0, and the certified drop of the minimizer its form
    uses: the 2-D search for plain, the 1-D search for strong directions."""
    from orthograph.orthogonality import _attaining_basis, _minimize_drop, _minimize_strong_drop

    rng = np.random.default_rng(20261019)
    shapes = ([2], [3], [4], [2, 3], [3, 3])
    out = []
    while len(out) < count:
        shape = shapes[len(out) % len(shapes)]
        gap = 10.0 ** rng.uniform(-4.0, 0.0)
        sv = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 1.0 - gap, sum(shape) - 2)])
        sv = iter(rng.permutation(sv))
        blocks = []
        for n in shape:
            u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            w = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            blocks.append(u @ np.diag([next(sv) for _ in range(n)]) @ w.conj().T)
        x = Element(shape, blocks)
        b = random_element(shape, rng)
        if len(out) % 2:
            y, f = b, bj_orthogonal(x, b, want_certificate=False).support_min
            minimize = _minimize_drop
        else:
            y, f = strong_direction(x, b), strong_bj(x, b, want_certificate=False).support_min
            minimize = _minimize_strong_drop
        if f is None or f >= 0.0:
            continue
        drop = 1.0 - minimize(x.normalized_blocks(), y.normalized_blocks())[1]
        out.append((x, y, _attaining_basis(x, TOL)[1], f, drop))
    return out


def test_drop_bounds_hold():
    # the two fast-rule bounds of orthogonality._decide against the
    # certified minimum: est <= drop <= tol.eig + 2.2 |f|
    for x, y, gap, f, drop in _gapped_pairs():
        assert gap == pytest.approx(1.0 - np.linalg.svd(x.assemble(), compute_uv=False)[1], abs=1e-12)
        est = 1.0 - np.sqrt(1.0 - f * f * gap * (4.0 + gap) / 16.0)
        assert est <= drop + 1e-13
        assert drop <= TOL.eig + 2.2 * abs(f)


# ------------------------------------------------------------ strong form


def test_strong_mixed_direction_pair():
    i2 = Element.identity([2])
    d1 = strong_bj(i2, e11_m2())
    d2 = strong_bj(e11_m2(), i2)
    assert d1.verdict and not d1.indeterminate and d1.margin > BAND
    assert not d2.verdict and not d2.indeterminate and d2.margin < -BAND
    # the reverse certificate recovers the full norm drop
    assert isinstance(d2.certificate, MinimizingScalar)
    assert d2.certificate.achieved <= 1e-7
    assert verify_certificate(d2, e11_m2(), strong_direction(e11_m2(), i2))


def test_strong_zero_partner_is_vacuous():
    a = e11_m2()
    d = strong_bj(a, Element.zero([2]))
    assert d.verdict and d.margin == pytest.approx(a.norm())


def test_mutual_examples():
    m = mutual_strong(e11_m2(), e22_m2())
    assert m.verdicts == (True, True) and m.adjacent

    i2 = Element.identity([2])
    m = mutual_strong(i2, e11_m2())
    assert m.verdicts == (True, False) and not m.adjacent

    x = direct_sum(i2, e11_m2())
    y = direct_sum(e11_m2(), i2)
    m = mutual_strong(x, y)
    assert m.verdicts == (True, True) and not m.indeterminate
    assert m.forward.margin > BAND and m.backward.margin > BAND

    with pytest.raises(ZeroElement):
        mutual_strong(e11_m2(), Element.zero([2]))


# ------------------------------------------------------------- witnesses


def test_state_witness_examples():
    shape = AlgebraShape([2])
    rho = PureState(shape, 0, [1.0, 0.0])
    assert state_witness_check(e11_m2(), e22_m2(), rho)
    assert not state_witness_check(e11_m2(), e11_m2(), rho)


def test_state_witness_spectral_construction(rng):
    shape = AlgebraShape([3])
    for i in range(40):
        a = sample_element(shape, "deficient:1", 300 + i)
        ah = abs_star(a) * (1.0 / a.norm())
        w, u = np.linalg.eigh(ah.blocks[0])
        b = Element(shape, [np.outer(u[:, 0], u[:, 0].conj())])
        rho = PureState(shape, 0, u[:, -1])
        assert state_witness_check(a, b, rho)
        assert strong_bj(a, b, want_certificate=False).verdict


def test_projection_witness_examples():
    shape = AlgebraShape([2])
    p = Projection.rank_one(shape, 0, [1.0, 0.0])
    assert projection_witness_check(p, e11_m2(), e22_m2())
    # both strong directions hold for this symmetric pair
    assert strong_bj(e11_m2(), e22_m2(), want_certificate=False).verdict
    assert strong_bj(e22_m2(), e11_m2(), want_certificate=False).verdict

    assert not projection_witness_check(p, e22_m2(), e11_m2())

    with pytest.raises(NotNormalized):
        projection_witness_check(p, 2.0 * e11_m2(), e22_m2())
    with pytest.raises(NotPositive):
        nonpos = Element([2], [np.array([[0.0, 1.0], [0.0, 0.0]])])
        projection_witness_check(p, nonpos, e22_m2())


# ---------------------------------------------------------------- oracle


def test_oracle_examples():
    lam, achieved = brute_force_min_lambda(e11_m2(), e11_m2(), 80, 40)
    assert abs(lam + 1.0) <= 1e-6 and achieved <= 1e-7

    _, achieved = brute_force_min_lambda(e11_m2(), e22_m2(), 80, 40)
    assert achieved == pytest.approx(1.0, abs=1e-9)

    lam, achieved = brute_force_min_lambda(Element.identity([2]), e11_m2(), 80, 40)
    assert achieved == pytest.approx(1.0, abs=1e-9)
    assert abs(1.0 + lam) <= 1.0 + 1e-6

    with pytest.raises(ZeroElement):
        brute_force_min_lambda(e11_m2(), Element.zero([2]), 10, 5)


def test_oracle_agrees_with_decision(rng):
    fails = 0
    for i in range(120):
        shape = [[2], [3], [2, 2]][i % 3]
        a = sample_element(shape, ["full", "deficient:1"][i % 2], 400 + i)
        b = sample_element(shape, ["deficient:1", "projection:1"][i % 2], 500 + i)
        dec = bj_orthogonal(a, b, want_certificate=False)
        if dec.indeterminate:
            continue
        _, achieved = brute_force_min_lambda(a, b, 100, 40)
        assert (achieved >= a.norm() * (1 - TOL.orth)) == dec.verdict
    assert fails == 0


# ------------------------------------------------------------- invariance


def test_perturbed_orthogonal_pairs(rng):
    from orthograph import non_isolated_witness

    # tiny perturbations of a verified-orthogonal pair stay orthogonal;
    # large ones are cleanly rejected (mid-scale ones may honestly land in
    # the tie band and are not asserted)
    for i in range(15):
        a = sample_element([3], "deficient:1", 1200 + i)
        w = non_isolated_witness(a)
        g = sample_element([3], "full", 1300 + i)
        tiny = w + (1e-12 * w.norm() / g.norm()) * g
        d = strong_bj(a, tiny, want_certificate=False)
        assert d.verdict and not d.indeterminate
        big = w + (0.1 * w.norm() / g.norm()) * g
        d = strong_bj(a, big, want_certificate=False)
        assert not d.indeterminate or d.drop is not None


def _ambiguous_pairs():
    """(a, w + eps g) with w the constructive neighbour of a and g a full
    element: pairs pushed off an edge by eps in 1e-3 ... 1e-8, so that many
    directional decisions fall between the fast rules and reach the
    minimizer."""
    from orthograph import non_isolated_witness

    for si, shape in enumerate(([3], [4], [2, 3], [4, 5])):
        for e in range(3, 9):
            for i in range(3):
                seed = 7000 + 100 * si + 10 * e + i
                a = sample_element(shape, "deficient:1", seed)
                w = non_isolated_witness(a)
                g = sample_element(shape, "full", seed + 5000)
                yield a, w + (10.0 ** -e * w.norm() / g.norm()) * g


def test_minimizer_regime_agrees_with_the_oracle():
    reached = 0
    for a, b in _ambiguous_pairs():
        for x, y in ((a, b), (b, a)):
            d = strong_bj(x, y, want_certificate=False)
            if d.drop is None:
                continue
            reached += 1
            _, achieved = brute_force_min_lambda(x, strong_direction(x, y))
            # the minimizer finds at least the oracle's drop
            assert 1.0 - achieved / x.norm() <= d.drop + 1e-12
            if not d.indeterminate:
                assert (achieved >= x.norm() * (1 - TOL.orth)) == d.verdict
    assert reached >= 40


def test_interior_witness_on_traceless_direction(rng):
    # identity against a traceless direction: zero is interior to the
    # compressed numerical range, exercising the constructive witness
    for i in range(10):
        n = int(rng.integers(3, 6))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g -= np.trace(g) / n * np.eye(n)
        x = Element.identity([n])
        y = Element([n], [g])
        d = bj_orthogonal(x, y)
        assert d.verdict
        assert isinstance(d.certificate, WitnessVector)
        assert abs(d.certificate.pairing) <= 1e-10 * y.norm()
        assert verify_certificate(d, x, y)


@pytest.mark.parametrize(
    "shape,k,seed",
    [([3], 2, 140), ([2, 3], 3, 27), ([4, 5], 4, 91), ([3, 3], 3, 41), ([3, 3], 2, 111)],
)
def test_plain_witness_has_zero_pairing(shape, k, seed):
    # a rank-k projection against a full element: zero is interior to the
    # compressed numerical range; ([3, 3], 2, 111) lies only 2.4e-7 deep, so
    # the first boundary sample misses it and must be refined
    rng = np.random.default_rng([seed, 7])
    x = sample_element(shape, f"projection:{k}", rng)
    y = sample_element(shape, "full", rng)
    d = bj_orthogonal(x, y)
    assert d.verdict and d.margin > BAND
    assert isinstance(d.certificate, WitnessVector)
    assert abs(d.certificate.pairing) <= 1e-12 * x.norm() * y.norm()
    assert verify_certificate(d, x, y)


@pytest.mark.parametrize("diag", [[1.0, -1.0], [1.0, -0.5, 1j], [2.0, 0.0], [1j, -2j, 0.5j]])
def test_plain_witness_on_flat_numerical_ranges(diag, rng):
    # normal directions whose numerical range is a segment through zero, or
    # has zero on an edge or a corner: the support value is zero, and the
    # boundary sample holds zero only in degenerate triangles
    n = len(diag)
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    x = Element.identity([n])
    for g in (np.diag(diag), np.exp(0.7j) * u @ np.diag(diag) @ u.conj().T):
        y = Element([n], [g])
        d = bj_orthogonal(x, y)
        assert d.verdict and isinstance(d.certificate, WitnessVector)
        assert abs(d.certificate.pairing) <= 1e-12 * y.norm()
        assert verify_certificate(d, x, y)


def test_scalar_invariance_spot(rng):
    for i in range(30):
        a = sample_element([2, 2], "deficient:1", 600 + i)
        b = sample_element([2, 2], "projection:1", 700 + i)
        d1 = mutual_strong(a, b, want_certificate=False)
        d2 = mutual_strong((1.5 - 2j) * a, (0.1 + 3j) * b, want_certificate=False)
        if not (d1.indeterminate or d2.indeterminate):
            assert d1.verdicts == d2.verdicts


def test_abs_value_reduction_spot(rng):
    for i in range(30):
        a = sample_element([3], "deficient:1", 800 + i)
        b = sample_element([3], "full", 900 + i)
        d1 = strong_bj(a, b, want_certificate=False)
        d2 = strong_bj(abs_star(a), abs_star(b), want_certificate=False)
        if not (d1.indeterminate or d2.indeterminate):
            assert d1.verdict == d2.verdict


def test_ambient_invariance_spot(rng):
    for i in range(20):
        a = sample_element([3], "deficient:1", 1000 + i)
        b = sample_element([3], "deficient:1", 1100 + i)
        base = strong_bj(a, b, want_certificate=False)
        if base.indeterminate:
            continue
        for k in (1, 2, 3):
            big = AlgebraShape([3, k])
            d = strong_bj(embed(a, 0, big), embed(b, 0, big), want_certificate=False)
            if not d.indeterminate:
                assert d.verdict == base.verdict


# ------------------------------------------------- strong form, closed form


def _strong_pairs(count_per_shape=52):
    from orthograph import non_isolated_witness

    kinds = ("deficient:1", "projection:1", "full", "deficient:2")
    for shape in ([3], [4], [2, 3], [4, 5]):
        for i in range(count_per_shape):
            a = sample_element(shape, kinds[i % 4], 5000 + i)
            if i % 5 == 4 and i % 4 != 2:
                b = non_isolated_witness(a)
                if i % 10 == 9:  # push the witness off the orthogonal pair
                    g = sample_element(shape, "full", 5500 + i)
                    b = b + (10.0 ** -(2 + i % 7) * b.norm() / g.norm()) * g
            else:
                b = sample_element(shape, kinds[(i // 4) % 4], 6000 + i)
            yield a, b


def test_strong_support_is_minus_lambda_min_of_the_compression():
    from orthograph._linalg import hermitian_part
    from orthograph.orthogonality import _attaining_basis, _sweep_support

    checked = 0
    for a, b in _strong_pairs():
        z = strong_direction(a, b)
        if z.norm() == 0.0:
            continue
        v, _ = _attaining_basis(a, TOL)
        t = v.conj().T @ a.normalized_matrix().conj().T @ z.normalized_matrix() @ v
        closed = -np.linalg.eigvalsh(hermitian_part(t))[0]
        assert abs(closed - _sweep_support(t)) <= 1e-12
        d = strong_bj(a, b, want_certificate=False)
        if d.support_min is not None:
            assert d.support_min == min(closed, 0.0)
        checked += 1
    assert checked >= 200


def test_strong_agrees_with_plain_form_against_the_direction():
    compared = 0
    for a, b in _strong_pairs(20):
        ds = strong_bj(a, b, want_certificate=False)
        if ds.support_min is None:
            continue  # the vacuous cut on ||b b* a|| belongs to the strong form
        dp = bj_orthogonal(a, strong_direction(a, b), want_certificate=False)
        assert abs(ds.support_min - dp.support_min) <= 1e-12
        if not (ds.indeterminate or dp.indeterminate):
            assert ds.verdict == dp.verdict
            compared += 1
    assert compared >= 60


def test_strong_certificates_reverify_and_match_uncertified_verdicts():
    regimes = set()
    for a, b in _strong_pairs(16):
        plain = mutual_strong(a, b, want_certificate=False)
        cert = mutual_strong(a, b)
        assert plain.verdicts == cert.verdicts
        assert plain.indeterminate == cert.indeterminate
        for d, x, y in ((cert.forward, a, b), (cert.backward, b, a)):
            z = strong_direction(x, y)
            assert verify_certificate(d, x, z)
            if d.support_min is None:
                continue
            assert d.support_min <= 0.0  # so the interior regime never fires
            if isinstance(d.certificate, WitnessVector) and d.drop is None:
                # bottom eigenvector of the compression: pairing within the
                # fast-true cut of zero
                assert abs(d.certificate.pairing) <= 1.1e-9 * x.norm() * z.norm()
            regimes.add((d.verdict, d.drop is None))
    assert regimes == {(True, True), (True, False), (False, False)}


def _minimizer_pairs():
    """Per shape: a deficient vertex against a deficient, a full and a
    near-witness partner (witness pushed off by 1e-4)."""
    from orthograph import non_isolated_witness

    pairs = []
    for i, shape in enumerate(([3], [4], [2, 3], [4, 5], [8, 8, 8, 8])):
        a = sample_element(shape, "deficient:1", 7100 + i)
        g = sample_element(shape, "full", 7200 + i)
        w = non_isolated_witness(a)
        near = w + (1e-4 * w.norm() / g.norm()) * g
        pairs += [(a, sample_element(shape, "deficient:1", 7300 + i)), (a, g), (a, near)]
    return pairs


def test_strong_minimizer_agrees_with_the_2d_search(monkeypatch):
    from orthograph import orthogonality

    calls = []
    value_and_slope = orthogonality._value_and_slope

    def counted(*args):
        calls[-1] += 1
        return value_and_slope(*args)

    monkeypatch.setattr(orthogonality, "_value_and_slope", counted)

    def both(x, y):
        xb, yb = x.normalized_blocks(), y.normalized_blocks()
        calls.append(0)
        lam, best = orthogonality._minimize_strong_drop(xb, yb)
        steps = calls[-1]
        assert steps <= orthogonality._STRONG_DROP_STEPS + 1
        assert lam.imag == 0.0 and -2.0 <= lam.real <= 0.0
        assert abs(best - orthogonality._minimize_drop(xb, yb)[1]) <= 1e-13
        return lam, best, steps

    certified = uncertified = 0
    for a, b in _minimizer_pairs():
        for x, y in ((a, b), (b, a)):
            z = strong_direction(x, y)
            best = both(x, z)[1]
            for want_certificate in (True, False):
                d = strong_bj(x, y, want_certificate=want_certificate)
                if d.drop is None:
                    continue
                assert abs(d.drop - (1.0 - best)) <= 1e-13
                if want_certificate:
                    assert isinstance(d.certificate, MinimizingScalar) != d.verdict
                    assert verify_certificate(d, x, z)
                    certified += 1
                else:
                    uncertified += 1
    assert certified == 30 and uncertified == 10

    # phi reaches 0: e11 - t e11 vanishes at t = 1
    e11, i2 = e11_m2(), Element.identity([2])
    assert both(e11, strong_direction(e11, i2))[:2] == (-1.0 + 0j, 0.0)
    d = strong_bj(e11, i2)
    assert (d.verdict, d.drop, d.certificate.achieved) == (False, 1.0, 0.0)
    assert verify_certificate(d, e11, strong_direction(e11, i2))

    # the minimum sits at t = 0: the top singular pair of x misses y
    x = Element([2], [np.diag([1.0, 0.5])])
    assert both(x, strong_direction(x, e22_m2())) == (0j, 1.0, 1)


def test_memoized_norm_does_not_leak_into_derived_elements(rng):
    a = random_element([2, 3], rng)
    b = random_element([2, 3], rng)
    na = a.norm()
    assert a.norm() is na
    for el in (2 * a, a.adjoint(), a @ b, a + b, -a):
        want = np.linalg.norm(el.assemble(), 2)
        assert el.norm() == pytest.approx(want, rel=1e-12)
    assert (2 * a).norm() == pytest.approx(2 * na, rel=1e-12)
    assert a.normalized_matrix() == pytest.approx(a.assemble() / na)
    with pytest.raises(ValueError):
        a.normalized_blocks()[0][0, 0] = 0.0


def test_attaining_basis_is_kept_per_eig_tolerance():
    from orthograph import Tolerances
    from orthograph.orthogonality import _attaining_basis

    # sigma_2 = 1 - 1e-6 joins the attaining cluster only under the loose eig
    def pair():
        return (Element([3], [np.diag([1.0, 1.0 - 1e-6, 0.3])]),
                Element([3], [np.diag([1.0, 0.0, 0.0])]))

    tight, loose = TOL, Tolerances(eig=1e-5, orth=1e-4)
    a, b = pair()
    assert _attaining_basis(a, tight)[0].shape[1] == 1
    assert _attaining_basis(a, loose)[0].shape[1] == 2
    for want_certificate in (False, True):
        a, b = pair()
        reused = [strong_bj(a, b, tol, want_certificate) for tol in (tight, loose, tight)]
        fresh = [strong_bj(*pair(), tol, want_certificate) for tol in (tight, loose, tight)]
        for r, f in zip(reused, fresh):
            assert (r.verdict, r.margin, r.indeterminate, r.support_min, r.drop) == (
                f.verdict, f.margin, f.indeterminate, f.support_min, f.drop)
        # the two tolerances really do reach different regimes here
        assert reused[0].support_min != reused[1].support_min


def _pinned_strong_pairs():
    """Deficient pairs and (deficient, witness) pairs over three shapes."""
    from orthograph import non_isolated_witness

    rng = np.random.default_rng(7)
    pairs = []
    for shape in ([3], [2, 3], [4, 5]):
        for _ in range(2):
            x = sample_element(shape, "deficient:1", rng)
            pairs.append((x, sample_element(shape, "deficient:1", rng)))
            pairs.append((x, non_isolated_witness(x)))
    return pairs


def test_strong_decisions_are_bitwise_invariant_under_powers_of_two():
    def fields(d):
        return d.verdict, d.margin, d.indeterminate, d.support_min, d.drop

    for x, y in _pinned_strong_pairs():
        fwd, bwd = strong_bj(x, y, want_certificate=False), strong_bj(y, x, want_certificate=False)
        assert fwd.support_min is not None and bwd.support_min is not None
        for k in (300, -300):
            xs = x * 2.0 ** k
            assert fields(strong_bj(xs, y, want_certificate=False)) == fields(fwd)
            assert fields(strong_bj(y, xs, want_certificate=False)) == fields(bwd)


def test_strong_direction_does_not_underflow():
    # (a s)(a s)* b underflows for tiny s; the decision must not turn vacuous
    rng = np.random.default_rng(5)
    pairs = [(sample_element([3], "deficient:1", rng), sample_element([3], "full", rng)) for _ in range(40)]
    for s in (1.0, 1e-170, 1e-200, 1e-300):
        for a, b in pairs:
            assert mutual_strong(a * s, b, want_certificate=False).verdicts == (False, False)


def test_strong_direction_beyond_the_float_range_raises():
    import warnings

    rng = np.random.default_rng(5)
    a, b = sample_element([3], "deficient:1", rng), sample_element([3], "full", rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            mutual_strong(a * 1e200, b, want_certificate=False)
