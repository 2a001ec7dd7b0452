"""Map-family presets: evaluation, derivatives, residuals, diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cantorscale as cs

PRESETS = [
    (cs.Quadratic(), 0.0),
    (cs.Quadratic(), 0.3),
    (cs.GammaPower(3.0), 0.0),
    (cs.GammaPower(3.0), 0.2),
    (cs.GammaPower(1.5), 0.1),
    (cs.Tent(), 0.0),
    (cs.Tent(), 1.0),
    (cs.Figure6(-0.02), 0.0),
    (cs.Figure6(0.05), 0.0),
    (cs.AsymQuadratic(0.5), 0.0),
]


def test_eval_examples():
    q = cs.Quadratic()
    assert q.eval(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert q.eval(0.0, -1.0) == pytest.approx(-1.0, abs=1e-12)
    assert q.eval(0.5, 0.0) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("family,eps", PRESETS)
def test_endpoints_and_peak(family, eps):
    assert family.eval(eps, -1.0) == pytest.approx(-1.0, abs=1e-12)
    assert family.eval(eps, 1.0) == pytest.approx(-1.0, abs=1e-12)
    assert family.eval(eps, 0.0) == pytest.approx(1.0 + eps, abs=1e-12)


@pytest.mark.parametrize("family,eps", PRESETS)
def test_unimodal_shape(family, eps):
    xs = np.linspace(-1.0, 0.0, 500)
    left = np.asarray(family.eval(eps, xs))
    assert np.all(np.diff(left) > 0)
    xs = np.linspace(0.0, 1.0, 500)
    right = np.asarray(family.eval(eps, xs))
    assert np.all(np.diff(right) < 0)


def test_deriv_examples():
    q = cs.Quadratic()
    assert q.deriv(0.0, -1.0) == pytest.approx(4.0, abs=1e-12)
    assert q.deriv(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    t = cs.Tent()
    assert t.deriv(1.0, 0.5) == pytest.approx(-3.0, abs=1e-12)


def test_tent_needs_side_at_kink():
    t = cs.Tent()
    with pytest.raises(cs.DomainError):
        t.deriv(0.0, 0.0)
    assert t.deriv(0.0, 0.0, side=0) == pytest.approx(2.0)
    assert t.deriv(0.0, 0.0, side=1) == pytest.approx(-2.0)


@pytest.mark.parametrize("family,eps", PRESETS)
def test_deriv_matches_finite_differences(family, eps):
    h = 1e-6
    xs = [x for x in np.linspace(-0.95, 0.95, 41) if abs(x) > 0.1]
    for x in xs:
        fd = (family.eval(eps, x + h) - family.eval(eps, x - h)) / (2 * h)
        d = float(family.deriv(eps, x))
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_power_law_residual_examples():
    q = cs.Quadratic()
    assert q.power_law_residual(0.0, -1e-8) == pytest.approx(4.0, rel=1e-9)
    assert q.power_law_residual(0.0, 1e-8) == pytest.approx(-4.0, rel=1e-9)
    g3 = cs.GammaPower(3.0)
    assert g3.power_law_residual(0.0, 1e-6) == pytest.approx(-6.0, rel=1e-9)
    with pytest.raises(cs.DomainError):
        q.power_law_residual(0.0, 0.0)


@pytest.mark.parametrize("family,eps", PRESETS)
def test_residual_one_sided_limits_settle(family, eps):
    for sign in (-1.0, 1.0):
        diffs = []
        for k in range(3, 9):
            r1 = family.power_law_residual(eps, sign * 10.0 ** (-k))
            r2 = family.power_law_residual(eps, sign * 10.0 ** (-k - 1))
            diffs.append(abs(r1 - r2))
        # differences shrink toward zero (non-increasing up to roundoff)
        for a, b in zip(diffs, diffs[1:]):
            assert b <= a + 1e-9
        assert diffs[-1] < 1e-4


def test_residual_limits_pair():
    a, b = cs.Quadratic().residual_limits(0.0)
    assert a == pytest.approx(4.0, rel=1e-6)
    assert b == pytest.approx(-4.0, rel=1e-6)


def test_parameter_and_domain_errors():
    q = cs.Quadratic()
    with pytest.raises(cs.ParameterRangeError):
        q.eval(-0.5, 0.0)
    with pytest.raises(cs.DomainError):
        q.eval(0.0, 1.5)
    with pytest.raises(cs.ParameterRangeError):
        cs.Figure6(0.5)


def test_make_family_and_spec():
    f = cs.make_family("gamma_power", gamma=2.5)
    assert isinstance(f, cs.GammaPower)
    assert f.gamma == 2.5
    g = cs.family_from_spec({"kind": "quadratic"})
    assert isinstance(g, cs.Quadratic)
    h = cs.family_from_spec({"kind": "figure6", "params": {"c": -0.02}})
    assert isinstance(h, cs.Figure6)
    a = cs.family_from_spec({"kind": "asym_quadratic", "beta": 0.25})
    assert isinstance(a, cs.AsymQuadratic)
    with pytest.raises((cs.CantorScaleError, ValueError)):
        cs.make_family("unknown")


def test_spec_accepts_top_level_c():
    f = cs.family_from_spec({"kind": "figure6", "c": -0.05})
    assert f.c == -0.05
    # params take precedence over the top level, as for gamma and beta
    g = cs.family_from_spec({"kind": "figure6", "c": -0.05,
                             "params": {"c": 0.02}})
    assert g.c == 0.02


@pytest.mark.parametrize("spec", [
    {"kind": "figure6", "shape": 0.01},
    {"kind": "figure6", "params": {"c": 0.01, "normalise": False}},
    {"kind": "quadratic", "params": {"eps": 0.1}},
    {"kind": "quadratic", "params": [0.1]},
])
def test_spec_rejects_unknown_keys(spec):
    with pytest.raises(cs.ParameterRangeError):
        cs.family_from_spec(spec)



def test_asym_quadratic_residual_asymmetry():
    fam = cs.AsymQuadratic(0.5)
    a, b = fam.residual_limits(0.0)
    # one-sided residual magnitudes differ: that is the whole point
    assert abs(a) != pytest.approx(abs(b), rel=1e-3)
    assert a / abs(b) == pytest.approx(3.0, rel=1e-5)  # (1+beta)/(1-beta)


# ---------------------------------------------------------------------------
# Closed-form inverse branches against an independent root finder
# ---------------------------------------------------------------------------


def bisection_newton_inverse(family, eps, side, y):
    """Safeguarded bisection-Newton root of f(x) = y on one branch.

    Only ``_eval_raw`` and ``_deriv_raw`` of the family are used, so the
    closed forms are checked against the map itself.  The bracket is
    always kept and a Newton step is accepted only inside it; absolute
    tolerance 1e-13 on x, then three unguarded Newton steps for relative
    accuracy near 0.  Snaps as the closed forms: the critical value gives
    0 and the lower endpoint gives the domain endpoint.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    dlo, dhi = family.domain
    lo = np.full_like(y_arr, dlo) if side == 0 else np.zeros_like(y_arr)
    hi = np.zeros_like(y_arr) if side == 0 else np.full_like(y_arr, dhi)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        active = (hi - lo) >= 1e-13
        if not np.any(active):
            break
        fx = family._eval_raw(eps, x) - y_arr
        go_right = (fx < 0) if side == 0 else (fx > 0)
        lo = np.where(active & go_right, x, lo)
        hi = np.where(active & ~go_right, x, hi)
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / family._deriv_raw(eps, x)
        inside = np.isfinite(xn) & (xn > lo) & (xn < hi)
        x = np.where(active, np.where(inside, xn, mid), x)
    else:
        raise AssertionError("bisection did not reach its tolerance")
    x = 0.5 * (lo + hi)
    for _ in range(3):
        fx = family._eval_raw(eps, x) - y_arr
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - fx / family._deriv_raw(eps, x)
        ok = np.isfinite(xn) & (xn >= dlo) & (xn <= dhi)
        x = np.where(ok, xn, x)
    x = np.where(y_arr >= float(family._eval_raw(eps, 0.0)), 0.0, x)
    return np.where(y_arr == dlo, dlo if side == 0 else dhi, x)


QUARTIC_CASES = (
    [pytest.param(cs.Figure6(c), 0.0, id=f"figure6-c{c}")
     for c in (-0.06, -0.03, 0.0, 0.03, 0.06)]
    + [pytest.param(cs.AsymQuadratic(b), e, id=f"asym-beta{b}-eps{e}")
       for b in (-0.9, -0.45, 0.0, 0.45, 0.9) for e in (0.0, 0.1, 0.3, 0.5)])


@pytest.mark.parametrize("family,eps", QUARTIC_CASES)
def test_closed_form_inverse_matches_bisection_newton(family, eps):
    ys = np.linspace(*family.domain, 20001)
    for side in (0, 1):
        closed = family.inverse_branch(eps, side, ys)
        oracle = bisection_newton_inverse(family, eps, side, ys)
        assert np.max(np.abs(closed - oracle)) <= 1e-14
        # the scalar path gives the same bits as the array path
        for i in range(0, ys.size, 2500):
            assert family.inverse_branch(eps, side, float(ys[i])) == closed[i]


@pytest.mark.parametrize("family,eps", [
    (cs.Figure6(-0.06), 0.0), (cs.Figure6(0.05), 0.0),
    (cs.AsymQuadratic(0.3), 0.0), (cs.AsymQuadratic(-0.7), 0.4)])
def test_closed_form_returns_domain_endpoints_exactly(family, eps):
    dlo, dhi = family.domain
    for side, end in ((0, dlo), (1, dhi)):
        assert family.inverse_branch(eps, side, dlo) == end
        assert family.inverse_branch(eps, side, np.asarray([dlo]))[0] == end


@pytest.mark.parametrize("family", [
    cs.Figure6(-0.06), cs.Figure6(0.05),
    cs.AsymQuadratic(0.3), cs.Quadratic(), cs.GammaPower(3.0), cs.Tent()])
def test_closed_form_returns_zero_at_critical_value(family):
    # -0.0 on the left branch and +0.0 on the right, so g_1 = -g_0 there too
    crit = family.critical_value(0.0)
    for side, sign in ((0, -1.0), (1, 1.0)):
        x = family.inverse_branch(0.0, side, crit)
        assert x == 0.0 and math.copysign(1.0, x) == sign


@pytest.mark.parametrize("family,eps", [
    (cs.Figure6(-0.05), 0.0), (cs.Figure6(0.04), 0.0),
    (cs.AsymQuadratic(0.5), 0.0), (cs.AsymQuadratic(-0.6), 0.3)])
def test_inverse_of_eval_round_trip(family, eps):
    dhi = family.domain[1]
    mags = dhi * np.linspace(0.01, 1.0, 2000)
    for side, xs in ((0, -mags), (1, mags)):
        # for eps > 0 the top of the range lies outside the domain
        xs = xs[family.eval(eps, xs) <= dhi]
        back = family.inverse_branch(eps, side, family.eval(eps, xs))
        # a rounding of f(x) moves the preimage by about ulp / |f'(x)|
        tol = 1e-14 + 4e-16 * dhi / np.abs(family.deriv(eps, xs))
        assert np.all(np.abs(back - xs) <= tol)


def test_inverse_branch_rejects_bad_side():
    with pytest.raises(ValueError):
        cs.Quadratic().inverse_branch(0.0, 2, 0.5)
    with pytest.raises(ValueError):
        cs.Figure6(0.0).inverse_branch(0.0, 2, 0.5)


def test_scalar_domain_check_matches_array_check():
    q = cs.Quadratic()
    for y in (1.0 + 5e-13, -1.0 - 5e-13, np.float64(0.3), np.float32(-1.0),
              float("nan")):
        q.check_domain(y)
        q.check_domain(np.asarray([y]))
    for y in (1.0 + 2e-12, np.float64(-1.5), np.float32(1.001)):
        with pytest.raises(cs.DomainError):
            q.check_domain(y)
        with pytest.raises(cs.DomainError):
            q.check_domain(np.asarray([y]))
    # arrays: NaN and empty arrays pass, NaN does not hide a point outside
    for ys in ([], [float("nan")], [float("nan"), 0.2], [[0.1, -1.0], [1.0, 0.0]]):
        q.check_domain(np.asarray(ys))
    for ys in ([float("nan"), 1.5], [-1.5, float("nan")], [[0.1, 0.2], [0.3, 2.0]]):
        with pytest.raises(cs.DomainError):
            q.check_domain(np.asarray(ys))


# ---------------------------------------------------------------------------
# The power-law presets share one implementation
# ---------------------------------------------------------------------------


def _per_class_inverse(family, eps, side, y):
    """Reference: the inverse branch each power-law preset used to write out."""
    y = np.asarray(y, dtype=float)
    if family.kind == "quadratic":
        t = np.sqrt(np.maximum((1.0 + eps - y) / (2.0 + eps), 0.0))
    elif family.kind == "tent":
        t = np.maximum(1.0 + eps - y, 0.0) / (2.0 + eps)
    else:
        t = np.maximum((1.0 + eps - y) / (2.0 + eps), 0.0) ** (1.0 / family.gamma)
    return -t if side == 0 else t


def _per_class_deriv(family, eps, x):
    """Reference: the derivative each power-law preset used to write out."""
    x = np.asarray(x, dtype=float)
    if family.kind == "quadratic":
        return -2.0 * (2.0 + eps) * x
    if family.kind == "tent":
        return -(2.0 + eps) * np.sign(x)
    g = family.gamma
    return -g * (2.0 + eps) * np.abs(x) ** (g - 1.0) * np.sign(x)


POWER_LAW = [cs.Quadratic(), cs.Tent(), cs.GammaPower(1.5), cs.GammaPower(3.0),
             cs.GammaPower(2.5)]


@pytest.mark.parametrize("family", POWER_LAW, ids=lambda f: f"{f.kind}-{f.gamma}")
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
def test_power_law_presets_match_their_per_class_formulas(family, eps):
    rng = np.random.default_rng(11)
    ys = np.concatenate([rng.uniform(-1.0, 1.0, 50_000), [-1.0, 0.0, 1.0, 1e-300]])
    for side in (0, 1):
        assert np.array_equal(family.inverse_branch(eps, side, ys),
                              _per_class_inverse(family, eps, side, ys))
    xs = ys[ys != 0.0]
    assert np.array_equal(family.deriv(eps, xs), _per_class_deriv(family, eps, xs))
    if family.kind == "quadratic":
        # (2 + eps) x^2 where the preset wrote ((2 + eps) x) x; each lies
        # within an ulp of the exact product, so they lie within two ulps
        old_term, new_term = (2.0 + eps) * ys * ys, (2.0 + eps) * (ys * ys)
        assert np.all(np.abs(new_term - old_term)
                      <= 2 * np.spacing(np.maximum(old_term, new_term)))
        assert np.array_equal(family.eval(eps, ys), 1.0 + eps - new_term)
    else:
        old = 1.0 + eps - (2.0 + eps) * np.abs(ys) ** family.gamma
        assert np.array_equal(family.eval(eps, ys), old)


@pytest.mark.parametrize("family", POWER_LAW, ids=lambda f: f"{f.kind}-{f.gamma}")
def test_power_law_scalar_inverse_is_the_array_inverse(family):
    ys = np.random.default_rng(12).uniform(-1.0, 1.0, 500)
    for side in (0, 1):
        closed = family.inverse_branch(0.3, side, ys)
        scalars = [family.inverse_branch(0.3, side, float(y)) for y in ys]
        assert all(isinstance(x, float) for x in scalars)
        assert np.array_equal(scalars, closed)


def test_power_law_presets_keep_their_public_surface():
    assert not isinstance(cs.Quadratic(), cs.GammaPower)
    assert not isinstance(cs.Tent(), cs.GammaPower)
    assert "deriv" in cs.Tent.__dict__ and cs.Tent().piecewise_linear
    assert cs.GammaPower(3.0).extra == {"gamma": 3.0}
    assert cs.Quadratic().extra == {} and cs.Tent().extra == {}
    assert cs.Quadratic().param_range == cs.Tent().param_range == (0.0, 1.0)
    assert cs.AsymQuadratic(0.2).param_range == (0.0, 0.5)
    assert cs.Figure6(0.0).param_range == (0.0, 0.0)
    with pytest.raises(TypeError):
        cs.Quadratic(param_range=(0.0, 2.0))


def _bits(x):
    """The binary64 bit patterns of ``x``: tells -0.0 from 0.0."""
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("family", [
    cs.Quadratic(), cs.Tent(), cs.GammaPower(1.5), cs.GammaPower(3.0),
    cs.Figure6(-0.03), cs.Figure6(0.05),
    cs.AsymQuadratic(0.3), cs.AsymQuadratic(-0.45)], ids=lambda f: repr(f))
def test_inverse_into_out_is_the_inverse_bit_for_bit(family):
    dlo, dhi = family.domain
    ys = np.concatenate([
        np.random.default_rng(21).uniform(dlo, dhi, 1000),
        # the domain ends, +-0 and points just outside the domain
        [dlo, dhi, 0.0, -0.0, dlo - 1e-12, dhi + 1e-12]])
    lo, hi = family.param_range
    for eps in sorted({lo, (lo + hi) / 2.0, hi}):
        for side in (0, 1):
            want = family._inverse(eps, side, ys)
            buf = np.full(ys.size + 7, np.nan)
            out = buf[3:3 + ys.size]
            assert family._inverse(eps, side, ys, out=out) is out
            assert np.array_equal(_bits(out), _bits(want))
            assert np.isnan(buf[:3]).all() and np.isnan(buf[-4:]).all()
            for y in (dhi / 3.0, np.asarray(-0.0), np.asarray(dlo)):
                out = np.empty(())
                assert family._inverse(eps, side, y, out=out) is out
                assert _bits(out) == _bits(family._inverse(eps, side, y))


def test_make_family_takes_the_params_of_its_kind():
    # a JSON integer is a real number, as for epsilon
    assert cs.make_family("gamma_power", gamma=3).gamma == 3.0
    assert cs.make_family("figure6", c=-0.02).c == -0.02
    assert cs.make_family("asym_quadratic", beta=0.25).beta == 0.25
    assert cs.make_family("gamma_power").gamma == 2.0
    assert isinstance(cs.make_family("tent"), cs.Tent)


@pytest.mark.parametrize("kind,params", [
    ("quadratic", {"gamma": 3.0}), ("tent", {"gamma": 3.0}),
    ("gamma_power", {"beta": 0.3}), ("gamma_power", {"c": 0.01}),
    ("figure6", {"gamma": 3.0}), ("figure6", {"beta": 0.1}),
    ("asym_quadratic", {"c": 0.01}), ("asym_quadratic", {"normalize": False}),
    ("quadratic", {"normalize": True}), ("tent", {"beta": 0.0}),
    ("figure6", {"normalize": True}),
])
def test_make_family_refuses_a_param_its_kind_does_not_take(kind, params):
    with pytest.raises(cs.ParameterRangeError, match=repr(next(iter(params)))):
        cs.make_family(kind, **params)
    with pytest.raises(cs.ParameterRangeError):
        cs.family_from_spec({"kind": kind, "params": params})
    with pytest.raises(cs.ParameterRangeError):
        cs.family_from_spec({"kind": kind, **params})


@pytest.mark.parametrize("kind,params", [
    ("gamma_power", {"gamma": True}), ("gamma_power", {"gamma": "3"}),
    ("gamma_power", {"gamma": None}), ("gamma_power", {"gamma": math.inf}),
    ("figure6", {"c": "0.01"}), ("figure6", {"c": False}),
    ("figure6", {"c": None}), ("figure6", {"c": math.nan}),
    ("figure6", {"c": [0.01]}), ("figure6", {"c": 1j}),
    ("asym_quadratic", {"beta": "0.2"}), ("asym_quadratic", {"beta": True}),
])
def test_make_family_refuses_a_value_of_the_wrong_type(kind, params):
    with pytest.raises(cs.ParameterRangeError):
        cs.make_family(kind, **params)
    with pytest.raises(cs.ParameterRangeError):
        cs.family_from_spec({"kind": kind, "params": params})


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_gamma_power_constructor_refuses_what_make_family_refuses(gamma):
    with pytest.raises(cs.ParameterRangeError):
        cs.GammaPower(gamma)


@pytest.mark.parametrize("spec", [
    5, None, "quadratic", ["kind"], {"kind": 5}, {"kind": ["quadratic"]},
    {"kind": "quadratic", "params": {"kind": "tent"}},
    {"kind": "figure6", "params": []}, {"kind": "quadratic", "params": None},
])
def test_spec_that_is_not_a_map_of_a_kind_is_refused(spec):
    with pytest.raises(cs.ParameterRangeError):
        cs.family_from_spec(spec)


#: the params each preset kind is drawn with
PARAM_STRATEGIES = {
    "quadratic": {},
    "gamma_power": {"gamma": st.floats(1.05, 4.0)},
    "figure6": {"c": st.floats(-0.06, 0.06)},
    "tent": {},
    "asym_quadratic": {"beta": st.floats(-0.95, 0.95)},
}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(PARAM_STRATEGIES)), data=st.data(),
       mag=st.floats(0.01, 1.0), side=st.integers(0, 1))
def test_inverse_of_eval_round_trip_on_random_presets(kind, data, mag, side):
    family = cs.make_family(kind, **{name: data.draw(s, label=name) for name, s
                                     in PARAM_STRATEGIES[kind].items()})
    eps = data.draw(st.floats(*family.param_range), label="eps")
    dhi = family.domain[1]
    x = (mag if side else -mag) * dhi
    y = family.eval(eps, x)
    # for eps > 0 the top of the range lies outside the domain
    assume(y <= dhi)
    back = family.inverse_branch(eps, side, y)
    # a rounding of f(x) moves the preimage by about ulp / |f'(x)|
    assert abs(back - x) <= 1e-14 + 4e-16 * dhi / abs(family.deriv(eps, x))
