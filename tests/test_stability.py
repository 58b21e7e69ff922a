import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexfunc import dynamics, model, stability
from flexfunc.model import FlexParams, reference_params
from strategies import admissible_params


@pytest.fixture(scope="module")
def p():
    return reference_params()


def test_lv_zero_at_corners(p):
    assert stability.lyapunov_rate(p, 1.0, 0.0, 0.4) == 0.0
    assert stability.lyapunov_rate(p, 0.0, 1.0, 0.4) == 0.0


def test_lv_negative_without_noise(p):
    p0 = p.with_sigma(0.0)
    xs = np.linspace(0.0, 0.999, 500)
    assert np.all(stability.lyapunov_rate(p0, xs, 0.0, 0.4) < 0.0)


def test_lv_decomposition(p):
    # drift and diffusion parts recomputed independently
    xs = np.linspace(0.05, 0.95, 19)
    lv = stability.lyapunov_rate(p, xs, 0.0, 0.4)
    drift_part = model.drift(p, xs, 0.0, 0.4) * (xs - 1.0)
    diff_part = 0.5 * model.diffusion(p, xs) ** 2
    assert np.max(np.abs(lv - (drift_part + diff_part))) < 1e-12


def test_lv_rejects_interior_u(p):
    with pytest.raises(ValueError, match="corner"):
        stability.lyapunov_rate(p, 0.5, 0.2, 0.4)


def test_bounded_certificate_reference(p):
    cert = stability.certify_bounded(p, 0.0, 0.4)
    assert cert.claim == "stoch-bounded"
    assert cert.passed and not cert.degenerate
    # threshold = sigma^2 / (32 eta1) = 0.01 * 2.97 / 12.8
    assert cert.threshold == pytest.approx(0.0023203125, rel=1e-12)
    assert cert.margin < 0.0


def test_bounded_certificate_mirror_corner(p):
    cert = stability.certify_bounded(p, 1.0, 0.4)
    assert cert.passed


def test_bounded_large_noise_small_region(p):
    # sigma = 2: the damping condition confines the region near the far wall
    cert = stability.certify_bounded(p.with_sigma(2.0), 0.0, 0.4)
    assert cert.passed
    assert cert.region[1] < 0.1
    assert cert.margin < 0.0


def test_bounded_degenerate_baseline(p):
    cert = stability.certify_bounded(p, 1.0, 0.0)
    assert cert.degenerate and not cert.passed
    assert cert.threshold == np.inf


def test_bounded_zero_noise_threshold(p):
    cert = stability.certify_bounded(p.with_sigma(0.0), 0.0, 0.4)
    assert cert.threshold == 0.0
    assert cert.passed


def test_stable_radius_formula(p):
    assert stability.stable_radius(p, 0.4, 0.5) == 1.0
    r = stability.stable_radius(p.with_sigma(2.0), 0.4, 0.5)
    assert r == pytest.approx(2.0 * (0.4 / 2.97) * 0.5 / 4.0, rel=1e-15)
    assert stability.stable_radius(p.with_sigma(0.0), 0.4, 0.5) == 1.0
    with pytest.raises(ValueError):
        stability.stable_radius(p, 0.4, 0.0)
    with pytest.raises(ValueError):
        stability.stable_radius(p, 0.4, 1.0)


def test_stable_certificate_reference(p):
    cert = stability.certify_stable(p, 0.0, 0.4)
    assert cert.claim == "stoch-stable"
    assert cert.passed and not cert.degenerate
    assert cert.threshold == 1.0
    assert cert.region == (0.0, 1.0)
    assert cert.margin < 0.0


def test_stable_certificate_small_ball(p):
    cert = stability.certify_stable(p.with_sigma(2.0), 0.0, 0.4)
    assert cert.threshold == pytest.approx(0.0336700336700, rel=1e-10)
    assert cert.passed  # LV still holds on the shrunken ball
    assert cert.region[0] >= 1.0 - 0.034


def test_stable_degenerate_cases(p):
    c1 = stability.certify_stable(p, 1.0, 1.0)
    assert c1.degenerate and not c1.passed
    # a radius of 1.35e-5 is still tiled by cells: sigma^2 / 2 > kappa fails the one at x*
    c2 = stability.certify_stable(p.with_sigma(100.0), 0.0, 0.4)
    assert not c2.degenerate and not c2.passed
    assert 0.0 < c2.margin < np.inf
    assert c2.failures[-1][1] == 1.0


def test_sigma_max_formula_value(p):
    eta1 = p.lam / p.C * 0.4
    smax = stability.max_stable_noise(p, 0.0, 0.4, target_radius=1.0)
    assert smax == pytest.approx(np.sqrt(2.0 * eta1 * 0.5), rel=1e-12)
    # consistency: certificate passes with full radius just below, not above
    below = stability.certify_stable(p.with_sigma(smax - 1e-9), 0.0, 0.4)
    above = stability.certify_stable(p.with_sigma(smax + 1e-9), 0.0, 0.4)
    assert below.passed and below.threshold == 1.0
    assert above.threshold < 1.0


def test_sigma_max_monotone_in_target(p):
    s1 = stability.max_stable_noise(p, 0.0, 0.4, target_radius=1.0)
    s2 = stability.max_stable_noise(p, 0.0, 0.4, target_radius=0.25)
    assert s2 == pytest.approx(2.0 * s1, rel=1e-9)


def test_sigma_max_certifies_below(p):
    smax = stability.max_stable_noise(p, 0.0, 0.4, target_radius=0.3)
    for frac in (0.3, 0.7, 0.999):
        cert = stability.certify_stable(p.with_sigma(frac * smax), 0.0, 0.4)
        assert cert.passed
        assert stability.stable_radius(p.with_sigma(frac * smax), 0.4, 0.5) >= 0.3


def test_sigma_max_search_when_the_formula_bound_fails(monkeypatch):
    # f'(1) = 0: at u* = 0, B* = 0.4 no damping is left to first order at x* = 1,
    # so the cell at x* fails every sigma whose sigma^2 / 2 is a positive float, and
    # interval halving from the formula bound 0.36699 narrows sigma_max (~2.7e-162)
    # down to adjacent floats, never probing 0 or the bound again.
    q = FlexParams(alpha=(-0.5, 1.0, 0.0, 0.0))
    probes = []
    certify = stability.certify_stable

    def spy(params, *args):
        probes.append(params.sigma_x)
        return certify(params, *args)

    monkeypatch.setattr(stability, "certify_stable", spy)
    smax = stability.max_stable_noise(q, 0.0, 0.4)
    monkeypatch.undo()
    assert len(probes) > 1
    assert all(0.0 < sigma < probes[0] for sigma in probes[1:])
    assert stability.certify_stable(q.with_sigma(smax), 0.0, 0.4).passed
    assert not stability.certify_stable(q.with_sigma(np.nextafter(smax, np.inf)), 0.0, 0.4).passed


def test_sigma_max_degenerate_error(p):
    with pytest.raises(ValueError, match="eta1"):
        stability.max_stable_noise(p, 1.0, 0.0)


@pytest.mark.parametrize("B_star", [0.0, 1.0])
def test_sigma_max_names_the_baseline_whose_eta1_is_zero(p, B_star):
    with pytest.raises(ValueError) as err:
        stability.max_stable_noise(p, 0.0, B_star)
    assert str(err.value) == (
        f"eta1 = (lambda / C) min(B*, 1 - B*) is 0 at B_star = {B_star!r}: no certifiable noise level"
    )


def test_sigma_max_at_a_subnormal_target_halves_from_the_largest_float(p):
    # sqrt(2 eta theta / 5e-324) is inf: halving starts from the largest float, which fails, and
    # finds the boundary the LV bound sets, as at any target this small
    smax = stability.max_stable_noise(p, 0.0, 0.4, target_radius=5e-324)
    assert smax == stability.max_stable_noise(p, 0.0, 0.4, target_radius=1e-300)
    assert smax == pytest.approx(2.414065, rel=1e-6)
    assert stability.certify_stable(p.with_sigma(smax), 0.0, 0.4).passed


def test_sigma_max_at_a_capacity_whose_eta1_is_huge(p):
    # at C = 1e-300, 2 eta1 theta / 1e-10 overflows in t; in tau the probe is finite, and the answer
    # is the reference capacity's, times sqrt(2.97 / 1e-300)
    q = replace(p, C=1e-300)
    smax = stability.max_stable_noise(q, 0.0, 0.4, target_radius=1e-10)
    ref = stability.max_stable_noise(p, 0.0, 0.4, target_radius=1e-10)
    assert smax * 1e-150 == pytest.approx(ref * 2.97**0.5, rel=1e-14)
    cert = stability.certify_stable(q.with_sigma(smax), 0.0, 0.4)
    assert cert.passed and stability.radius_meets_target(cert.threshold, 1e-10)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-900, 900),
    st.floats(0.25, 4.0) | st.sampled_from([1.0, 1.0 - 0.9e-12, 1.0 - 1e-12, 1.0 - 1.1e-12]),
    st.integers(-900, 900),
)
@example(0.5, -60, 0.5, 0)  # radius 2^-62 against target 2^-61, and 0.25 against 0.5
def test_radius_meets_target_is_unchanged_when_both_lengths_scale_by_a_power_of_two(mantissa, exponent, ratio, scaled):
    # scaling by 2^k is exact while radius, target and the threshold stay normal, so a
    # relative slack gives the same verdict at every scale and an absolute one cannot
    target = math.ldexp(mantissa, exponent)
    radius = target * ratio
    k = scaled - exponent
    assert stability.radius_meets_target(math.ldexp(radius, k), math.ldexp(target, k)) == (
        stability.radius_meets_target(radius, target)
    )


@pytest.mark.parametrize("kwargs,key", [({"target_radius": 0.0}, "target_radius"), ({"theta": 1.0}, "theta")])
def test_sigma_max_refuses_out_of_range_arguments(p, kwargs, key):
    with pytest.raises(ValueError, match=f"{key} must be in"):
        stability.max_stable_noise(p, 0.0, 0.4, **kwargs)


def test_certified_ball_contains_paths(p):
    # start inside half the certified radius; 95% of paths must stay inside
    sig = 0.5
    ps = p.with_sigma(sig)
    cert = stability.certify_stable(ps, 0.0, 0.4)
    assert cert.passed
    r = cert.threshold
    ens = dynamics.simulate_sde(
        ps, 1.0 - r / 2.0, dynamics.Schedule.constant(0.0, 0.4),
        n_paths=400, master_seed=11, t_end=20 * ps.C,
    )
    dist = np.abs(ens.states - 1.0)
    frac_inside = (dist < r).mean(axis=0)
    assert frac_inside.min() >= 0.95
    assert np.median(dist, axis=0).max() < r


@pytest.mark.parametrize(
    "params",
    [
        # LV reaches 9.2e-12 > 0 on (1 - 3.7e-4, 1), next to x*
        FlexParams(alpha=(-0.5, 1.0, 0.0, 0.0), sigma_x=0.03),
        # a radius of 1.35e-5, with LV up to 9.1e-7 inside it
        reference_params(100.0),
    ],
    ids=["touching-alpha", "vacuous-ball"],
)
def test_a_passing_stable_certificate_has_no_positive_rate_inside_its_radius(params):
    cert = stability.certify_stable(params, 0.0, 0.4)
    x_star = 1.0  # the corner of u* = 0
    d = np.logspace(-12, np.log10(cert.threshold), 2001)
    xs = np.concatenate((x_star - d, x_star + d))
    xs = xs[(xs >= 0.0) & (xs <= 1.0)]
    assert not cert.passed or stability.lyapunov_rate(params, xs, 0.0, 0.4).max() <= 0.0


def _points_in(lo: float, hi: float, x_star: float, n: int = 50_000) -> np.ndarray:
    """``n`` log-spaced points from 1e-12 to 1 away from x* and ``n`` uniform ones, within [lo, hi]."""
    away = x_star - (2.0 * x_star - 1.0) * np.geomspace(1e-12, 1.0, n)
    xs = np.concatenate((away, np.linspace(lo, hi, n)))
    return xs[(lo <= xs) & (xs <= hi)]


@settings(max_examples=60)
@given(
    admissible_params(),
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 5.0),
)
def test_a_passing_stochastic_certificate_has_no_positive_rate_in_its_region(params, u_star, B_star, sigma):
    p = params.with_sigma(sigma)
    x_star = 1.0 - u_star
    stable = stability.certify_stable(p, u_star, B_star)
    bounded = stability.certify_bounded(p, u_star, B_star)
    # the stable claim covers its whole ball; the bounded one the cells it checked
    regions = ((stable, max(0.0, x_star - stable.threshold), min(1.0, x_star + stable.threshold)),
               (bounded, *bounded.region))
    for cert, lo, hi in regions:
        if cert.passed:
            assert stability.lyapunov_rate(p, _points_in(lo, hi, x_star), u_star, B_star).max() <= 0.0, cert


@pytest.mark.parametrize("B_star,dense", [(0.4, 2.42464), (0.9, 0.969563)])
def test_sigma_max_at_a_small_target_stays_below_the_dense_boundary(B_star, dense):
    # dense: the largest sigma with LV <= 0 at 400k log-spaced and uniform points of its ball.
    # A 2001-point grid returned 2.425951 and 0.970129, where LV > 0 between two grid points.
    smax = stability.max_stable_noise(reference_params(), 0.0, B_star, target_radius=0.01)
    assert 0.99 * dense <= smax <= dense


@settings(max_examples=60, deadline=None)
@given(admissible_params(), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_zero_noise_passes_and_sigma_max_passes_its_own_certificate(params, u_star, B_star):
    # about one draw in six rounds f(x*) + g(u*) below 0; the claims certify the validated
    # model, where g(u*) = -f(x*) holds exactly, so that rounding decides no verdict
    assert stability.certify_stable(params.with_sigma(0.0), u_star, B_star).passed
    for target in (1.0, 0.3):
        smax = stability.max_stable_noise(params, u_star, B_star, target_radius=target)
        cert = stability.certify_stable(params.with_sigma(smax), u_star, B_star)
        assert cert.passed and stability.radius_meets_target(cert.threshold, target), (smax, cert)


@pytest.mark.parametrize("u_star", [0.0, 1.0])
@pytest.mark.parametrize(
    "alpha",
    # (2x* - 1)(f(x*) + g(u*)) is -5e-10, +5e-10 and -2.2e-16 (one ulp) at both corners: all within
    # validate's slack, and below 0, where the float drift has no root at x*, for the first and last
    [(0.0, 0.25, 0.75 + 5e-10, 0.0), (0.0, 0.25, 0.75 - 5e-10, 0.0), (0.0, 0.33, 0.56, 0.11)],
)
def test_a_corner_identity_off_either_way_keeps_the_reference_verdicts(p, alpha, u_star):
    q = FlexParams(alpha=alpha)
    assert model.validate(q).ok
    for certify in (stability.certify_bounded, stability.certify_stable):
        ref, cert = certify(p, u_star, 0.4), certify(q, u_star, 0.4)
        assert (cert.passed, cert.degenerate) == (ref.passed, ref.degenerate)
        assert np.isfinite(cert.margin), cert


@pytest.mark.parametrize("sigma_x", [2e154, 1e200, 1e308])
def test_a_noise_whose_square_overflows_leaves_no_ball(p, sigma_x):
    # sigma_x * sigma_x is inf: radius 0 fails as degenerate, and the noise ball is all of [0, 1]
    q = p.with_sigma(sigma_x)
    assert stability.stable_radius(q, 0.4, 0.5) == 0.0
    stable = stability.certify_stable(q, 0.0, 0.4)
    assert stable.degenerate and not stable.passed and stable.threshold == 0.0
    bounded = stability.certify_bounded(q, 0.0, 0.4)
    assert bounded.degenerate and bounded.passed and bounded.threshold == np.inf
    assert np.isinf(stability.lyapunov_rate(q, 0.5, 0.0, 0.4))


@settings(max_examples=60, deadline=None)
@given(
    admissible_params(),
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 5.0),
    st.sampled_from([1.0, 0.01, 1e-10]),
    st.floats(-300.0, 300.0),
)
def test_the_claims_see_capacity_and_noise_only_through_eps(params, u_star, B_star, sigma, target, log_s):
    # (C, sigma_x) -> (s C, sigma_x / sqrt(s)) keeps eps = sigma_x^2 C / lambda and stretches t by s
    s = 10.0**log_s
    runs = []
    for q in (params.with_sigma(sigma), replace(params, C=s * params.C, sigma_x=sigma / s**0.5)):
        smax = stability.max_stable_noise(q, u_star, B_star, target_radius=target)
        certs = (
            stability.certify_bounded(q, u_star, B_star),
            stability.certify_stable(q, u_star, B_star),
            stability.certify_stable(q.with_sigma(smax), u_star, B_star),
        )
        for cert in certs:
            assert cert.passed == (cert.margin <= 0.0), cert
        runs.append((certs, smax * (q.C / q.lam) ** 0.5))
    (certs, smax), (certs_s, smax_s) = runs
    for cert, cert_s in zip(certs, certs_s):
        assert (cert_s.passed, cert_s.degenerate) == (cert.passed, cert.degenerate)
        assert cert_s.threshold == pytest.approx(cert.threshold, rel=1e-14, abs=0.0)
    assert smax_s == pytest.approx(smax, rel=1e-14, abs=0.0)
