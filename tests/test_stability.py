import numpy as np
import pytest

from flexfunc import dynamics, model, stability
from flexfunc.model import FlexParams, reference_params


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


def test_eta1_arithmetic():
    q = FlexParams(C=2.0, lam=1.0)
    assert stability.min_drift_gain(q, 0.5) == 0.25
    assert stability.min_drift_gain(q, 0.0) == 0.0
    assert stability.min_drift_gain(q, 1.0) == 0.0
    p = reference_params()
    assert stability.min_drift_gain(p, 0.4) == pytest.approx(0.4 / 2.97, rel=1e-15)


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
    # ball below grid resolution: vacuous pass, flagged
    c2 = stability.certify_stable(p.with_sigma(100.0), 0.0, 0.4)
    assert c2.degenerate and c2.passed
    assert c2.margin == -np.inf


def test_sigma_max_formula_value(p):
    eta1 = stability.min_drift_gain(p, 0.4)
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


def test_sigma_max_cap_warning(p):
    # tiny target: the formula bound explodes past the cap and the
    # certificate ball falls below grid resolution (vacuous pass)
    # (the formula bound at target 1e-13 is 1.16e6)
    with pytest.warns(UserWarning, match="cap"):
        smax = stability.max_stable_noise(p, 0.0, 0.4, target_radius=1e-13)
    assert smax == stability.SIGMA_CAP


def test_sigma_max_search_when_the_formula_bound_fails(monkeypatch):
    # f'(1) = 0: at u* = 0, B* = 0.4 the formula bound 0.36699 fails its LV
    # check by 2.5e-5, so the interval halving runs (to ~0.034833).  Sound
    # certificates (ROADMAP item 2) will move this value.
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
    assert stability.certify_stable(q.with_sigma(smax), 0.0, 0.4).passed
    assert not stability.certify_stable(q.with_sigma(smax + 2e-9), 0.0, 0.4).passed


def test_sigma_max_degenerate_error(p):
    with pytest.raises(ValueError, match="eta1"):
        stability.max_stable_noise(p, 1.0, 0.0)


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
