"""Agreement between the complex-chart engine and the real-partial engine."""

import math

import numpy as np
import pytest

from gchs import (CrossCheckReport, PhasePoint, cross_check, gchs_rate,
                  gchs_real_rate, gspb, gspb_real, parse_field)


def random_points(rng, n, count):
    return [PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
            for _ in range(count)]


def test_gspb_real_reference(structured, pt12):
    f = parse_field("z1", 1)
    g = parse_field("conj(z1)", 1)
    assert gspb_real(f, g, structured, pt12) == pytest.approx(-4.0j, abs=1e-12)
    assert gspb_real(f, g, structured, pt12) == pytest.approx(
        gspb(f, g, structured, pt12), abs=1e-12)


def test_rates_agree(structured, pt12):
    f = parse_field("z1^2 - i * q1", 1)
    a = gchs_rate(f, structured, pt12)
    b = gchs_real_rate(f, structured, pt12)
    assert b.value == pytest.approx(a.value, abs=1e-12)
    assert b.thorough == pytest.approx(a.thorough, abs=1e-12)
    assert b.sdyn == pytest.approx(a.sdyn, abs=1e-12)
    assert b.total == pytest.approx(a.total, abs=1e-12)


def test_cross_check_random_fields(structured):
    rng = np.random.default_rng(17)
    f = parse_field("z1 * conj(z1) + i * p1^2", 1)
    g = parse_field("sin(q1) - z1^3", 1)
    rep = cross_check(f, g, structured, random_points(rng, 1, 100))
    assert rep.points == 100
    assert rep.max_dev < 1e-10
    assert rep.max_gspb_dev < 1e-10
    assert rep.max_rate_dev < 1e-10
    assert rep.max_w_dev < 1e-10


def test_cross_check_multi_degree():
    from gchs import StructuredSystem
    rng = np.random.default_rng(19)
    sys = StructuredSystem(2, parse_field("q1 * p2 + (p1^2 + q2^2) / 2", 2),
                           parse_field("q1 + 0.5 * p2", 2))
    f = parse_field("z1 * z2 - conj(z1)", 2)
    g = parse_field("q2^2 * p1", 2)
    rep = cross_check(f, g, sys, random_points(rng, 2, 100))
    assert rep.max_dev < 1e-10


def test_cross_check_needs_points(structured):
    f = parse_field("q1", 1)
    with pytest.raises(ValueError):
        cross_check(f, f, structured, [])


@pytest.mark.parametrize("field", ["max_gspb_dev", "max_rate_dev", "max_w_dev"])
def test_cross_check_report_keeps_a_nan_in_any_field(field):
    # max() keeps a NaN only as its first argument
    devs = dict(max_gspb_dev=0.0, max_rate_dev=0.0, max_w_dev=0.0)
    devs[field] = math.nan
    assert math.isnan(CrossCheckReport(1, **devs).max_dev)
