import json
import math

import numpy as np
import pytest

from hausdorff_bergman import (
    Atom,
    Boundedness,
    DensitySegment,
    DivergentIntegral,
    Measure,
    MissingExponentMetadata,
    QuadratureConfig,
    classify_boundedness,
    dump_measure,
    load_measure,
    measure_from_json,
    measure_to_json,
    moment,
    pushforward_inverse,
    restrict,
    theoretical_norm,
    truncate,
)

CFG = QuadratureConfig()


def uniform_12() -> Measure:
    return Measure(segments=(DensitySegment.from_spec(1.0, 2.0, ("const", (1.0,))),))


def exp_tail() -> Measure:
    seg = DensitySegment.from_spec(
        0.0, math.inf, ("exp", (1.0, 1.0)), exp_lo=0.0, exp_hi=-math.inf
    )
    return Measure(segments=(seg,))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(0.0, 1.0)
    with pytest.raises(ValueError):
        Atom(-1.0, 1.0)
    with pytest.raises(ValueError):
        Atom(1.0, -0.5)
    Atom(1.0, 0.0)  # zero weight is fine


def test_segment_validation():
    with pytest.raises(ValueError):
        DensitySegment.from_spec(2.0, 1.0, ("const", (1.0,)))
    with pytest.raises(ValueError):
        DensitySegment.from_spec(-0.5, 1.0, ("const", (1.0,)))


def test_distinct_atom_locations():
    with pytest.raises(ValueError):
        Measure(atoms=(Atom(1.0, 1.0), Atom(1.0, 2.0)))


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def test_moment_single_atom_any_alpha():
    mu = Measure.from_atoms((1.0, 1.0))
    for alpha in (-3.0, -1.0, 0.0, 0.5, 4.0):
        assert moment(mu, alpha).value == 1.0


def test_moment_uniform_segment():
    res = moment(uniform_12(), 0.0, CFG)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-12)


def test_moment_divergence_flag():
    seg = DensitySegment.from_spec(0.0, 1.0, ("const", (1.0,)), exp_lo=0.0)
    res = moment(Measure(segments=(seg,)), -1.0, CFG)
    assert math.isinf(res.value)
    assert (res.error_estimate, res.subdivisions_used, res.converged) == (0.0, 0, True)


def test_moment_exponential_density():
    # oracle: Gamma(2) = 1
    res = moment(exp_tail(), 1.0, CFG)
    np.testing.assert_allclose(res.value, 1.0, rtol=1e-8)


def test_moment_counts_the_subdivisions_of_its_segments():
    tail = DensitySegment.from_spec(0.5, math.inf, ("exp", (2.0, 3.0)), exp_hi=-math.inf)
    parts = [moment(exp_tail(), 1.0, CFG), moment(Measure(segments=(tail,)), 1.0, CFG)]
    res = moment(Measure(atoms=(Atom(2.0, 1.0),),
                         segments=exp_tail().segments + (tail,)), 1.0, CFG)
    assert all(r.subdivisions_used > 0 for r in parts)
    assert res.subdivisions_used == sum(r.subdivisions_used for r in parts)
    assert res.converged and res.unit == "subdivisions"
    assert moment(Measure.from_atoms((2.0, 1.0)), 1.0, CFG).subdivisions_used == 0


def test_moment_power_density_near_minus_two():
    # separate evaluation of t^alpha * (c*t^a) overflows in denormal range;
    # the fused power must hit the antiderivative oracle c*b^(2+a)/(2+a)
    c, a, b = 1.2524071996318948, -1.7182488627084722, 1.5487436993152013
    seg = DensitySegment.from_spec(0.0, b, ("power", (c, a)), exp_lo=a)
    res = moment(Measure(segments=(seg,)), 1.0, CFG)
    oracle = c * b ** (2.0 + a) / (2.0 + a)
    np.testing.assert_allclose(res.value, oracle, rtol=1e-10)


def test_moment_fuses_a_power_density_into_one_power():
    # t^0.95 against t^-1.9 on (0, 1] is t^-0.95, whose integral is 20: the
    # column c t^(alpha + a) decays in the sweep, where the product of the
    # separate factors t^0.95 and t^-1.9 keeps contributing to the end of it
    # and stops "tail"
    seg = DensitySegment.from_spec(0.0, 1.0, ("power", (1.0, -1.9)), exp_lo=-1.9)
    res = moment(Measure(segments=(seg,)), 0.95, QuadratureConfig())
    assert res.converged
    assert abs(res.value - 20.0) <= res.error_estimate


def test_moment_whose_tail_does_not_converge_raises_divergent_integral():
    # t^-0.995 on (0, 1] converges (to 200), but its sweep would need u far
    # beyond the representable range: a tail stop is DivergentIntegral,
    # as on the operator's inner quadrature
    seg = DensitySegment.from_spec(0.0, 1.0, ("power", (1.0, -1.99)), exp_lo=-1.99)
    with pytest.raises(DivergentIntegral, match="tail fails to converge"):
        moment(Measure(segments=(seg,)), 0.995, CFG)


def test_closure_integrand_with_overflowing_factors():
    # the factored form c*t^a overflows for tiny t, but the sweep stops on
    # negligible blocks before ever sampling that region; a converged result
    # must be finite and match the antiderivative oracle
    from hausdorff_bergman import integrate_segment

    c, a = 1.25, -1.72
    res = integrate_segment(lambda t: t * (c * t**a), 0.0, 1.5, CFG)
    assert not (res.converged and not math.isfinite(res.value))
    if res.converged:
        np.testing.assert_allclose(res.value, c * 1.5 ** (2.0 + a) / (2.0 + a),
                                   rtol=1e-7)


def test_moment_missing_metadata_raises():
    seg = DensitySegment.from_spec(0.0, 1.0, ("const", (1.0,)))
    with pytest.raises(MissingExponentMetadata):
        moment(Measure(segments=(seg,)), 0.0, CFG)
    seg = DensitySegment.from_spec(1.0, math.inf, ("exp", (1.0, 1.0)))
    with pytest.raises(MissingExponentMetadata):
        moment(Measure(segments=(seg,)), 0.0, CFG)


def test_moment_linearity():
    mu1 = Measure.from_atoms((0.5, 2.0))
    mu2 = uniform_12()
    combined = Measure(atoms=mu1.atoms, segments=mu2.segments)
    alpha = 0.7
    total = moment(combined, alpha, CFG).value
    np.testing.assert_allclose(
        total, moment(mu1, alpha, CFG).value + moment(mu2, alpha, CFG).value,
        rtol=1e-10,
    )


# ---------------------------------------------------------------------------
# theoretical_norm
# ---------------------------------------------------------------------------


def test_norm_p2_is_total_mass():
    mu = Measure(atoms=(Atom(0.3, 1.5), Atom(7.0, 0.25)),
                 segments=uniform_12().segments)
    res = theoretical_norm(mu, 2.0, CFG)
    np.testing.assert_allclose(res.value, 1.5 + 0.25 + 1.0, rtol=1e-10)


def test_norm_p4_atom():
    res = theoretical_norm(Measure.from_atoms((4.0, 1.0)), 4.0)
    np.testing.assert_allclose(res.value, 0.5, rtol=1e-14)


def test_norm_p1_atom():
    res = theoretical_norm(Measure.from_atoms((3.0, 0.7)), 1.0)
    np.testing.assert_allclose(res.value, 0.7 * 3.0, rtol=1e-14)


def test_norm_requires_valid_p():
    with pytest.raises(ValueError):
        theoretical_norm(uniform_12(), 0.5)


# ---------------------------------------------------------------------------
# truncate / restrict
# ---------------------------------------------------------------------------


def test_truncate_drops_outside_atoms():
    mu = truncate(Measure.from_atoms((3.0, 1.0)), 0.5)
    assert mu.is_zero


def test_truncate_keeps_boundary_atom():
    mu = truncate(Measure.from_atoms((0.5, 1.0)), 0.5)
    assert len(mu.atoms) == 1


def test_truncate_clips_segments():
    mu = truncate(exp_tail(), 0.25)
    seg = mu.segments[0]
    assert seg.lower == 0.25
    assert seg.upper == 4.0
    assert seg.exp_lo is None and seg.exp_hi is None


def test_truncate_moment_monotone():
    # clipped-interval length oracle for the uniform density on [1, 2]
    mu = uniform_12()
    m_09 = moment(truncate(mu, 0.9), 0.0, CFG).value
    m_04 = moment(truncate(mu, 0.4), 0.0, CFG).value
    np.testing.assert_allclose(m_09, 1.0 / 0.9 - 1.0, rtol=1e-10)  # 0.111...
    np.testing.assert_allclose(m_04, 1.0, rtol=1e-10)
    full = moment(mu, 0.0, CFG).value
    assert m_09 <= m_04 <= full + 1e-12


def test_truncate_validates_delta():
    with pytest.raises(ValueError):
        truncate(uniform_12(), 1.5)


def test_restrict_window():
    mu = restrict(uniform_12(), 1.25, 1.75)
    np.testing.assert_allclose(moment(mu, 0.0, CFG).value, 0.5, rtol=1e-10)


# ---------------------------------------------------------------------------
# push-forward under inversion
# ---------------------------------------------------------------------------


def test_pushforward_atom():
    nu = pushforward_inverse(Measure.from_atoms((2.0, 3.0)))
    assert nu.atoms[0].location == 0.5
    assert nu.atoms[0].weight == 3.0


def test_pushforward_segment_change_of_variables():
    # oracle: int_{1/2}^{1} t^-2 dt = 1
    nu = pushforward_inverse(uniform_12())
    seg = nu.segments[0]
    assert (seg.lower, seg.upper) == (0.5, 1.0)
    np.testing.assert_allclose(moment(nu, 0.0, CFG).value, 1.0, rtol=1e-10)


def test_pushforward_involution_moments():
    mu = Measure(atoms=(Atom(2.0, 0.5),), segments=uniform_12().segments)
    back = pushforward_inverse(pushforward_inverse(mu))
    for alpha in (-1.0, 0.0, 1.0):
        np.testing.assert_allclose(
            moment(back, alpha, CFG).value, moment(mu, alpha, CFG).value,
            rtol=1e-10,
        )


def test_pushforward_moment_identity():
    mu = Measure(atoms=(Atom(0.8, 1.2),), segments=exp_tail().segments)
    nu = pushforward_inverse(mu)
    for alpha in (-0.5, 0.0, 1.0):
        np.testing.assert_allclose(
            moment(nu, alpha, CFG).value, moment(mu, -alpha, CFG).value,
            rtol=1e-9,
        )


def test_pushforward_exponent_transform():
    seg = DensitySegment.from_spec(1.0, math.inf, ("power", (1.0, -3.0)),
                                   exp_hi=-3.0)
    nu = pushforward_inverse(Measure(segments=(seg,)))
    new = nu.segments[0]
    assert new.lower == 0.0 and new.upper == 1.0
    assert new.exp_lo == 1.0  # -(-3) - 2


# ---------------------------------------------------------------------------
# boundedness classification
# ---------------------------------------------------------------------------


def test_classify_bounded_at_zero():
    seg = DensitySegment.from_spec(0.0, 1.0, ("const", (1.0,)), exp_lo=0.0)
    assert classify_boundedness(Measure(segments=(seg,)), 2.0) is Boundedness.BOUNDED


def test_classify_unbounded_at_infinity():
    seg = DensitySegment.from_spec(1.0, math.inf, ("const", (1.0,)), exp_hi=0.0)
    assert classify_boundedness(Measure(segments=(seg,)), 2.0) is Boundedness.UNBOUNDED


def test_classify_negative_power_bounded_for_p1():
    seg = DensitySegment.from_spec(0.0, 1.0, ("power", (1.0, -1.5)), exp_lo=-1.5)
    mu = Measure(segments=(seg,))
    assert classify_boundedness(mu, 1.0) is Boundedness.BOUNDED
    # cross-check: the moment integral indeed converges numerically
    res = moment(mu, 2.0 / 1.0 - 1.0, CFG)
    np.testing.assert_allclose(res.value, 2.0, rtol=1e-8)  # int_0^1 t^-0.5 dt


def test_classify_borderline_is_unbounded():
    seg = DensitySegment.from_spec(0.0, 1.0, ("power", (1.0, -1.0)), exp_lo=-1.0)
    assert classify_boundedness(Measure(segments=(seg,)), 2.0) is Boundedness.UNBOUNDED


def test_classify_missing_metadata_inconclusive():
    seg = DensitySegment.from_spec(0.0, 1.0, ("const", (1.0,)))
    assert (
        classify_boundedness(Measure(segments=(seg,)), 2.0)
        is Boundedness.INCONCLUSIVE
    )


def test_bounded_implies_finite_moment():
    mu = exp_tail()
    for p in (1.0, 2.0, 4.0):
        if classify_boundedness(mu, p) is Boundedness.BOUNDED:
            assert math.isfinite(theoretical_norm(mu, p, CFG).value)


def test_bounded_implies_finite_moment_random():
    from hausdorff_bergman.harness import _random_bounded_measure

    rng = np.random.default_rng(404)
    for _ in range(25):
        p = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        mu = _random_bounded_measure(rng, p)
        assert classify_boundedness(mu, p) is Boundedness.BOUNDED
        assert math.isfinite(theoretical_norm(mu, p, CFG).value)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    seg_c = DensitySegment.from_spec(1.0, 2.0, ("const", (1.0,)))
    seg_p = DensitySegment.from_spec(0.0, 1.0, ("power", (2.0, -0.5)), exp_lo=-0.5)
    seg_e = DensitySegment.from_spec(
        0.5, math.inf, ("exp", (1.0, 2.0)), exp_hi=-math.inf
    )
    mu = Measure(atoms=(Atom(2.0, 3.0),), segments=(seg_c, seg_p, seg_e))
    path = tmp_path / "mu.json"
    dump_measure(mu, path)
    back = load_measure(path)
    assert back.atoms == mu.atoms
    for alpha in (-0.25, 0.0, 1.0):
        np.testing.assert_allclose(
            moment(back, alpha, CFG).value, moment(mu, alpha, CFG).value,
            rtol=1e-12,
        )
    doc = json.loads(path.read_text())
    assert doc["segments"][2]["hi"] == "inf"
    assert doc["segments"][2]["exp_hi"] == "-inf"
    assert "schema_version" in doc


def test_json_expr_density():
    doc = {
        "atoms": [],
        "segments": [
            {"lo": 1.0, "hi": 2.0,
             "density": {"kind": "expr", "params": ["t**2 * exp(-t)"]}}
        ],
    }
    mu = measure_from_json(doc)
    expected = float(
        moment(Measure(segments=(DensitySegment.from_spec(
            1.0, 2.0, ("expr", ("t**2 * exp(-t)",))),)), 0.0, CFG).value
    )
    np.testing.assert_allclose(moment(mu, 0.0, CFG).value, expected, rtol=1e-12)


PUSHED = [
    DensitySegment.from_spec(1.0, 2.0, ("const", (1.5,))),
    DensitySegment.from_spec(0.5, 3.0, ("power", (0.7, 1.3))),
    DensitySegment.from_spec(0.5, math.inf, ("exp", (1.2, 0.8)), exp_hi=-math.inf),
    DensitySegment.from_spec(1.0, 2.0, ("expr", ("1 + t",))),
]


def test_pushforward_specs_survive_roundtrip(tmp_path):
    # every density kind, pushed once and twice
    mu = Measure(segments=tuple(PUSHED))
    path = tmp_path / "nu.json"
    for nu in (pushforward_inverse(mu), pushforward_inverse(pushforward_inverse(mu))):
        dump_measure(nu, path)
        back = load_measure(path)
        assert back == nu and hash(back) == hash(nu)
        np.testing.assert_allclose(
            moment(back, 0.5, CFG).value, moment(nu, 0.5, CFG).value, rtol=1e-10
        )


@pytest.mark.parametrize("seg", PUSHED, ids=lambda seg: seg.spec[0])
def test_pushforward_density_is_the_change_of_variables(seg):
    # on t in [1/2, 2] the exponents and exp arguments stay of order 1, so
    # the rounding of 1/t moves neither form by more than a few ulps
    t = np.geomspace(0.5, 2.0, 101)
    u = seg.density
    pushed = pushforward_inverse(Measure(segments=(seg,))).segments[0]
    np.testing.assert_array_max_ulp(pushed.density(t), u(1.0 / t) / t**2, maxulp=4)
    twice = pushforward_inverse(Measure(segments=(pushed,))).segments[0]
    assert (twice.lower, twice.upper) == (seg.lower, seg.upper)
    np.testing.assert_array_max_ulp(twice.density(t), u(t), maxulp=4)


@pytest.mark.parametrize("spec", [
    ("const", (-1.0,)),
    ("power", (-0.5, 1.0)),
    ("exp", (-2.0, 1.0)),
], ids=lambda spec: spec[0])
def test_plain_constructor_refuses_a_negative_density(spec):
    # the plain constructor used to check the endpoints alone, and
    # moment(Measure(segments=(DensitySegment(1.0, 2.0, ("const", (-1.0,))),)), 0.0)
    # read -1.0
    with pytest.raises(ValueError, match="takes negative values"):
        Measure(segments=(DensitySegment(1.0, 2.0, spec),))


@pytest.mark.parametrize("spec", [
    ("const", (math.inf,)),
    ("const", ("1.0",)),
    ("const", (True,)),
    ("power", (1.0,)),
    ("power", (1.0, [2])),
    ("exp", (1.0, math.nan)),
    ("exp", (1.0, 1.0, 1.0)),
], ids=str)
def test_plain_constructor_refuses_malformed_params(spec):
    with pytest.raises(ValueError, match="finite number"):
        DensitySegment(1.0, 2.0, spec)


def test_plain_constructor_stores_params_as_floats():
    seg = DensitySegment(1.0, 2.0, ("power", [2, np.float64(0.5)]))
    assert seg.spec == ("power", (2.0, 0.5))
    assert all(type(x) is float for x in seg.spec[1])
    assert seg == DensitySegment.from_spec(1.0, 2.0, ("power", (2.0, 0.5)))


def test_pushed_and_restricted_segments_still_build():
    # both build through the plain constructor, which now checks the params
    mu = Measure(atoms=(Atom(2.0, 0.5),), segments=tuple(PUSHED))
    for nu in (pushforward_inverse(mu), pushforward_inverse(pushforward_inverse(mu))):
        assert [s.spec[0] for s in nu.segments] == ["power", "power", "expr", "expr"]
        assert moment(nu, 0.0, CFG).value > 0.0
    cut = restrict(mu, 1.25, 2.5)
    assert [(s.lower, s.upper) for s in cut.segments] == [(1.25, 2.0), (1.25, 2.5),
                                                          (1.25, 2.5), (1.25, 2.0)]
    np.testing.assert_allclose(moment(restrict(uniform_12(), 1.25, 1.75), 0.0, CFG).value,
                               0.5, rtol=1e-10)


# ---------------------------------------------------------------------------
# declared endpoint exponents against the density
# ---------------------------------------------------------------------------


def test_library_measures_pass_the_exponent_check():
    # random measures of the harness (power_at_zero, exp tails), their
    # push-forwards, and the reference measures all load from JSON
    from hausdorff_bergman.harness import _random_bounded_measure

    rng = np.random.default_rng(7)
    measures = [exp_tail(), uniform_12(), Measure(segments=(DensitySegment.from_spec(
        0.0, 1.0, ("power", (1.0, -0.5)), exp_lo=-0.5),))]
    for _ in range(40):
        measures.append(_random_bounded_measure(rng, float(rng.choice([1.0, 2.0, 4.0]))))
    for mu in measures:
        for nu in (mu, pushforward_inverse(mu)):
            back = measure_from_json(measure_to_json(nu))
            assert len(back.segments) == len(nu.segments)


@pytest.mark.parametrize("lo, hi, spec, exps", [
    (1.0, math.inf, ("power", (1.0, -3.0)), {"exp_hi": -math.inf}),
    # underflows before e^40, but at a constant log-slope
    (1.0, math.inf, ("power", (1.0, -20.0)), {"exp_hi": -math.inf}),
    (1.0, math.inf, ("exp", (1.0, 1.0)), {"exp_hi": -2.0}),
    (0.0, 1.0, ("power", (1.0, -0.5)), {"exp_lo": 0.0}),
    (0.0, math.inf, ("const", (1.0,)), {"exp_lo": 0.0, "exp_hi": -1.5}),
    (0.0, 2.0, ("expr", ("exp(-1/t)",)), {"exp_lo": 1.0}),
])
def test_contradicting_exponent_is_refused(lo, hi, spec, exps):
    with pytest.raises(ValueError, match="contradicts the density"):
        DensitySegment.from_spec(lo, hi, spec, **exps)


@pytest.mark.parametrize("lo, hi, spec, exps", [
    (0.0, math.inf, ("expr", ("t**2 * exp(-t)",)), {"exp_lo": 2.0, "exp_hi": -math.inf}),
    (0.0, 2.0, ("expr", ("exp(-1/t)",)), {"exp_lo": math.inf}),
    (1.0, math.inf, ("exp", (1.0, 1e-3)), {"exp_hi": -math.inf}),
    (1.0, math.inf, ("expr", ("log(1 + t) / (1 + t)**3",)), {"exp_hi": -3.0}),
    (0.0, 1.0, ("power", (1.0, 30.0)), {"exp_lo": 30.0}),
])
def test_consistent_exponent_is_accepted(lo, hi, spec, exps):
    DensitySegment.from_spec(lo, hi, spec, **exps)


def test_measure_document_must_be_an_object():
    with pytest.raises(ValueError, match="must be a JSON object"):
        measure_from_json([])
