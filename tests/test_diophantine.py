"""Rational-approximation evidence: convergent streams, the sine growth
profile, verdicts, and exactness under Moebius-type transforms."""

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

from helpers import reference_sin_growth_profile
from powertail.diophantine import (MAX_PROFILE_N, CFCertificate, ClassifyParams,
                                   FloatCertificate, QuadraticCertificate,
                                   RationalCertificate, TransformOp, Verdict,
                                   classify, convergents,
                                   golden_ratio_certificate,
                                   sin_growth_profile,
                                   super_liouville_certificate,
                                   transform_certificate)
from powertail.errors import InvalidArgumentError


def test_golden_convergents_are_fibonacci_ratios():
    assert convergents(golden_ratio_certificate(), 5) == \
        [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_rational_convergents_terminate():
    got = convergents(RationalCertificate(Fraction(3, 7)), 10)
    assert got == [(0, 1), (1, 2), (3, 7)]


def test_sqrt_two_convergents():
    s2 = QuadraticCertificate(P=0, D=2, Q=1)
    assert convergents(s2, 4) == [(1, 1), (3, 2), (7, 5), (17, 12)]


def test_convergents_bracket_the_target():
    # 1/(q_k (q_k + q_{k+1})) <= |x - p/q| <= 1/(q_k q_{k+1}),
    # checked in 60-digit arithmetic for two quadratic targets
    getcontext().prec = 60
    targets = [
        (golden_ratio_certificate(), (1 + Decimal(5).sqrt()) / 2),
        (QuadraticCertificate(P=0, D=2, Q=1), Decimal(2).sqrt()),
    ]
    for cert, x in targets:
        cs = convergents(cert, 16)
        for (p, q), (_, q_next) in zip(cs, cs[1:]):
            dist = abs(x - Decimal(p) / Decimal(q))
            assert dist <= Decimal(1) / (q * q_next)
            assert dist >= Decimal(1) / (q * (q + q_next))


# ----------------------------------------------------------- sine profile

def test_golden_profile_growth_stays_logarithmically_flat():
    p = sin_growth_profile(golden_ratio_certificate(), 10 ** 4)
    assert p.running_max_log == pytest.approx(0.9614479005, abs=1e-6)
    assert p.running_max_log < 1.2


def test_quadratic_profile_obeys_the_badly_approximable_bound():
    p = sin_growth_profile(QuadraticCertificate(P=0, D=2, Q=1), 10 ** 4)
    assert p.running_max_log < 1.3


def test_rational_profile_hits_an_exact_sine_zero():
    p = sin_growth_profile(RationalCertificate(Fraction(1, 2)), 10)
    assert math.isinf(p.running_max_linear)


def test_super_liouville_profile_explodes():
    p = sin_growth_profile(super_liouville_certificate(), 1000)
    assert p.running_max_log > 5.0


def _scaled_golden(amount):
    return transform_certificate(golden_ratio_certificate(), TransformOp.SCALE, amount)


def _same_profile(cert, N):
    got, ref = sin_growth_profile(cert, N), reference_sin_growth_profile(cert, N)
    assert got.running_max_linear.hex() == ref.running_max_linear.hex()
    assert got.running_max_log.hex() == ref.running_max_log.hex()


_PROFILE_NS = (1, 2, 3, 4, 5, 63, 64, 65, 500, 3000)


@pytest.mark.parametrize("cert, Ns", [
    (golden_ratio_certificate(), _PROFILE_NS + (MAX_PROFILE_N,)),
    # the quadratics of the benchmark's profile ops
    (QuadraticCertificate(P=0, D=2, Q=1), _PROFILE_NS),
    (QuadraticCertificate(P=1, D=3, Q=2), _PROFILE_NS),
    (QuadraticCertificate(P=2, D=7, Q=3), _PROFILE_NS),
    (QuadraticCertificate(P=-1, D=5, Q=2), _PROFILE_NS),
    # distance 0, so sin is 0 and the growth infinite
    (RationalCertificate(Fraction(3, 7)), _PROFILE_NS),
    (RationalCertificate(Fraction(1, 2)), _PROFILE_NS),
    (_scaled_golden(Fraction(-3, 7)), _PROFILE_NS),
    (transform_certificate(_scaled_golden(Fraction(-3, 7)), TransformOp.INVERT), _PROFILE_NS),
    (super_liouville_certificate(), _PROFILE_NS),
    # q near 10^320 is past the float range, and every distance / q is subnormal
    (_scaled_golden(Fraction(1, 10 ** 320)), _PROFILE_NS),
], ids=["golden", "sqrt2", "quad-1-3-2", "quad-2-7-3", "quad-m1-5-2", "3/7", "1/2",
        "golden-scaled", "golden-scaled-inverted", "super-liouville", "golden-tiny"])
def test_profile_is_the_plain_loop_bit_for_bit(cert, Ns):
    for N in Ns:
        _same_profile(cert, N)


def _quadratics():
    return hst.builds(QuadraticCertificate, P=hst.integers(-60, 60),
                      D=hst.integers(2, 10 ** 4).filter(lambda D: math.isqrt(D) ** 2 != D),
                      Q=hst.integers(-60, 60).filter(bool))


@given(hst.one_of(_quadratics(),
                  hst.builds(RationalCertificate, hst.fractions(max_denominator=10 ** 6))),
       hst.integers(1, 5000))
def test_profile_of_drawn_certificates_is_the_plain_loop(cert, N):
    _same_profile(cert, N)


# --------------------------------------------------------------- verdicts

def test_golden_ratio_gathers_no_membership_evidence():
    ev = classify(golden_ratio_certificate())
    assert ev.verdict is Verdict.NOT_IN_D_EVIDENCE
    assert ev.strongest_b == pytest.approx(1.71, abs=0.01)
    assert not ev.precision_limited


def test_rational_verdict_is_immediate():
    ev = classify(RationalCertificate(Fraction(22, 7)))
    assert ev.verdict is Verdict.RATIONAL


def test_super_liouville_is_certified():
    ev = classify(super_liouville_certificate())
    assert ev.verdict is Verdict.CERTIFIED_IN_D


def test_single_huge_quotient_flags_a_candidate():
    def quot():
        for a in (1, 2, 2, 2, 2, 10 ** 40):
            yield a
        while True:
            yield 2
    ev = classify(CFCertificate(factory=quot, label="spiky"))
    assert ev.verdict is Verdict.D_CANDIDATE
    assert ev.strongest_b > 10.0
    assert not ev.precision_limited


def test_candidate_threshold_is_a_parameter():
    ev = classify(golden_ratio_certificate(), ClassifyParams(candidate_b=1.5))
    assert ev.verdict is Verdict.D_CANDIDATE


def test_q_limit_caps_the_witness_stream():
    ev = classify(golden_ratio_certificate(), ClassifyParams(q_limit=100))
    assert ev.tested_q_limit <= 100
    assert max(w.q for w in ev.witnesses) <= 100


def test_q_limit_is_a_positive_integer_with_a_float_reciprocal():
    ev = classify(golden_ratio_certificate(), ClassifyParams(q_limit=10 ** 300))
    assert ev.tested_q_limit == 10 ** 300
    for bad in (0, -5, 10 ** 300 + 1, 2.5, True, "100"):
        with pytest.raises(InvalidArgumentError, match="q limit"):
            ClassifyParams(q_limit=bad)


def test_float_certificate_is_precision_limited():
    fc = FloatCertificate(0.7390851332151607)
    cs = convergents(fc, 60)
    assert len(cs) < 60  # the double runs out of meaningful quotients
    assert cs[-1][1] <= fc.precision_q_limit()
    ev = classify(fc)
    assert ev.precision_limited
    assert ev.verdict in (Verdict.NOT_IN_D_EVIDENCE, Verdict.D_CANDIDATE)


# --------------------------------------------------------------- transforms

def test_shift_moves_the_integer_part_only():
    shifted = transform_certificate(golden_ratio_certificate(),
                                    TransformOp.SHIFT, 1)
    assert convergents(shifted, 5) == [(2, 1), (3, 1), (5, 2), (8, 3), (13, 5)]


def test_inversion_of_a_rational_is_exact():
    inv = transform_certificate(RationalCertificate(Fraction(3, 7)),
                                TransformOp.INVERT)
    assert inv.exact_rational() == Fraction(7, 3)


def test_inversion_preserves_the_golden_verdict():
    inv = transform_certificate(golden_ratio_certificate(),
                                TransformOp.INVERT)
    ev = classify(inv)
    assert ev.verdict is Verdict.NOT_IN_D_EVIDENCE


def test_scaling_preserves_certified_membership():
    sc = transform_certificate(super_liouville_certificate(),
                               TransformOp.SCALE, 2)
    assert classify(sc).verdict is Verdict.CERTIFIED_IN_D


def test_transform_argument_guards():
    with pytest.raises(InvalidArgumentError):
        transform_certificate(RationalCertificate(Fraction(0, 1)),
                              TransformOp.INVERT)
    with pytest.raises(InvalidArgumentError):
        transform_certificate(golden_ratio_certificate(), TransformOp.SCALE)


# ------------------------------------------------- pinned quotient streams

def test_super_liouville_witnesses_are_pinned():
    # q1 = 10 and q2 = 10^11 + 1 are the witnesses the float range allows;
    # log10 q3 = 2 q2 + log10 q2 is the largest finite log continuant
    got = [(w.q, w.log10_distance, w.implied_b)
           for w in super_liouville_certificate().witnesses()]
    assert got == [
        (10, float.fromhex("-0x1.600000000098dp+3"), 12.589254117954265),
        (10 ** 11 + 1, float.fromhex("-0x1.74876e8068000p+37"), 100.00000002532813),
    ]


def _e_quotients():
    yield 2
    k = 1
    while True:
        yield from (1, 2 * k, 1)
        k += 1


@pytest.mark.parametrize("cert, want", [
    (RationalCertificate(Fraction(355, 113)), [3, 7, 16]),
    (FloatCertificate(0.7071067811865476), [0, 1] + [2] * 19),
    (FloatCertificate(3.14159), [3, 7, 15, 1, 25, 1, 7, 4]),
    (transform_certificate(golden_ratio_certificate(), TransformOp.INVERT),
     [0] + [1] * 39),
    (transform_certificate(FloatCertificate(0.7071067811865476), TransformOp.SCALE,
                           Fraction(3, 7)),
     [0, 3, 3, 2, 1, 58, 1, 2, 3, 6, 3, 2, 1, 58, 1]),
    (transform_certificate(CFCertificate(_e_quotients, "e"), TransformOp.INVERT),
     [0, 2] + [q for k in range(1, 11) for q in (1, 2 * k, 1)] + [1]),
])
def test_quotient_streams_are_pinned(cert, want):
    assert list(itertools.islice(cert.partial_quotients(), 40)) == want
