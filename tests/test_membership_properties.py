"""Property tests of the membership rule table over random power tails.

The chain L-infinity < Lp (p > 1) < M(psi-log) < L1 < Lp (p < 1) must hold for
membership and for log+ membership, and a strict witness certificate must
agree with the plain verdict.  Exponents are drawn both at random and within
the 1e-12 boundary slack of each space's edge, where the rules decide by the
log power; p keeps |p - 1| >= 1e-6.
"""

import math

from hypothesis import given, settings, strategies as st

from specdet.spaces import (
    BOUNDED,
    SUPERPOWER,
    Membership,
    PowerTail,
    PsiFn,
    SpectralProfile,
    _certified,
    elog_membership,
    membership,
    space_linf,
    space_llog,
    space_lp,
    space_marcinkiewicz,
)

_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)
_SLACK = st.floats(-2e-12, 2e-12)


@st.composite
def _cases(draw):
    p_hi = draw(st.floats(1.0 + 1e-6, 8.0))
    p_lo = draw(st.floats(0.05, 1.0 - 1e-6))
    kind = draw(st.sampled_from(["power", "power", "power", BOUNDED, SUPERPOWER]))
    if kind != "power":
        return p_hi, p_lo, kind
    edge = draw(st.sampled_from([None, 0.0, 1.0, 1.0 / p_hi, 1.0 / p_lo]))
    a = draw(st.floats(0.0, 3.0)) if edge is None else max(edge + draw(_SLACK), 0.0)
    b_edge = draw(st.sampled_from([None, -2.0, -1.0, -1.0 / p_hi, -1.0 / p_lo]))
    b = draw(st.floats(-4.0, 4.0)) if b_edge is None else b_edge + draw(_SLACK)
    return p_hi, p_lo, PowerTail(a, b)


def _profile(tail):
    return SpectralProfile(name=f"tail {tail}", evaluator=lambda t: 1.0, tail_at_0=tail)


def _chain(p_hi, p_lo):
    return [space_linf(), space_lp(p_hi), space_marcinkiewicz(), space_lp(1.0), space_lp(p_lo)]


@_SETTINGS
@given(_cases())
def test_inclusion_chain(case):
    p_hi, p_lo, tail = case
    f = _profile(tail)
    chain = _chain(p_hi, p_lo)
    for decide in (membership, elog_membership):
        verdicts = [decide(space, f) for space in chain]
        for small, large, v_small, v_large in zip(chain, chain[1:], verdicts, verdicts[1:]):
            if v_small is Membership.MEMBER:
                assert v_large is Membership.MEMBER, (decide.__name__, small.name, large.name)


@_SETTINGS
@given(_cases())
def test_strict_certificate_implies_the_verdict(case):
    p_hi, p_lo, tail = case
    f = _profile(tail)
    for space in _chain(p_hi, p_lo) + [space_llog()]:
        for verdict in (Membership.MEMBER, Membership.NOT_MEMBER):
            if _certified(space, f, verdict):
                assert membership(space, f) is verdict, space.name


@_SETTINGS
@given(_cases())
def test_a_member_has_its_log_plus_in_the_space(case):
    # log+ f <= f, so a member's log+ is a member too
    p_hi, p_lo, tail = case
    f = _profile(tail)
    impostor = space_marcinkiewicz(PsiFn("psi-log", math.sqrt))
    for space in _chain(p_hi, p_lo) + [space_llog(), impostor]:
        if membership(space, f) is Membership.MEMBER:
            assert elog_membership(space, f) is Membership.MEMBER, space.name
