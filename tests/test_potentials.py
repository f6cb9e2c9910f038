import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapeig import (DomainError, PotentialParseError, Shape, classify,
                     constant, parse_potential_spec, piecewise_linear,
                     restrict, sampled_table, scaled_tent)

from oracles import random_nonpositive_piecewise_linear, sampled_shape


def tent_barrier():
    return scaled_tent(-5.0, 4.0)  # -5 + 4*min(x, 1-x)


def tent_well():
    return piecewise_linear([[0.0, 5.0], [0.5, 3.0], [1.0, 5.0]])


@st.composite
def lattice_potentials(draw):
    """Piecewise-linear q with 2-9 knots and values on a 0.25 lattice,
    so every knot difference is 0 or at least 0.25, far from
    MONOTONE_TOL."""
    interior = draw(st.lists(st.floats(0.001, 0.999), max_size=7,
                             unique=True))
    xs = [0.0] + sorted(interior) + [1.0]
    qs = draw(st.lists(st.integers(-12, 12), min_size=len(xs),
                       max_size=len(xs)))
    return piecewise_linear([[x, 0.25 * v] for x, v in zip(xs, qs)])


class TestEvaluation:
    def test_constant(self):
        q = constant(-2.0)
        assert q(0.3) == -2.0
        assert q.min_max() == (-2.0, -2.0)

    def test_tent_formula(self):
        q = tent_barrier()
        for x in (0.0, 0.2, 0.5, 0.77, 1.0):
            assert q(x) == pytest.approx(-5.0 + 4.0 * min(x, 1.0 - x),
                                         abs=1e-15)

    def test_vectorized_matches_scalar(self):
        q = tent_barrier()
        xs = np.linspace(0.0, 1.0, 17)
        assert np.allclose(q(xs), [q.value(float(x)) for x in xs], atol=0)

    def test_return_types(self):
        # a scalar gives a float; an array or a list an ndarray of its
        # shape, equal to the scalar route point by point
        q = tent_barrier()
        for x in (0.3, 1, np.float64(0.6), np.array(0.5)):
            assert type(q(x)) is float
        for x in ([0.1, 0.7], [[0.0, 0.25], [0.5, 1.0]], np.empty((0, 2))):
            out = q(x)
            assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
            assert out.ravel().tolist() == [
                q.value(v) for v in np.ravel(x).tolist()]

    def test_outside_domain_rejected(self):
        q = constant(1.0)
        with pytest.raises(DomainError):
            q.value(1.5)
        with pytest.raises(DomainError):
            q(np.array([-0.2, 0.5]))

    def test_nan_rejected(self):
        # NaN lies in no piece, so it is outside the domain as x > 1 is
        q = tent_barrier()
        for call in (lambda: q.value(float("nan")), lambda: q(float("nan")),
                     lambda: q([0.5, float("nan")])):
            with pytest.raises(DomainError, match="outside"):
                call()

    def test_shift(self):
        q = tent_barrier().shifted(2.0)
        assert q(0.5) == pytest.approx(-1.0)
        assert q(0.0) == pytest.approx(-3.0)
        assert dict(q.params)["depth"] == pytest.approx(-3.0)

    def test_invalid_construction(self):
        with pytest.raises(DomainError):
            piecewise_linear([[0.0, 1.0], [0.5, 2.0], [0.4, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            scaled_tent(1.0, 2.0)
        with pytest.raises(DomainError):
            scaled_tent(-1.0, -2.0)


class TestClassify:
    def test_constant_potential(self):
        cert = classify(constant(-2.0))
        assert cert.shape is Shape.CONSTANT
        assert cert.nonpositive and not cert.nonnegative
        assert cert.q_star == -2.0
        assert cert.x0 == pytest.approx(0.5)

    def test_zero_is_both_signs(self):
        cert = classify(constant(0.0))
        assert cert.nonpositive and cert.nonnegative

    def test_tent_barrier(self):
        cert = classify(tent_barrier())
        assert cert.shape is Shape.SINGLE_BARRIER
        assert cert.x0 == pytest.approx(0.5, abs=1e-12)
        assert cert.q_star == -5.0
        assert cert.nonpositive

    def test_tent_well(self):
        cert = classify(tent_well())
        assert cert.shape is Shape.SINGLE_WELL
        assert cert.x0 == pytest.approx(0.5, abs=1e-12)
        assert cert.nonnegative

    def test_monotone_shapes(self):
        up = piecewise_linear([[0.0, -1.0], [1.0, 0.0]])
        assert classify(up).shape is Shape.MONOTONE_INCREASING
        assert classify(up).x0 == pytest.approx(1.0)
        down = piecewise_linear([[0.0, 0.0], [1.0, -1.0]])
        assert classify(down).shape is Shape.MONOTONE_DECREASING
        assert classify(down).x0 == pytest.approx(0.0)

    def test_neither(self):
        w = piecewise_linear([[0.0, 0.0], [0.25, -1.0], [0.5, 0.0],
                              [0.75, -1.0], [1.0, 0.0]])
        assert classify(w).shape is Shape.NEITHER

    def test_q_star_is_min_of_endpoints(self):
        q = piecewise_linear([[0.0, -1.0], [0.4, -0.2], [1.0, -3.0]])
        cert = classify(q)
        assert cert.q0 == pytest.approx(-1.0)
        assert cert.q1 == pytest.approx(-3.0)
        assert cert.q_star == pytest.approx(-3.0)
        assert -2.0 * cert.q_star >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(lattice_potentials())
    def test_agrees_with_sampled_rule(self, q):
        # the sampled rule, on samples at every knot and knot midpoint,
        # must give the same report field for field
        assert classify(q).as_dict() == sampled_shape(q)

    def test_narrow_spike_is_not_nonpositive(self):
        # a spike to +1 only 5e-4 wide on an otherwise constant -2
        q = piecewise_linear([[0.0, -2.0], [0.5002, -2.0], [0.50045, 1.0],
                              [0.5007, -2.0], [1.0, -2.0]])
        cert = classify(q)
        assert not cert.nonpositive
        assert cert.shape is Shape.SINGLE_BARRIER
        assert cert.x0 == 0.50045

    def test_two_close_minima_are_neither(self):
        q = piecewise_linear([[0.0, 5.0], [0.3001, 1.0], [0.3002, 4.0],
                              [0.3003, 1.0], [1.0, 5.0]])
        cert = classify(q)
        assert cert.shape is Shape.NEITHER
        # no single turning point: halfway between the maxima at 0 and 1
        # is no extremum
        assert cert.x0 is None

    def test_x0_exact_on_peak_knot(self):
        q = piecewise_linear([[0.0, -5.0], [0.37, -3.0], [1.0, -5.0]])
        assert classify(q).x0 == 0.37

    def test_x0_exact_plateau_midpoint(self):
        q = piecewise_linear([[0.0, -5.0], [0.3, -3.0], [0.6, -3.0],
                              [1.0, -5.0]])
        cert = classify(q)
        assert cert.shape is Shape.SINGLE_BARRIER
        assert cert.x0 == 0.5 * (0.3 + 0.6)


class TestRestrict:
    def test_identity(self):
        q = tent_barrier()
        assert restrict(q, 1.0) is q
        c_full = classify(q)
        c_rest = classify(restrict(q, 1.0))
        assert c_full == c_rest

    def test_constant_keeps_value(self):
        q = restrict(constant(-2.0), 0.5)
        assert q.domain_end == 0.5
        assert q(0.25) == -2.0
        assert classify(q).shape is Shape.CONSTANT

    def test_tent_left_limb(self):
        q = restrict(tent_barrier(), 0.25)
        cert = classify(q)
        assert cert.shape is Shape.MONOTONE_INCREASING
        assert cert.q0 == pytest.approx(-5.0)
        assert cert.q1 == pytest.approx(-4.0)

    def test_half_tent_keeps_knot_free_interior(self):
        q = restrict(tent_barrier(), 0.5)
        assert q.domain_end == 0.5
        assert q(0.5) == pytest.approx(-3.0)
        assert q.interior_knots() == ()

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            restrict(tent_barrier(), 0.0)
        with pytest.raises(DomainError):
            restrict(tent_barrier(), 1.2)


class TestParse:
    def test_constant_doc(self):
        q = parse_potential_spec({"type": "constant", "value": -2})
        assert q.kind == "constant"
        assert q(0.7) == -2.0

    def test_piecewise_doc(self):
        q = parse_potential_spec(
            '{"type":"piecewise_linear","knots":[[0,-5],[0.5,-3],[1,-5]]}')
        assert q(0.5) == -3.0
        assert classify(q).shape is Shape.SINGLE_BARRIER

    def test_table_doc(self):
        q = parse_potential_spec(
            {"type": "table", "xs": [0, 0.5, 1], "qs": [-1, -0.5, -1]})
        assert q.kind == "sampled_table"
        assert q(0.25) == pytest.approx(-0.75)

    def test_scaled_tent_doc(self):
        q = parse_potential_spec({"type": "scaled_tent", "depth": -5,
                                  "rise": 4})
        assert q(0.5) == pytest.approx(-3.0)

    def test_roundtrip_through_spec(self):
        for q in (constant(-2.0), tent_barrier(), tent_well(),
                  sampled_table([0, 0.5, 1], [-1, -0.5, -1])):
            q2 = parse_potential_spec(json.dumps(q.to_spec()))
            assert q2.xs == q.xs and q2.qs == q.qs

    @pytest.mark.parametrize("doc,loc", [
        ('{"type":"nope"}', "type"),
        ('{"type":"constant","value":"x"}', "value"),
        ('{"type":"constant"}', "value"),
        ('{"type":"piecewise_linear","knots":[[0,1]]}', "knots"),
        ('{"type":"piecewise_linear","knots":[[0,1],[0.5,2],[0.3,1],[1,0]]}',
         "knots[2]"),
        ('{"type":"piecewise_linear","knots":[[0.1,1],[1,0]]}', "knots"),
        ('{"type":"table","xs":[0,1],"qs":[1]}', "qs"),
        ('{"type":"scaled_tent","depth":2,"rise":1}', "depth"),
        ('{"type":"scaled_tent","depth":-2,"rise":-1}', "rise"),
        ('not json', "document"),
        ('{"type":"constant","value":1e999}', "value"),
    ])
    def test_errors_carry_location(self, doc, loc):
        with pytest.raises(PotentialParseError) as err:
            parse_potential_spec(doc)
        assert err.value.location == loc


class TestRandomFamily:
    def test_deterministic_and_nonpositive(self):
        a = random_nonpositive_piecewise_linear(np.random.default_rng(3))
        b = random_nonpositive_piecewise_linear(np.random.default_rng(3))
        assert a.xs == b.xs and a.qs == b.qs
        assert max(a.qs) <= 0.0
        assert classify(a).nonpositive
