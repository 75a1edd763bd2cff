"""Projection operators: closed-form values, invariants, error handling."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import SET_FAMILIES, sample_member, sample_set
from memproj.sets import _distance
from memproj import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
    distance,
    project,
    toy_directions,
)


class TestClosedForms:
    def test_hyperplane_orthogonal_drop(self):
        s = Hyperplane([1.0, 0.0], 0.0)
        np.testing.assert_array_equal(project([2.0, 0.0], s), [0.0, 0.0])
        assert distance([2.0, 0.0], s) == 2.0

    def test_halfspace_interior_point_is_fixed(self):
        s = Halfspace([1.0, 0.0], 1.0)
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(project(x, s), x)

    def test_halfspace_exterior_point_drops_to_boundary(self):
        s = Halfspace([1.0, 0.0], 1.0)
        np.testing.assert_allclose(project([2.0, 0.5], s), [1.0, 0.5], atol=1e-15)

    def test_ball_interior_distance_zero(self):
        s = Ball([0.0, 0.0, 0.0], 1.0)
        assert distance([0.1, -0.2, 0.3], s) == 0.0

    def test_ball_exterior(self):
        s = Ball([0.0, 0.0], 1.0)
        np.testing.assert_allclose(project([3.0, 4.0], s), [0.6, 0.8], atol=1e-15)

    def test_box_clips_componentwise(self):
        s = Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_array_equal(project([2.0, 0.5], s), [1.0, 0.5])

    def test_line_closed_form_matches_formula(self):
        v = np.array([-0.05, 0.0, 1.0])
        s = LineThroughOrigin(v)
        x = np.array([1.0, 1.0, 1.0])
        expected = ((x @ v) / (v @ v)) * v
        np.testing.assert_array_equal(project(x, s), expected)

    def test_line_projection_against_scalar_minimization(self):
        # the last line of the fan problem, checked against a dense 1-D
        # minimization of ||x - s v|| over s
        v = toy_directions(9, 0.05)[8]
        s = LineThroughOrigin(v)
        x = np.array([1.0, 1.0, 1.0])
        p = project(x, s)

        result = minimize_scalar(
            lambda t: float(np.sum((x - t * v) ** 2)),
            bracket=(-10.0, 0.0, 10.0),
            method="golden",
            options={"xtol": 1e-14},
        )
        np.testing.assert_allclose(p, result.x * v, atol=1e-9)
        assert abs(distance(x, s) - np.linalg.norm(x - result.x * v)) < 1e-9

    def test_affine_projection_against_least_squares(self):
        rng = np.random.default_rng(5)
        basepoint = rng.uniform(-2, 2, size=5)
        span = rng.standard_normal((3, 5))
        s = AffineSubspace(basepoint, span)
        x = rng.uniform(-4, 4, size=5)
        p = project(x, s)
        coeff, *_ = np.linalg.lstsq(span.T, x - basepoint, rcond=None)
        np.testing.assert_allclose(p, basepoint + span.T @ coeff, atol=1e-10)


class TestConstruction:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            Hyperplane([0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="nonzero"):
            Halfspace([0.0, 0.0, 0.0], 1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            LineThroughOrigin([0.0, 0.0])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Ball([0.0], -0.1)

    def test_unordered_box_rejected(self):
        with pytest.raises(ValueError):
            Box([1.0, 0.0], [0.0, 1.0])

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane([np.nan, 1.0], 0.0)
        with pytest.raises(ValueError):
            Ball([0.0], np.inf)

    def test_rank_deficient_affine_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            AffineSubspace([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])

    def test_orthonormal_basis_kept_verbatim(self):
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        s = AffineSubspace([0.0, 0.0, 1.0], basis)
        np.testing.assert_array_equal(s.basis, basis)

    def test_general_spanning_set_is_orthonormalized(self):
        s = AffineSubspace([0.0, 0.0, 0.0], [[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        gram = s.basis @ s.basis.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-14)

    def test_dimension_mismatch_raises(self):
        s = Hyperplane([1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="shape"):
            project([1.0, 2.0, 3.0], s)
        with pytest.raises(ValueError, match="shape"):
            distance([1.0], s)

    def test_sets_compare_by_parameters(self):
        assert Ball([0.0, 1.0], 2.0) == Ball([0.0, 1.0], 2.0)
        assert Ball([0.0, 1.0], 2.0) != Ball([0.0, 1.0], 2.5)
        assert Hyperplane([1.0], 0.0) != Halfspace([1.0], 0.0)


@given(
    x=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    normal=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    offset=st.floats(-5, 5),
)
@settings(max_examples=300)
def test_hyperplane_projection_is_idempotent_and_member(x, normal, offset):
    a = np.asarray(normal)
    # keep the normal well scaled; nearly vanishing normals blow up the
    # conditioning of the projection far beyond the 1e-12 tolerances
    if np.linalg.norm(a) < 0.1:
        return
    s = Hyperplane(a, offset)
    p = s.project(np.asarray(x))
    assert distance(p, s) <= 1e-12
    assert np.linalg.norm(s.project(p) - p) <= 1e-12


@given(
    x=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    center=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    radius=st.floats(0, 4),
)
@settings(max_examples=300)
def test_ball_projection_is_idempotent_and_member(x, center, radius):
    s = Ball(np.asarray(center), radius)
    p = s.project(np.asarray(x))
    assert distance(p, s) <= 1e-12
    assert np.linalg.norm(s.project(p) - p) <= 1e-12


@pytest.mark.parametrize("family", SET_FAMILIES)
def test_projection_invariants_randomized(family):
    """Idempotence, membership, the error-reduction inequality and the
    obtuse-angle characterization, on randomized (x, set) pairs."""
    rng = np.random.default_rng(SET_FAMILIES.index(family))
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        s = sample_set(rng, family, dim)
        x = rng.uniform(-8, 8, size=dim)
        p = s.project(x)

        assert np.linalg.norm(s.project(p) - p) <= 1e-12
        assert distance(p, s) <= 1e-12

        z = sample_member(rng, s)
        assert distance(z, s) <= 1e-12
        lhs = np.linalg.norm(p - z) ** 2
        rhs = np.linalg.norm(x - z) ** 2 - np.linalg.norm(p - x) ** 2
        assert lhs <= rhs + 1e-9
        assert (x - p) @ (z - p) <= 1e-9


def test_distance_is_zero_only_on_members():
    rng = np.random.default_rng(11)
    s = Ball([0.0, 0.0], 1.0)
    assert distance([0.5, 0.5], s) == 0.0
    assert distance([2.0, 0.0], s) == pytest.approx(1.0, abs=1e-15)
    for _ in range(50):
        z = sample_member(rng, s)
        assert distance(z, s) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distance_whose_squares_overflow_is_quiet_and_exact():
    # |x| is about 1e157, so x . x overflows in the Ball projection and in
    # the distance; both rescale exactly, and distance() raises no warning
    x = np.full(3, 2.0**521)
    ball = Ball(np.zeros(3), 2.0**520)
    unit = distance(np.full(3, 2.0), Ball(np.zeros(3), 1.0))
    assert distance(x, ball) == np.ldexp(unit, 520)


@pytest.mark.parametrize("dim", [1, 3, 60])
def test_ball_and_distance_match_linalg_norm_bit_for_bit(dim):
    """The sqrt-dot distance helper gives the bits np.linalg.norm gives."""
    rng = np.random.default_rng(dim)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-100, 100)
        s = Ball(scale * rng.standard_normal(dim), scale * rng.uniform(0.0, 2.0))
        x = scale * rng.standard_normal(dim)
        delta = x - s.center
        dist = float(np.linalg.norm(delta))
        expected = x.copy() if dist <= s.radius else s.center + (s.radius / dist) * delta
        assert s.project(x).tobytes() == expected.tobytes()
        assert distance(x, s) == float(np.linalg.norm(x - s.project(x)))


def _reference_project(s, x):
    """Each family's nearest point written with ``@`` on ``np.asarray(x)``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != s.dim:
        raise ValueError(f"point has shape {np.shape(x)}, expected ({s.dim},)")
    if isinstance(s, Hyperplane):
        return v - ((s.normal @ v - s.offset) / s._nn) * s.normal
    if isinstance(s, Halfspace):
        slack = s.normal @ v - s.offset
        return v.copy() if slack <= 0.0 else v - (slack / s._nn) * s.normal
    if isinstance(s, Ball):
        dist = _distance(v, s.center)
        return v.copy() if dist <= s.radius else s.center + (s.radius / dist) * (v - s.center)
    if isinstance(s, Box):
        return np.clip(v, s.lower, s.upper)
    if isinstance(s, LineThroughOrigin):
        return ((s.direction @ v) / s._vv) * s.direction
    return s.basepoint + s.basis.T @ (s.basis @ (v - s.basepoint))


def _outcome(fn, *args):
    """The exact bits ``fn`` returns, or the type and text of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # the test compares whatever is raised
        return type(exc), str(exc)
    return type(out), out.dtype, out.shape, out.tobytes()


def _at_scale(rng, family, dim, k):
    """A random set of ``family`` whose offsets and points are of size ~ 2^k."""
    s = sample_set(rng, family, dim)
    if isinstance(s, (Hyperplane, Halfspace)):
        return type(s)(s.normal, np.ldexp(s.offset, k))
    if isinstance(s, Ball):
        return Ball(np.ldexp(s.center, k), np.ldexp(s.radius, k))
    if isinstance(s, Box):
        return Box(np.ldexp(s.lower, k), np.ldexp(s.upper, k))
    if isinstance(s, AffineSubspace):
        return AffineSubspace(np.ldexp(s.basepoint, k), s.basis)
    return s


class TestProjectEqualsReference:
    """``project`` gives the bits of its ``@``-based definition, whatever the input."""

    @given(
        family=st.sampled_from(SET_FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3, 60]),
        k=st.integers(-1000, 1000),
        strided=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    # a ball's distance rescales exactly once its squares overflow
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    def test_at_every_scale(self, family, seed, dim, k, strided):
        rng = np.random.default_rng(seed)
        s = _at_scale(rng, family, dim, k)
        x = np.ldexp(rng.uniform(-8.0, 8.0, 2 * dim if strided else dim), k)
        x = x[::2] if strided else x
        assert _outcome(s.project, x) == _outcome(_reference_project, s, x)

    @pytest.mark.parametrize("family", SET_FAMILIES)
    def test_inputs_that_are_not_float_vectors(self, family):
        rng = np.random.default_rng(SET_FAMILIES.index(family))
        s = sample_set(rng, family, 3)
        x = rng.uniform(-8.0, 8.0, 3)
        sub = type("Sub", (np.ndarray,), {})
        readonly = x.copy()
        readonly.setflags(write=False)
        inputs = [x.tolist(), tuple(x), [1, -2, 3], np.array([1, -2, 3]),
                  x.astype(np.float32), x.astype(">f8"), x.view(sub), readonly]
        for v in inputs:
            assert _outcome(s.project, v) == _outcome(_reference_project, s, v)
            assert type(s.project(v)) is np.ndarray

    @pytest.mark.parametrize("family", SET_FAMILIES)
    def test_inputs_of_the_wrong_shape(self, family):
        s = sample_set(np.random.default_rng(0), family, 3)
        cases = [(5.0, "()"), (np.float64(5.0), "()"), (np.array(5.0), "()"),
                 (np.zeros((1, 3)), "(1, 3)"), ([[1.0, 2.0, 3.0]], "(1, 3)"),
                 (np.zeros(2), "(2,)"), (np.zeros(4, dtype=np.float32), "(4,)"),
                 ([1.0, 2.0], "(2,)"), ([], "(0,)")]
        for v, shape in cases:
            message = f"point has shape {shape}, expected (3,)"
            assert _outcome(s.project, v) == (ValueError, message)
        for v in (["a", "b", "c"], [1.0, None, 2.0]):
            assert _outcome(s.project, v) == _outcome(_reference_project, s, v)
