"""SGD with momentum and the two learning-rate schedules."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavepool.autodiff import Parameter, make_rng
from wavepool.errors import InvalidHyperparameter, MissingGradient
from wavepool.optim import cosine_lr, sgd_step, step_decay, zero_grads


@pytest.fixture
def rng():
    return make_rng(99)


class TestSgdStep:
    def test_zero_gradient_leaves_params_unchanged(self, rng):
        p = Parameter(rng.normal(size=(3, 4)))
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        sgd_step([p], lr=0.1)
        assert np.array_equal(p.data, before)
        assert np.all(p.momentum == 0.0)

    def test_momentum_recurrence_matches_closed_form(self, rng):
        # independent oracle: run the classical-momentum recurrence with
        # plain numpy arrays and compare after several steps
        p = Parameter(rng.normal(size=5))
        grads = [rng.normal(size=5) for _ in range(6)]
        lr, mom, wd = 0.05, 0.9, 0.01

        ref_p = p.data.copy()
        ref_v = np.zeros_like(ref_p)
        for g in grads:
            ref_v = mom * ref_v + (g + wd * ref_p)
            ref_p = ref_p - lr * ref_v

        for g in grads:
            p.grad = g.copy()
            sgd_step([p], lr=lr, momentum=mom, weight_decay=wd)
        assert np.allclose(p.data, ref_p, atol=1e-12)
        assert np.allclose(p.momentum, ref_v, atol=1e-12)

    def test_no_momentum_is_plain_gradient_descent(self, rng):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -0.5])
        sgd_step([p], lr=0.1, momentum=0.0)
        assert np.allclose(p.data, [1.0 - 0.05, 2.0 + 0.05])

    def test_weight_decay_pulls_toward_zero(self):
        p = Parameter(np.array([10.0]))
        p.grad = np.array([0.0])
        sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        # effective gradient 0 + 0.1*10 = 1, step -0.1
        assert np.allclose(p.data, [9.9])

    def test_missing_gradient_raises(self):
        p = Parameter(np.zeros(2))
        with pytest.raises(MissingGradient):
            sgd_step([p], lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(InvalidHyperparameter):
            sgd_step([], lr=-0.1)

    def test_zero_grads(self, rng):
        ps = [Parameter(rng.normal(size=2)) for _ in range(3)]
        for p in ps:
            p.grad = np.ones(2)
        zero_grads(ps)
        assert all(p.grad is None for p in ps)


class TestStepDecay:
    def test_between_milestones_decays_once(self):
        assert step_decay(0.1, (100, 150), 120) == pytest.approx(0.01, rel=1e-12)

    def test_before_first_milestone(self):
        assert step_decay(0.1, (100, 150), 0) == 0.1
        assert step_decay(0.1, (100, 150), 99) == 0.1

    def test_after_all_milestones(self):
        assert step_decay(0.1, (100, 150), 150) == pytest.approx(0.001, rel=1e-12)
        assert step_decay(0.1, (100, 150), 199) == pytest.approx(0.001, rel=1e-12)

    def test_milestone_epoch_is_inclusive(self):
        assert step_decay(0.1, (100,), 100) == pytest.approx(0.01, rel=1e-12)

    def test_custom_factor(self):
        assert step_decay(1.0, (5,), 7, factor=0.5) == 0.5

    def test_bad_factor_rejected(self):
        with pytest.raises(InvalidHyperparameter):
            step_decay(0.1, (100,), 0, factor=0.0)


class TestCosineLr:
    def test_phase_zero_gives_lr_max(self):
        assert cosine_lr(3.75e-3, 3.75e-5, 30, 0) == pytest.approx(3.75e-3, rel=1e-12)

    def test_mid_period_gives_midpoint(self):
        mid = cosine_lr(3.75e-3, 3.75e-5, 30, 15)
        assert mid == pytest.approx((3.75e-3 + 3.75e-5) / 2, rel=1e-12)

    def test_restart_at_period_boundary(self):
        assert cosine_lr(0.1, 0.001, 30, 30) == pytest.approx(0.1, rel=1e-12)
        assert cosine_lr(0.1, 0.001, 30, 60) == pytest.approx(0.1, rel=1e-12)

    def test_monotone_decreasing_within_period(self):
        vals = [cosine_lr(0.1, 0.0, 10, e) for e in range(10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_last_epoch_sits_above_lr_min(self):
        v = cosine_lr(0.1, 0.001, 30, 29)
        expected = 0.001 + 0.5 * (0.1 - 0.001) * (1 + math.cos(math.pi * 29 / 30))
        assert v == pytest.approx(expected, rel=1e-12)
        assert v > 0.001

    def test_bad_period_rejected(self):
        with pytest.raises(InvalidHyperparameter):
            cosine_lr(0.1, 0.001, 0, 0)

    def test_inverted_range_rejected(self):
        with pytest.raises(InvalidHyperparameter):
            cosine_lr(0.001, 0.1, 30, 0)

    @given(
        lr_max=st.floats(1e-6, 1.0),
        frac=st.floats(0.0, 0.99),
        period=st.integers(1, 500),
        epoch=st.integers(0, 2000),
    )
    def test_always_within_range(self, lr_max, frac, period, epoch):
        lr_min = lr_max * frac
        v = cosine_lr(lr_max, lr_min, period, epoch)
        assert lr_min - 1e-15 <= v <= lr_max + 1e-15
