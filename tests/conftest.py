import numpy as np
import pytest

from rddkit import pretrain


class TrainingSteps:
    """The arguments of every loss-gradient call and Adam step of a training loop.

    loss holds (params, anchor_params) per call, adam (params, opt_state,
    grad); the calls run as they would unspied.
    """

    def __init__(self, monkeypatch):
        self.loss, self.adam = [], []
        loss_and_grad, adam = pretrain.loss_and_grad_arrays, pretrain.adam_step

        def loss_spy(params, *args, **kwargs):
            self.loss.append((params, kwargs.get("anchor_params")))
            return loss_and_grad(params, *args, **kwargs)

        def adam_spy(params, opt_state, grad):
            self.adam.append((params, opt_state, grad))
            return adam(params, opt_state, grad)

        monkeypatch.setattr(pretrain, "loss_and_grad_arrays", loss_spy)
        monkeypatch.setattr(pretrain, "adam_step", adam_spy)

    def assert_float32_master(self, returned):
        """Every step ran on one float32 master theta with float32 moments and
        gradient, and returned is the float64 widening of that master."""
        master = self.adam[-1][0].theta
        assert master.dtype == np.float32
        for params, _ in self.loss:
            assert params.theta is master
        for params, opt_state, grad in self.adam:
            assert params.theta is master
            assert opt_state.m.dtype == opt_state.v.dtype == grad.dtype == np.float32
        assert returned.theta.dtype == np.float64
        assert np.array_equal(returned.theta, master.astype(np.float64))


@pytest.fixture
def training_steps(monkeypatch):
    return TrainingSteps(monkeypatch)
