import numpy as np
import pytest
from hypothesis import settings

from fedprune import nn
from fedprune.federation import ExperimentConfig, client_buffers, client_round

# A property test that sets no example count of its own (the drawn configs of
# test_run_reference.py) runs as many as the profile asks: 30 by default, and
# 300 under `pytest --hypothesis-profile sweep`.
settings.register_profile("tier1", max_examples=30)
settings.register_profile("sweep", max_examples=300)
settings.load_profile("tier1")


@pytest.fixture
def fake_backward(monkeypatch):
    """Replace nn.backward by grad_of(arch, params, batch).  Like nn, the
    fake hands each layer's gradient to its ``then`` hook, from the last
    layer to the first, before it returns the gradient."""
    def install(grad_of):
        def backward(arch, params, batch, then=None):
            grad = grad_of(arch, params, batch)
            for g in reversed(grad.entries if then is not None else ()):
                then(g.layer_id, g.weight, g.bias)
            return grad
        monkeypatch.setattr(nn, "backward", backward)
    return install


@pytest.fixture
def fixed_grad_round(fake_backward):
    """client_round with nn.backward replaced by the given loss gradients:
    one local epoch of one minibatch per gradient.  The same gradient arrays
    are handed out at every step they are listed for, and must come back
    unwritten.  Returns client_round's (update, ADMM state)."""
    def run(params, grads, plan, state=None, mask=None, lr=0.1, momentum=0.0):
        before = [[(e.weight.tobytes(), e.bias.tobytes()) for e in g.entries] for g in grads]
        queue = iter(grads)
        fake_backward(lambda arch, p, batch: next(queue))
        cfg = ExperimentConfig(mode="dense", num_clients=1, clients_per_round=1,
                               local_epochs=len(grads), batch_size=1, lr=lr,
                               momentum=momentum)
        out = client_round(None, params, np.zeros((1, 1)), np.zeros(1, dtype=int),
                           cfg, plan, state, mask, seed=0,
                           buffers=client_buffers(params))
        assert before == [[(e.weight.tobytes(), e.bias.tobytes()) for e in g.entries]
                          for g in grads]
        return out
    return run
