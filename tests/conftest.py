import numpy as np
import pytest

from fedprune import nn
from fedprune.federation import ExperimentConfig, client_buffers, client_round


@pytest.fixture
def fixed_grad_round(monkeypatch):
    """client_round with nn.backward replaced by the given loss gradients:
    one local epoch of one minibatch per gradient.  The same gradient arrays
    are handed out at every step they are listed for, and must come back
    unwritten.  Returns client_round's (update, ADMM state)."""
    def run(params, grads, plan, state=None, mask=None, lr=0.1, momentum=0.0):
        before = [[(e.weight.tobytes(), e.bias.tobytes()) for e in g.entries] for g in grads]
        queue = iter(grads)
        monkeypatch.setattr(nn, "backward", lambda arch, p, batch: next(queue))
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
