"""Reference helpers shared by the test modules."""

import numpy as np

from reinsure_dp import dp


def weight_price(s, f):
    # the per-row reference price: f's ceded claim atoms, clipped at zero,
    # @ the stage's price weights
    y = s.dY.values
    return np.maximum(y - f.retained(y), 0.0) @ dp._price_weights(s)
