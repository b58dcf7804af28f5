"""Independent answers the benchmark checks the package's outputs against.

Everything here is written from the model's definition (harm and cost
curves, drift, discount) with plain NumPy, so it shares no solver code with
the package: a dense solve of the Markov chain a threshold policy induces and
a greedy one-step lookahead over the action grid.
"""

import numpy as np


def chain_values(h, c, g, gamma):
    """Discounted values of the chain: harm jumps to the top state, else drift down."""
    n = h.size
    idx = np.arange(n)
    p = np.zeros((n, n))
    p[idx, idx] += (1.0 - h) * (1.0 - g)
    p[idx[1:], idx[1:] - 1] += (1.0 - h[1:]) * g[1:]
    p[0, 0] += (1.0 - h[0]) * g[0]
    p[:, -1] += h
    return np.linalg.solve(np.eye(n) - gamma * p, -c)


def threshold_values(mdp, tau):
    """Values of the policy playing max(tau, required effort) in every state."""
    efforts = np.maximum(mdp.space.levels, tau)
    return chain_values(np.asarray(mdp.harm.prob(efforts), dtype=float),
                        np.asarray(mdp.cost.value(efforts), dtype=float),
                        np.asarray(mdp.drift.probs, dtype=float), mdp.gamma)


def greedy_efforts(mdp, v):
    """Best grid effort per state against the values v (lowest effort on ties)."""
    acts = mdp.actions.efforts
    h = np.asarray(mdp.harm.prob(acts), dtype=float)
    c = np.asarray(mdp.cost.value(acts), dtype=float)
    g = np.asarray(mdp.drift.probs, dtype=float)
    lower = v[np.maximum(np.arange(v.size) - 1, 0)]
    cont = g * lower + (1.0 - g) * v
    q = -c[None, :] + mdp.gamma * (h[None, :] * v[-1] + (1.0 - h)[None, :] * cont[:, None])
    q[acts[None, :] < mdp.space.levels[:, None] - 1e-12] = -np.inf
    return acts[np.argmax(q, axis=1)]
