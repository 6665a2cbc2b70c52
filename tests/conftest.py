"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest


def _meshgrid_rule(center, cov, level):
    """The tensor Gauss-Hermite rule for expectations under N(center, cov),
    built the plain way: every node a row of a (level^d, d) matrix from full
    meshgrids, every weight a product of 1-D weights that sum to 1.  Returns
    ``(nodes, weights)``."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.size
    x, w = np.polynomial.hermite_e.hermegauss(level)
    w = w / math.sqrt(2 * math.pi)
    xg = np.meshgrid(*([x] * d), indexing="ij")
    wg = np.meshgrid(*([w] * d), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in xg], axis=-1)
    wts = np.ones(pts.shape[0])
    for g in wg:
        wts = wts * g.reshape(-1)
    chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
    return center + pts @ chol.T, wts


@pytest.fixture
def meshgrid_rule():
    """The node-matrix oracle of ``core.gauss_hermite_nodes``."""
    return _meshgrid_rule
