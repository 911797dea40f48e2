"""Brute-force reference implementations used as independent test oracles.

Everything here is written as plain Python loops over basis vectors,
deliberately sharing no code with the package's vectorized paths.
"""

from __future__ import annotations

import numpy as np


def apply_bracket(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = c.shape[0]
    out = np.zeros(d)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] += x[i] * y[j] * c[i, j, k]
    return out


def norm_loops(c: np.ndarray) -> float:
    total = 0.0
    for i in range(c.shape[0]):
        for j in range(c.shape[0]):
            for k in range(c.shape[0]):
                total += c[i, j, k] ** 2
    return float(np.sqrt(total))


def pi_action_loops(a: np.ndarray, c: np.ndarray, q: int) -> np.ndarray:
    d = c.shape[0]
    abar = np.zeros((d, d))
    abar[q:, q:] = a
    basis = np.eye(d)
    out = np.zeros_like(c)
    for i in range(d):
        for j in range(d):
            v = (
                abar @ apply_bracket(c, basis[i], basis[j])
                - apply_bracket(c, abar @ basis[i], basis[j])
                - apply_bracket(c, basis[i], abar @ basis[j])
            )
            out[i, j, :] = v
    return out


def jacobiator_loops(c: np.ndarray) -> np.ndarray:
    d = c.shape[0]
    basis = np.eye(d)
    out = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for l in range(d):
                out[i, j, l, :] = (
                    apply_bracket(c, apply_bracket(c, basis[i], basis[j]), basis[l])
                    + apply_bracket(c, apply_bracket(c, basis[j], basis[l]), basis[i])
                    + apply_bracket(c, apply_bracket(c, basis[l], basis[i]), basis[j])
                )
    return out


def jacobi_max_loops(c: np.ndarray) -> float:
    return float(np.max(np.abs(jacobiator_loops(c))))


def transform_loops(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    # (g.mu)(x, y) = g mu(g^-1 x, g^-1 y) on each pair of basis vectors
    d = c.shape[0]
    ginv = np.linalg.inv(g)
    basis = np.eye(d)
    out = np.zeros_like(c)
    for i in range(d):
        for j in range(d):
            out[i, j, :] = g @ apply_bracket(c, ginv @ basis[i], ginv @ basis[j])
    return out


def ad_matrix_loops(c: np.ndarray, i: int) -> np.ndarray:
    d = c.shape[0]
    basis = np.eye(d)
    m = np.zeros((d, d))
    for col in range(d):
        m[:, col] = apply_bracket(c, basis[i], basis[col])
    return m


def mean_curvature_loops(c: np.ndarray, q: int) -> np.ndarray:
    d = c.shape[0]
    return np.array([np.trace(ad_matrix_loops(c, x)) for x in range(q, d)])


def killing_p_loops(c: np.ndarray, q: int) -> np.ndarray:
    d = c.shape[0]
    n = d - q
    ads = [ad_matrix_loops(c, q + x) for x in range(n)]
    b = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            b[x, y] = np.trace(ads[x] @ ads[y])
    return b


def moment_part_loops(c: np.ndarray, q: int) -> np.ndarray:
    d = c.shape[0]
    n = d - q
    m = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            s1 = 0.0
            s2 = 0.0
            for i in range(n):
                for j in range(n):
                    s1 += c[q + x, q + i, q + j] * c[q + y, q + i, q + j]
                    s2 += c[q + i, q + j, q + x] * c[q + i, q + j, q + y]
            m[x, y] = -0.5 * s1 + 0.25 * s2
    return 0.5 * (m + m.T)


def ricci_assembled_loops(c: np.ndarray, q: int) -> np.ndarray:
    d = c.shape[0]
    n = d - q
    m = moment_part_loops(c, q)
    b = killing_p_loops(c, q)
    h = mean_curvature_loops(c, q)
    hvec = np.zeros(d)
    hvec[q:] = h
    ad_h = np.zeros((n, n))
    basis = np.eye(d)
    for col in range(n):
        ad_h[:, col] = apply_bracket(c, hvec, basis[q + col])[q:]
    return m - 0.5 * b - 0.5 * (ad_h + ad_h.T)


def local_derivatives_polyfit(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    # one np.polyfit of degree 4 per 5-sample window, on tau / s, differentiated at the center
    out = []
    for k in range(2, len(t) - 2):
        tau = t[k - 2 : k + 3] - t[k]
        s = np.max(np.abs(tau))
        out.append(np.polyfit(tau / s, y[k - 2 : k + 3], 4)[3] / s if s > 0 else 0.0)
    return np.array(out)
