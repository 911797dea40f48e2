"""Brute-force reference implementations used as independent test oracles.

Everything here is written as plain Python loops over basis vectors,
deliberately sharing no code with the package's vectorized paths.  The two
table builders are the exception: they are the loops an earlier version
built its Ricci and pi tables with from the package's GEMM kernels, kept so
that the stacked table can be checked against them bit for bit.  So is
`antisymmetrized_by_mask`, the earlier construction of a bracket's tensor.
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


def equivalence_gap_loop(mu0, horizon: float) -> float:
    """`metric_flow.equivalence_check` as its former per-point grid loop.

    Runs both flows as the package does, then, at each grid time, makes one
    scalar dense call per flow, one Ricci assembly per flow and one sorted
    spectrum per flow.
    """
    from bracketflow import IntegratorOptions, integrate, metric_flow
    from bracketflow.curvature import _ricci_from_tensor

    opts = IntegratorOptions(collect_dense=True)
    bt = integrate(mu0, "forward", horizon, opts)
    mt = metric_flow.metric_flow_integrate(mu0, np.eye(mu0.dims.n), "forward", horizon, opts)
    t_end = min(abs(bt.t[-1]), abs(mt.t[-1]))
    singular = bt.verdict.kind == "blowup" or mt.verdict.kind == "blowup"
    grid = metric_flow._comparison_grid(metric_flow.COVERAGE * t_end if singular else t_end)
    n = mu0.dims.n
    gap = 0.0
    for t in grid:
        ric_b = _ricci_from_tensor(bt.dense(t).reshape(mu0.c.shape), 0)
        eig_b = np.sort(np.linalg.eigvalsh(ric_b))
        ric_m = metric_flow._pushed_ric(mu0, mt.dense(t).reshape(n, n))[0]
        eig_m = np.sort(np.linalg.eigvalsh(ric_m))
        r_b, r_m = np.trace(ric_b), np.trace(ric_m)
        scale = max(1.0, abs(r_b), abs(r_m))
        gap = max(gap, abs(r_b - r_m) / scale)
        gap = max(gap, float(np.max(np.abs(eig_b - eig_m))) / scale)
    return gap


def antisymmetrized_by_mask(c: np.ndarray) -> np.ndarray:
    """The tensor `LieBracket` made from c by the earlier mask form: s = c on the pairs i < j
    and 0 elsewhere, then s - s^T in the first two slots (so a -0.0 entry mirrors to +0.0)."""
    d = c.shape[0]
    s = np.where(np.triu(np.ones((d, d), dtype=bool), k=1)[:, :, None], c, 0.0)
    return s - s.transpose(1, 0, 2)


def mirrored_basis_loops(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(upper, basis) by loops: the flat indices of the entries (i, j, k) with i < j in C order,
    and row a of the (m, d^3) basis +1 at upper[a] and -1 at its mirror (j, i, k)."""
    upper, basis = [], []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                row = np.zeros((d, d, d))
                row[i, j, k], row[j, i, k] = 1.0, -1.0
                upper.append((i * d + j) * d + k)
                basis.append(row.ravel())
    return np.array(upper, dtype=np.intp), np.array(basis).reshape(len(upper), d**3)


def ricci_table_polarized(d: int, q: int) -> np.ndarray:
    """Ricci coefficients Q[k, a, b], shape (rows, m, m), by the earlier polarization.

    Q[:, a, b] = (Ric(E_a + E_b) - Ric(E_a - E_b)) / 4 over every ordered pair
    of mirrored basis tensors, read off the GEMM kernel at the rows =
    n(n+1)/2 upper-triangle entries of Ric.
    """
    from bracketflow.curvature import _ricci_gemm

    upper, basis = mirrored_basis_loops(d)
    m = upper.size
    iu = np.triu_indices(d - q)
    e = basis.reshape(m, d, d, d)
    table = np.empty((len(iu[0]), m, m))
    for a in range(m):
        for b in range(m):
            plus = _ricci_gemm(e[a] + e[b], q)
            minus = _ricci_gemm(e[a] - e[b], q)
            table[:, a, b] = ((plus - minus) / 4)[iu]
    return table


def pi_table_folded(d: int, q: int) -> np.ndarray:
    """pi coefficients P[k, :, a], shape (rows, m, m), folded from the earlier n^2-row table.

    T[x, :, a] is the i < j half of -pi(diag(0, U_x)) E_a for each of the n^2
    unit matrices U_x; a symmetric Ric weighs U_ij and U_ji alike, so row k =
    (i, j) of P is T[i, j] + T[j, i] off the diagonal and T[i, i] on it.
    """
    from bracketflow.algebra import _pi_tensor

    upper, basis = mirrored_basis_loops(d)
    n, m = d - q, upper.size
    t = np.empty((n, n, m, m))
    for i in range(n):
        for j in range(n):
            unit = np.zeros((d, d))
            unit[q + i, q + j] = 1.0
            for a in range(m):
                t[i, j, :, a] = -_pi_tensor(unit, basis[a].reshape(d, d, d)).ravel()[upper]
    return np.array([t[i, j] + t[j, i] if i != j else t[i, i] for i, j in zip(*np.triu_indices(n))])


def trajectory_csv_per_value(traj, stride: int = 1) -> str:
    """The trajectory CSV as the writer made it before its one-template form: one format(x, ".17g") per value."""
    from bracketflow.scenario import CSV_HEADER

    rows = list(range(0, traj.n_samples, max(1, stride)))
    if rows[-1] != traj.n_samples - 1:
        rows.append(traj.n_samples - 1)
    lines = [CSV_HEADER]
    for k in rows:
        values = (traj.t[k], traj.mu_norm[k], traj.scalar_R[k], traj.tr_ric_sq[k], traj.jacobi_residual[k])
        lines.append(",".join(format(float(v), ".17g") for v in values))
    return "\n".join(lines) + "\n"
