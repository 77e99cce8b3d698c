"""Weighted basis pursuit: minimize ||x||_{1,w} subject to Ax = b.

The program is solved exactly as the linear program

    min  sum_j w_j (u_j + v_j)   s.t.  A(u - v) = b,  u, v >= 0,

via the in-repo interior point method, after two preprocessing passes:

* an SVD of A detects infeasibility, drops redundant rows, and handles the
  fully determined case (rank d) without an LP at all;
* zero-weight columns (allowed: the all-or-nothing weight strategy needs
  them) are eliminated as free variables by restricting the constraints to
  the orthogonal complement of their range, since the interior point
  iteration requires a strictly positive cost on every LP variable pair.

Every optimal solve carries a dual certificate y with |A^T y|_j <= w_j and
equality w_j sign(x_j) on the support of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np
from scipy.linalg import null_space

from wbp.ipm import solve_lp

_RESIDUAL_SCALE_TOL = 1e-8  # infeasibility detection, relative to ||b||
_TIGHT_SLACK = 1e-7  # relative dual slack at which a column counts as tight
_EXACT_FIT = 1e-13  # relative residual at which A_S x_S = b counts as exact


class SolverError(RuntimeError):
    """Raised when the interior point iteration fails to converge."""


@dataclass(frozen=True)
class BPProblem:
    """One weighted basis pursuit instance: measurements, data, expanded weights."""

    A: np.ndarray
    b: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d matrix")
        m, d = A.shape
        if b.shape != (m,):
            raise ValueError(f"b must have shape ({m},), got {b.shape}")
        if w.shape != (d,):
            raise ValueError(f"w must have shape ({d},), got {w.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(w))):
            raise ValueError("A, b, w must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


@dataclass
class BPSolution:
    """Solver output: the minimizer (if any), its objective, and certificates.

    status is one of ``optimal``, ``infeasible``, ``degenerate-weights``
    (solved, but some weight is zero so the minimizer may be non-unique).
    ``y`` is a dual certificate in the original row space; ``gap`` the final
    relative duality gap of the LP (0.0 on the LP-free paths).
    """

    x_hat: Optional[np.ndarray]
    objective: float
    status: str
    y: Optional[np.ndarray]
    gap: float
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "degenerate-weights")


def _certificate(A, b, w, x, y):
    """Worst relative KKT residual of the pair (x, y) for min w.|x| s.t. Ax=b."""
    rel_primal = np.linalg.norm(A @ x - b) / (1.0 + np.linalg.norm(b))
    dual_violation = max(float(np.max(np.abs(A.T @ y) - w)), 0.0) / (1.0 + float(w.max()))
    objective = float(w @ np.abs(x))
    gap = max(objective - float(b @ y), 0.0) / (1.0 + abs(objective))
    return max(rel_primal, dual_violation, gap), gap


def _face_fit(A, b, face):
    """Least-squares solution of A_S x_S = b on the columns ``face``, zero elsewhere."""
    x = np.zeros(A.shape[1])
    x[face] = np.linalg.lstsq(A[:, face], b, rcond=None)[0]
    return x


def _face_pair(A, b, w, face):
    """Primal-dual pair on the face S = ``face``: x_S fits b, y closes the face.

    y solves A_S^T y = w_S sign(x_S) and minimizes t = max_{j not in S}
    |a_j^T y| / w_j; the pair is exact when t <= 1.  With y = y0 + N u and N
    spanning null(A_S^T), that is the Chebyshev problem min_u ||c + B u||_inf
    over c_j = a_j^T y0 / w_j and B_j = a_j^T N / w_j.  Its LP dual

        min c.(l+ - l-)  s.t.  B^T (l+ - l-) = 0,  1.(l+ + l-) + s = 1,  l+, l-, s >= 0

    is in standard form, and the interior point solve of it returns (-u, -t)
    as its dual variables.
    """
    x = _face_fit(A, b, face)
    A_s = A[:, face]
    y = np.linalg.lstsq(A_s.T, w[face] * np.sign(x[face]), rcond=None)[0]
    N = null_space(A_s.T)
    if N.shape[1]:
        off = np.ones(A.shape[1], dtype=bool)
        off[face] = False
        B = (A[:, off].T @ N) / w[off, None]
        c = (A[:, off].T @ y) / w[off]
        n, p = B.shape
        G = np.block([[B.T, -B.T, np.zeros((p, 1))], [np.ones((1, 2 * n + 1))]])
        rhs = np.zeros(p + 1)
        rhs[p] = 1.0
        y = y - N @ solve_lp(np.concatenate([c, -c, [0.0]]), G, rhs).y[:p]
    return x, y


def _face_crossover(A, b, w, y, tol):
    """Certified vertex pair for an iterate that stalled near an optimal face.

    On primal-degenerate vertices with a tiny nonzero the normal equations
    lose rank and the iteration settles just short of the certificate.
    ``T``, the columns where the dual is tight, then marks the optimal face
    up to a column or two.  Candidate faces, in order: T grown one column at
    a time by the largest |a_j^T r| / w_j of the fit residual r until
    A_S x_S = b is exact; then T plus one further column, walking down the
    dual-slack order.  Each is closed by :func:`_face_pair`, and the first
    pair whose certificate is within ``tol`` is returned (None if none is).
    """
    slack = 1.0 - np.abs(A.T @ y) / w
    order = np.argsort(slack, kind="stable")
    n_tight = int(np.count_nonzero(slack <= _TIGHT_SLACK))
    tight = order[:n_tight].tolist()
    grown = list(tight)
    residual = b - A @ _face_fit(A, b, grown)
    exact = _EXACT_FIT * (1.0 + np.linalg.norm(b))
    while np.linalg.norm(residual) > exact and len(grown) < A.shape[0]:
        score = np.abs(A.T @ residual) / w
        score[grown] = -1.0
        grown.append(int(np.argmax(score)))
        residual = b - A @ _face_fit(A, b, grown)
    for face in chain([grown], (tight + [j] for j in order[n_tight:].tolist())):
        pair = _face_pair(A, b, w, face)
        if _certificate(A, b, w, *pair)[0] <= tol:
            return pair
    return None


def _solve_reduced_lp(A, b, w, tol):
    """Interior point solve of min w.|x| s.t. Ax = b with all w > 0.

    The LP iterate is polished by an exact least-squares projection onto
    {Ax = b}, then the pair (x, y) is accepted on its own certificate:
    primal feasibility, dual feasibility, and the true duality gap
    w.|x| - b.y must all be <= tol (relative).  Iterates that stall just
    short of the tolerance are finished by :func:`_face_crossover`.
    """
    d = A.shape[1]
    G = np.hstack([A, -A])
    c = np.concatenate([w, w])
    # run the iteration one order tighter than the acceptance tolerance:
    # the pair certificate re-measures the gap after the primal projection,
    # which can cost up to ||y|| times the unprojected primal residual
    res = solve_lp(c, G, b, tol=0.1 * tol)
    x = res.z[:d] - res.z[d:]
    residual = b - A @ x
    if np.any(residual):
        x = x + np.linalg.lstsq(A, residual, rcond=None)[0]
    y = res.y

    cert, gap = _certificate(A, b, w, x, y)
    if cert > tol:
        pair = _face_crossover(A, b, w, y, tol)
        if pair is None:
            raise SolverError(
                f"interior point iteration stalled (worst relative KKT residual {cert:.2e})"
            )
        x, y = pair
        gap = _certificate(A, b, w, x, y)[1]
    return x, y, gap, res.iterations


def weighted_bp(problem: BPProblem, tol: float = 1e-8) -> BPSolution:
    """Solve (P1w) to duality gap <= tol, with infeasibility detection.

    Returns an infeasible status when b is outside the range of A; otherwise
    an exact minimizer with a dual certificate.  Zero weights are permitted
    and flagged via the ``degenerate-weights`` status.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    A, b, w = problem.A, problem.b, problem.w
    m, d = problem.m, problem.d

    # Row-space reduction: work with the rank-r system A_r x = b_r where
    # A_r = S V^T has orthonormal-combination rows U^T A.
    U, svals, Vt = np.linalg.svd(A, full_matrices=False)
    if svals.size and svals[0] > 0.0:
        rank = int(np.sum(svals > svals[0] * max(m, d) * np.finfo(float).eps))
    else:
        rank = 0
    U_r = U[:, :rank]
    A_r = svals[:rank, None] * Vt[:rank]
    b_r = U_r.T @ b
    if np.linalg.norm(b - U_r @ b_r) > _RESIDUAL_SCALE_TOL * (1.0 + np.linalg.norm(b)):
        return BPSolution(None, float("nan"), "infeasible", None, float("nan"), 0)

    degenerate = bool(np.any(w == 0.0))

    if rank == 0:
        # b ~ 0: x = 0 is feasible with the smallest possible objective.
        x = np.zeros(d)
        return BPSolution(x, 0.0, "degenerate-weights" if degenerate else "optimal",
                          np.zeros(m), 0.0, 0)

    if rank == d:
        # constraints determine x; certificate from the (invertible) reduced system
        x = Vt[:rank].T @ (b_r / svals[:rank])
        target = w * np.sign(np.where(np.abs(x) > 1e-12 * max(1.0, np.abs(x).max()), x, 0.0))
        y = U_r @ np.linalg.solve(A_r.T, target)
        objective = float(w @ np.abs(x))
        return BPSolution(x, objective, "degenerate-weights" if degenerate else "optimal",
                          y, 0.0, 0)

    if degenerate:
        x, y_r, gap, iters = _solve_zero_weight(A_r, b_r, w, tol)
        status = "degenerate-weights"
    else:
        x, y_r, gap, iters = _solve_reduced_lp(A_r, b_r, w, tol)
        status = "optimal"
    y = U_r @ y_r
    objective = float(w @ np.abs(x))
    return BPSolution(x, objective, status, y, gap, iters)


def _solve_zero_weight(A_r, b_r, w, tol):
    """Split off zero-weight columns as free variables, then solve the rest.

    With Z = {j : w_j = 0}, any component of x_Z in the range of A_Z is
    free, so the weighted objective only constrains x on N = Z^c through
    the projected system Q2^T A_N x_N = Q2^T b_r, where Q2 spans the
    orthogonal complement of range(A_Z).  The dual certificate lifts back
    as y = Q2 y_2, which automatically satisfies A_Z^T y = 0 = w_Z.
    """
    r = A_r.shape[0]
    zero = w == 0.0
    A_z = A_r[:, zero]
    U_z, sv_z, _ = np.linalg.svd(A_z, full_matrices=True)
    if sv_z.size and sv_z[0] > 0.0:
        rank_z = int(np.sum(sv_z > sv_z[0] * max(A_z.shape) * np.finfo(float).eps))
    else:
        rank_z = 0
    Q2 = U_z[:, rank_z:]

    if Q2.shape[1] == 0:
        # zero-weight columns already span the constraints: objective 0
        x_n = np.zeros(int((~zero).sum()))
        y_r = np.zeros(r)
        gap, iters = 0.0, 0
    else:
        A2 = Q2.T @ A_r[:, ~zero]
        b2 = Q2.T @ b_r
        x_n, y2, gap, iters = _solve_reduced_lp(A2, b2, w[~zero], tol)
        y_r = Q2 @ y2

    # cheapest completion on the free coordinates: least-norm solve of A_Z x_Z = residual
    resid = b_r - A_r[:, ~zero] @ x_n
    x_z = np.linalg.lstsq(A_z, resid, rcond=None)[0]
    x = np.zeros(w.size)
    x[~zero] = x_n
    x[zero] = x_z
    return x, y_r, gap, iters


def recovery_success(x_hat: np.ndarray, x0: np.ndarray, threshold: float = 0.001) -> bool:
    """Exact-recovery criterion: ||x_hat - x0||_2 <= threshold (inclusive)."""
    x_hat = np.asarray(x_hat, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x_hat.shape != x0.shape:
        raise ValueError("x_hat and x0 must share one shape")
    return bool(np.linalg.norm(x_hat - x0) <= threshold)


@dataclass(frozen=True)
class KKTReport:
    """Residuals of the optimality system for one solve.

    ``complementarity`` is the largest relative complementary-slackness
    product |x_j| * |(A^T y)_j - w_j sign(x_j)| / (1 + objective).  The
    product form is what the duality gap actually certifies; a max-residual
    form over a fixed support cutoff is not attainable at gap 1e-8 when the
    minimizer carries legitimately tiny coordinates.
    """

    primal_residual: float  # ||A x - b||_2
    dual_violation: float  # max_j (|A^T y|_j - w_j), <= 0 when dual feasible
    complementarity: float  # max relative slackness product, see above


def kkt_residuals(problem: BPProblem, solution: BPSolution) -> KKTReport:
    """Check the certificate: dual feasibility everywhere, slackness products near zero."""
    if solution.x_hat is None or solution.y is None:
        raise ValueError("KKT residuals require a solved instance")
    x, y = solution.x_hat, solution.y
    correlation = problem.A.T @ y
    primal = float(np.linalg.norm(problem.A @ x - problem.b))
    dual = float(np.max(np.abs(correlation) - problem.w))
    products = np.abs(x) * np.abs(correlation - problem.w * np.sign(x))
    comp = float(products.max() / (1.0 + abs(solution.objective)))
    return KKTReport(primal_residual=primal, dual_violation=dual, complementarity=comp)


# ---------------------------------------------------------------------------
# text round-trip formats used by the CLI (kept here with the data they carry)


def save_matrix(path, A) -> None:
    """Write a dense matrix as a `m,d` header line plus comma-separated rows."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{A.shape[0]},{A.shape[1]}\n")
        for row in A:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            m, d = (int(t) for t in header.split(","))
        except Exception as exc:
            raise ValueError(f"matrix header must be 'm,d', got {header!r}") from exc
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) != m:
        raise ValueError(f"matrix file declares {m} rows but contains {len(rows)}")
    A = np.array([[float(t) for t in row.split(",")] for row in rows])
    if A.shape != (m, d):
        raise ValueError(f"matrix rows do not match declared shape ({m},{d})")
    return A


def save_vector(path, v) -> None:
    """Write a vector as one comma-separated line (no header)."""
    v = np.asarray(v, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write(",".join(repr(float(x)) for x in v) + "\n")


def load_vector(path) -> np.ndarray:
    with open(path) as fh:
        text = fh.read().strip()
    if not text:
        raise ValueError(f"empty vector file {path!r}")
    return np.array([float(t) for t in text.replace("\n", ",").split(",") if t.strip()])
