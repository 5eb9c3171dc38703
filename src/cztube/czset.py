"""Constrained-zonotope algebra.

A constrained zonotope (CZ) is the set {G xi + c : ||xi||_inf <= 1,
A xi = b}.  CZs are closed under affine maps, Minkowski sums and
intersections, which makes them the working currency for every set
computation in this package.  All predicates (support, containment,
emptiness) reduce to linear programs over the latent box intersected
with the equality constraints.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .lp import (
    BASIC,
    NONBASIC,
    SMALL_MATRIX_VALUE,
    LinearProgram,
    LpBasis,
    LpError,
    LpStatus,
    check_feasibility,
    solve_lp,
)

RANK_TOL = 1e-10
CONTAIN_TOL = 1e-7

# Held while a memoized value is computed, so that threads which miss on
# the same key (Monte Carlo workers reaching the same tube set) compute
# it once; re-entrant in case a computation fills another set's memo.
_MEMO_LOCK = threading.RLock()


class EmptySetError(Exception):
    """A query that requires a nonempty set was made on an empty one."""


class NotFullDimensionalError(Exception):
    """Operation requires a full-dimensional set."""


def _basis_key(eta):
    # + 0.0 turns -0.0 into 0.0, so equal directions share a key
    return ("support_basis", (eta + 0.0).tobytes())


def _csr(M, shape=None):
    if sp.issparse(M):
        return M.tocsr()
    if M is None:
        return sp.csr_matrix(shape)
    return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))


@dataclass
class Halfspace:
    """The set {x : normal' x <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=float).ravel()
        self.offset = float(self.offset)
        if not np.any(self.normal):
            raise ValueError("halfspace normal must be nonzero")


class ConstrainedZonotope:
    """CG-rep set {G xi + c : ||xi||_inf <= 1, A xi = b}.

    G is dense n x n_g, c is length n, A is sparse n_e x n_g, b is
    length n_e.  Instances are treated as immutable; every operation
    returns a new object.  Latent columns that appear in neither G nor
    A are pruned at construction.  Values derived from a set, such as
    the canonical simplex bases that warm-start queries on its slices,
    are memoized on it (``cached``).
    """

    __slots__ = ("G", "c", "A", "b", "_cache", "_slice_of")

    def __init__(self, G, c, A=None, b=None):
        c = np.asarray(c, dtype=float).ravel()
        n = c.size
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        G = np.asarray(G, dtype=float)
        if G.ndim != 2:
            G = G.reshape(n, -1)
        if G.shape[0] != n:
            raise ValueError("generator matrix row count does not match center")
        n_g = G.shape[1]
        if A is None:
            A = sp.csr_matrix((0, n_g))
            b = np.zeros(0)
        else:
            A = _csr(A, (0, n_g))
            b = np.asarray(b, dtype=float).ravel()
        if A.shape[1] != n_g:
            raise ValueError("latent constraint column count does not match generators")
        if A.shape[0] != b.size:
            raise ValueError("latent constraint row count does not match rhs")

        # prune latent columns unused by both G and A
        if n_g:
            used = np.abs(G).max(axis=0) > 0
            if A.shape[0]:
                col_nnz = np.diff(A.tocsc().indptr)
                used |= col_nnz > 0
            if not used.all():
                keep = np.flatnonzero(used)
                G = G[:, keep]
                A = A.tocsc()[:, keep].tocsr()
        self.G = np.ascontiguousarray(G)
        self.c = c
        self.A = A
        self.b = b
        self._cache = {}
        # (parent, pinned rows, banded) when this set is parent.slice(...)
        self._slice_of = None

    # -- representation queries ------------------------------------------

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def n_generators(self) -> int:
        return self.G.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.A.shape[0]

    def cached(self, key, compute):
        """compute(), memoized on this set under key.

        Only for values that are a pure function of the set and of what
        key names; sets are immutable, so such a value never goes stale.
        Each value is computed once, also when threads miss together.
        """
        try:
            return self._cache[key]
        except KeyError:
            pass
        with _MEMO_LOCK:
            if key not in self._cache:
                self._cache[key] = compute()
            return self._cache[key]

    def __repr__(self):
        return (
            f"ConstrainedZonotope(dim={self.dim}, n_g={self.n_generators}, "
            f"n_e={self.n_constraints})"
        )

    @staticmethod
    def empty(dim: int) -> "ConstrainedZonotope":
        """Canonical empty set: no generators, one unsatisfiable row."""
        return ConstrainedZonotope(
            np.zeros((dim, 0)), np.zeros(dim), sp.csr_matrix((1, 0)), np.ones(1)
        )

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_box(lower, upper) -> "ConstrainedZonotope":
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.size != upper.size:
            raise ValueError("box bound length mismatch")
        if np.any(lower > upper):
            raise ValueError("box lower bound exceeds upper bound")
        half = (upper - lower) / 2.0
        return ConstrainedZonotope(np.diag(half), (upper + lower) / 2.0)

    @staticmethod
    def from_vertices(vertices) -> "ConstrainedZonotope":
        """Convex hull of a point list, via barycentric latent coordinates."""
        V = np.column_stack([np.asarray(v, dtype=float).ravel() for v in vertices])
        n, k = V.shape
        A = sp.csr_matrix(np.ones((1, k)))
        return ConstrainedZonotope(V / 2.0, V.sum(axis=1) / 2.0, A, np.array([2.0 - k]))

    # -- exact set operations --------------------------------------------

    def affine_map(self, R, r=None) -> "ConstrainedZonotope":
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if R.shape[1] != self.dim:
            raise ValueError("map column count does not match set dimension")
        r = np.zeros(R.shape[0]) if r is None else np.asarray(r, dtype=float).ravel()
        return ConstrainedZonotope(R @ self.G, R @ self.c + r, self.A, self.b)

    def translate(self, t) -> "ConstrainedZonotope":
        return ConstrainedZonotope(self.G, self.c + np.asarray(t, dtype=float).ravel(),
                                   self.A, self.b)

    def minkowski_sum(self, other: "ConstrainedZonotope") -> "ConstrainedZonotope":
        if other.dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        G = np.hstack([self.G, other.G])
        A = sp.block_diag([self.A, other.A], format="csr")
        return ConstrainedZonotope(G, self.c + other.c, A, np.concatenate([self.b, other.b]))

    def intersect(self, other: "ConstrainedZonotope") -> "ConstrainedZonotope":
        if other.dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        n_g1, n_g2 = self.n_generators, other.n_generators
        G = np.hstack([self.G, np.zeros((self.dim, n_g2))])
        A = sp.bmat(
            [
                [self.A, None],
                [None, other.A],
                [sp.csr_matrix(self.G), sp.csr_matrix(-other.G)],
            ],
            format="csr",
        )
        b = np.concatenate([self.b, other.b, other.c - self.c])
        return ConstrainedZonotope(G, self.c, A, b)

    def intersect_affine(self, H, h) -> "ConstrainedZonotope":
        """Exact {x in Z : H x = h}."""
        H = np.atleast_2d(np.asarray(H, dtype=float))
        h = np.asarray(h, dtype=float).ravel()
        if H.shape[1] != self.dim:
            raise ValueError("affine-set column count does not match set dimension")
        A = sp.vstack([self.A, sp.csr_matrix(H @ self.G)], format="csr")
        b = np.concatenate([self.b, h - H @ self.c])
        return ConstrainedZonotope(self.G, self.c, A, b)

    def slice(self, dims, values, tol: float = 0.0) -> "ConstrainedZonotope":
        """Pin coordinates to values; ambient dimension is kept.

        With tol > 0 each pinned coordinate is allowed a +-tol band,
        realized as one extra slack generator per pinned row.  A band
        narrower than SMALL_MATRIX_VALUE would be a coefficient the LP
        solver drops, so such a slice is built exact instead.

        The latent layout is the parent's with the m pin rows appended
        to A and, for a band, m band columns appended after the parent's
        latents; support queries on the slice warm-start from it
        (``_slice_basis``).
        """
        dims = np.asarray(dims, dtype=int)
        values = np.asarray(values, dtype=float).ravel()
        if dims.size != values.size:
            raise ValueError("slice index/value length mismatch")
        E = np.zeros((dims.size, self.dim))
        E[np.arange(dims.size), dims] = 1.0
        m = dims.size
        banded = tol >= SMALL_MATRIX_VALUE
        if not banded:
            out = self.intersect_affine(E, values)
        else:
            G = np.hstack([self.G, np.zeros((self.dim, m))])
            rows = sp.hstack([sp.csr_matrix(E @ self.G), -tol * sp.eye(m, format="csr")])
            A = sp.bmat([[self.A, None], [None, sp.csr_matrix((0, m))]], format="csr")
            A = sp.vstack([A, rows], format="csr")
            b = np.concatenate([self.b, values - E @ self.c])
            out = ConstrainedZonotope(G, self.c, A, b)
        out._slice_of = (self, m, banded)
        return out

    def _slice_basis(self, eta):
        """Starting basis for this slice's support LP in direction eta,
        or None when this set is no slice or its parent carries no
        support basis in direction eta (``support_basis``).

        The slice's support LP is the parent's plus the pin rows (and
        band columns, whose cost is zero).  The parent's optimal basis,
        extended with the band columns basic and the pin rows nonbasic
        (for an exact slice: the pin rows basic), gives the pin rows zero
        dual weight and leaves every other dual and reduced cost as it
        was.  It is therefore dual feasible whatever values are pinned,
        and dual simplex only repairs the pinned rows.  The parent's
        basis is canonical and the query only reads it, so the answer
        does not depend on which slices were queried before.
        """
        if self._slice_of is None:
            return None
        parent, m, banded = self._slice_of
        base = parent.support_basis(eta, compute=False)
        if base is None:
            return None
        if banded:
            return LpBasis(base.cols + (BASIC,) * m, base.rows + (NONBASIC,) * m)
        return LpBasis(base.cols, base.rows + (BASIC,) * m)

    def project(self, dims) -> "ConstrainedZonotope":
        dims = np.asarray(dims, dtype=int)
        E = np.zeros((dims.size, self.dim))
        E[np.arange(dims.size), dims] = 1.0
        return self.affine_map(E)

    def intersect_halfspace(self, hs: Halfspace) -> "ConstrainedZonotope":
        """Exact {x in Z : eta' x <= f} via one slack generator."""
        eta = hs.normal
        if eta.size != self.dim:
            raise ValueError("halfspace dimension mismatch")
        f = hs.offset
        hi = self.support(eta)
        if f >= hi:
            return self
        lo = -self.support(-eta)
        if f < lo:
            return ConstrainedZonotope.empty(self.dim)
        # slack band slightly below the true minimum; the extra width is
        # vacuous since eta'x >= lo already holds on Z
        lo -= 1e-9 * max(1.0, abs(lo))
        half = (f - lo) / 2.0
        mid = (f + lo) / 2.0 - eta @ self.c
        row_G = eta @ self.G
        G = np.hstack([self.G, np.zeros((self.dim, 1))])
        A = sp.bmat([[self.A, None], [None, sp.csr_matrix((0, 1))]], format="csr")
        A = sp.vstack(
            [A, sp.csr_matrix(np.concatenate([row_G, [-half]])[None, :])], format="csr"
        )
        b = np.concatenate([self.b, [mid]])
        return ConstrainedZonotope(G, self.c, A, b)

    # -- LP-backed queries -----------------------------------------------

    def _latent_lp(self, c_obj) -> LinearProgram:
        n_g = self.n_generators
        return LinearProgram(
            c_obj, E=self.A, f=self.b, lb=-np.ones(n_g), ub=np.ones(n_g)
        )

    def is_empty(self, eta=None) -> bool:
        """True iff the set is empty.  A feasibility LP decides it, or,
        when eta is given, the support LP in direction eta, whose solve
        also leaves the set's canonical basis in direction eta memoized
        (``support_basis``)."""
        if eta is not None:
            self.support_basis(eta)

        def solve():
            sol = check_feasibility(self._latent_lp(np.zeros(self.n_generators)))
            if sol.status == LpStatus.NUMERICAL_FAILURE:
                raise LpError("emptiness check failed numerically")
            return sol.status == LpStatus.INFEASIBLE

        return self.cached("empty", solve)

    def _support_lp(self, eta) -> LinearProgram:
        return self._latent_lp(-(self.G.T @ eta))

    def support_basis(self, eta, compute: bool = True):
        """Canonical optimal basis of the support LP in direction eta, or
        None when that LP has no variables or no optimum.

        The basis is the one a cold solve ends on, memoized on the set,
        so it depends on nothing but the set and eta.  Queries ask with
        compute=False, which only reads the memo: they never pay for the
        cold solve.  The code that makes a set for repeated queries (the
        tube recursions, ``tube.deserialize_tube``) computes the basis,
        through ``is_empty(eta)``, or restores it
        (``attach_support_basis``).  The solve's verdict also settles
        ``is_empty``.
        """
        eta = np.asarray(eta, dtype=float).ravel()
        key = _basis_key(eta)
        if not compute:
            return self._cache.get(key)

        def solve():
            if self.n_generators == 0:
                return None
            sol = solve_lp(self._support_lp(eta))
            if sol.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE):
                self._cache.setdefault("empty", sol.status == LpStatus.INFEASIBLE)
            return sol.basis if sol.status == LpStatus.OPTIMAL else None

        return self.cached(key, solve)

    def attach_support_basis(self, eta, basis: LpBasis) -> None:
        """Memoize a basis that ``support_basis(eta)`` computed for an
        equal set, such as one read back from a tube file.  An optimal
        basis exists only for a nonempty set, which settles ``is_empty``."""
        if (len(basis.cols), len(basis.rows)) != (self.n_generators, self.n_constraints):
            raise ValueError("basis does not match the set's support LP")
        self.cached(_basis_key(np.asarray(eta, dtype=float).ravel()), lambda: basis)
        self._cache.setdefault("empty", False)

    def _support_solution(self, eta):
        eta = np.asarray(eta, dtype=float).ravel()
        if eta.size != self.dim:
            raise ValueError("direction dimension mismatch")
        prob = self._support_lp(eta)
        sol = solve_lp(prob, basis=self._slice_basis(eta))
        if sol.status == LpStatus.INFEASIBLE:
            raise EmptySetError("support query on an empty set")
        if sol.status != LpStatus.OPTIMAL:
            raise LpError(f"support LP ended with status {sol.status}")
        return eta, sol

    def support(self, eta) -> float:
        eta, sol = self._support_solution(eta)
        return float(-sol.objective_value + eta @ self.c)

    def extreme_point(self, eta) -> np.ndarray:
        _, sol = self._support_solution(eta)
        return self.G @ sol.x_opt + self.c

    def contains_point(self, y, tol: float = CONTAIN_TOL) -> bool:
        """True iff some feasible latent maps within tol (inf-norm) of y."""
        y = np.asarray(y, dtype=float).ravel()
        if y.size != self.dim:
            raise ValueError("point dimension mismatch")
        r = self.containment_residual(y)
        return r is not None and r <= tol

    def containment_residual(self, y):
        """Minimal inf-norm distance from y to the set, None if empty."""
        y = np.asarray(y, dtype=float).ravel()
        n_g, n = self.n_generators, self.dim
        # variables (xi, t): minimize t s.t. |G xi + c - y| <= t, latent feasible
        c_obj = np.zeros(n_g + 1)
        c_obj[-1] = 1.0
        E = sp.hstack([self.A, sp.csr_matrix((self.A.shape[0], 1))], format="csr")
        Gs = sp.csr_matrix(self.G)
        ones = sp.csr_matrix(np.ones((n, 1)))
        H = sp.vstack(
            [sp.hstack([Gs, -ones]), sp.hstack([-Gs, -ones])], format="csr"
        )
        g = np.concatenate([y - self.c, self.c - y])
        lb = np.concatenate([-np.ones(n_g), [0.0]])
        ub = np.concatenate([np.ones(n_g), [np.inf]])
        sol = solve_lp(LinearProgram(c_obj, E, self.b, H, g, lb, ub))
        if sol.status == LpStatus.INFEASIBLE:
            return None
        if sol.status != LpStatus.OPTIMAL:
            raise LpError(f"containment LP ended with status {sol.status}")
        return float(sol.objective_value)

    def interval_hull(self):
        lo = np.empty(self.dim)
        hi = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            hi[i] = self.support(e)
            lo[i] = -self.support(-e)
        return lo, hi

    # -- normalization ---------------------------------------------------

    def minrow_normalize(self) -> "ConstrainedZonotope":
        """Reduce the latent equalities to linearly independent rows.

        Inconsistent dependent rows (b outside the column space of A)
        yield the canonical empty set.
        """
        n_e, n_g = self.A.shape
        if n_e == 0:
            return self
        # cheap full-rank certificate via the Gram matrix
        gram = (self.A @ self.A.T).toarray()
        eig = np.linalg.eigvalsh(gram)
        if n_e <= n_g and eig[0] > (1e-8 ** 2) * max(eig[-1], 1e-300):
            return self
        M = np.hstack([self.A.toarray(), -self.b[:, None]])
        sA = scipy.linalg.svdvals(M[:, :n_g])
        rank_A = int(np.sum(sA > RANK_TOL * sA[0])) if sA.size and sA[0] > 0 else 0
        U, s, Vt = scipy.linalg.svd(M, full_matrices=False)
        rank_M = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
        if rank_M > rank_A:
            return ConstrainedZonotope.empty(self.dim)
        if rank_M == n_e:
            return self
        R = s[:rank_M, None] * Vt[:rank_M]
        norms = np.linalg.norm(R, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        R = R / norms
        return ConstrainedZonotope(
            self.G, self.c, sp.csr_matrix(R[:, :n_g]), -R[:, n_g]
        )

    def is_full_dimensional(self) -> bool:
        """True iff {G d : A d = 0} spans the ambient space."""
        n_g = self.n_generators
        if n_g < self.dim:
            return False
        if self.A.shape[0] == 0:
            basis = self.G
        else:
            ns = scipy.linalg.null_space(self.A.toarray(), rcond=RANK_TOL)
            if ns.shape[1] == 0:
                return False
            basis = self.G @ ns
        s = scipy.linalg.svdvals(basis)
        if s.size == 0 or s[0] == 0:
            return False
        return int(np.sum(s > RANK_TOL * s[0])) == self.dim

    # -- erosion ---------------------------------------------------------

    def pontryagin_difference(self, generators) -> "ConstrainedZonotope":
        """Inner approximation of Z minus a centered zonotope.

        The subtrahend is given as a list of generator vectors (center
        zero).  Each generator g_j is absorbed into the latent space as
        a direction Gamma_j with G Gamma_j = g_j and A Gamma_j = 0; the
        latent box then contracts, per coordinate, to an interval
        [xi_hat_i - s_i, xi_hat_i + s_i] leaving room d_i = sum_j
        |Gamma_j,i| on both sides.  A single LP chooses the absorption
        directions, the contraction, and one feasible latent point per
        probe direction, maximizing the supports of the result along
        the probe directions (the coordinate axes) so the contraction
        concentrates on latents the set does not need.

        Soundness: any w = sum_j a_j g_j in W (|a_j| <= 1) maps to
        Gamma(w) = sum_j a_j Gamma_j with |Gamma(w)_i| <= d_i and
        A Gamma(w) = 0, so x in the result implies x + w in Z.  The
        result may be empty even when the true difference is not.  It is
        empty only when the LP is certified infeasible; any other
        failure raises LpError.
        """
        gens = [np.asarray(g, dtype=float).ravel() for g in generators]
        gens = [g for g in gens if np.any(g)]
        if not gens:
            return self
        n, n_g, n_e = self.dim, self.n_generators, self.n_constraints
        for g in gens:
            if g.size != n:
                raise ValueError("subtrahend generator dimension mismatch")
        if not self.is_full_dimensional():
            raise NotFullDimensionalError(
                "Pontryagin difference requires a full-dimensional minuend"
            )
        m = len(gens)
        eye_n = np.eye(n)
        probes = [sgn * eye_n[i] for i in range(n) for sgn in (1.0, -1.0)]
        P = len(probes)
        # variables: Gamma (n_g*m generator preimages), T (n_g*m bounds on
        # |Gamma|), s (n_g latent half-widths), xi_hat (n_g latent center),
        # h (n_g bounds on |xi_hat|), xi^p (n_g per probe direction)
        ng_m = n_g * m
        off_T = ng_m
        off_s = 2 * ng_m
        off_hat = off_s + n_g
        off_h = off_hat + n_g
        off_p = off_h + n_g
        nv = off_p + P * n_g

        # maximize supports along the probes, normalized by the parent
        # extent so every direction counts equally; small bonus on the
        # latent half-widths keeps unprobed directions from pinching
        hull_lo, hull_hi = self.interval_hull()
        scale = np.maximum(np.maximum(hull_hi - self.c, self.c - hull_lo), 1e-9)
        c_obj = np.zeros(nv)
        for p_idx, eta in enumerate(probes):
            sc = float(max(np.abs(eta) @ scale, 1e-9))
            c_obj[off_p + p_idx * n_g : off_p + (p_idx + 1) * n_g] = -(
                eta @ self.G
            ) / sc
        w_reg = np.linalg.norm(self.G, axis=0)
        w_reg = w_reg + 1e-6 * max(float(w_reg.max()), 1.0)
        c_obj[off_s : off_s + n_g] = -0.01 * w_reg / w_reg.sum()

        Gs = sp.csr_matrix(self.G)
        eq_rows = [sp.block_diag([Gs] * m, format="csr")]
        f_parts = [np.concatenate(gens)]
        if n_e:
            eq_rows.append(sp.block_diag([self.A] * m, format="csr"))
            f_parts.append(np.zeros(n_e * m))
        E_left = sp.vstack(eq_rows, format="csr") if n_e else eq_rows[0]
        E = sp.hstack(
            [E_left, sp.csr_matrix((E_left.shape[0], nv - ng_m))], format="csr"
        )
        if n_e:
            # each probe point is a feasible latent of Z: A xi^p = b
            probe_eq = sp.hstack(
                [
                    sp.csr_matrix((P * n_e, off_p)),
                    sp.block_diag([self.A] * P, format="csr"),
                ],
                format="csr",
            )
            E = sp.vstack([E, probe_eq], format="csr")
            f_parts.append(np.tile(self.b, P))
        f = np.concatenate(f_parts)

        I_m = sp.eye(ng_m, format="csr")
        In = sp.eye(n_g, format="csr")

        def zeros(r, c):
            return sp.csr_matrix((r, c))

        S_T = sp.hstack([In] * m, format="csr")
        H_rows = [
            # |Gamma| <= T
            sp.hstack([I_m, -I_m, zeros(ng_m, nv - 2 * ng_m)], format="csr"),
            sp.hstack([-I_m, -I_m, zeros(ng_m, nv - 2 * ng_m)], format="csr"),
            # |xi_hat| <= h
            sp.hstack(
                [zeros(n_g, off_hat), In, -In, zeros(n_g, nv - off_p)], format="csr"
            ),
            sp.hstack(
                [zeros(n_g, off_hat), -In, -In, zeros(n_g, nv - off_p)], format="csr"
            ),
            # h_i + s_i + sum_j T_j,i <= 1
            sp.hstack(
                [zeros(n_g, ng_m), S_T, In, zeros(n_g, n_g), In, zeros(n_g, nv - off_p)],
                format="csr",
            ),
        ]
        for p_idx in range(P):
            # probe point inside the contracted interval: |xi^p - xi_hat| <= s
            before = off_p + p_idx * n_g
            for sign in (1.0, -1.0):
                H_rows.append(
                    sp.hstack(
                        [
                            zeros(n_g, off_s),
                            -In,
                            -sign * In,
                            zeros(n_g, before - off_h),
                            sign * In,
                            zeros(n_g, nv - before - n_g),
                        ],
                        format="csr",
                    )
                )
        H = sp.vstack(H_rows, format="csr")
        g_rhs = np.concatenate(
            [np.zeros(2 * ng_m + 2 * n_g), np.ones(n_g), np.zeros(2 * P * n_g)]
        )
        lb = np.concatenate(
            [
                np.full(ng_m, -np.inf),  # Gamma
                np.zeros(ng_m),  # T
                np.zeros(n_g),  # s
                np.full(n_g, -np.inf),  # xi_hat
                np.zeros(n_g),  # h
                -np.ones(P * n_g),  # probe points stay in the latent box
            ]
        )
        ub = np.concatenate(
            [
                np.full(2 * ng_m, np.inf),
                np.ones(n_g),  # s <= 1
                np.full(2 * n_g, np.inf),
                np.ones(P * n_g),
            ]
        )
        sol = solve_lp(LinearProgram(c_obj, E, f, H, g_rhs, lb, ub), method="highs-ipm")
        if sol.status == LpStatus.INFEASIBLE:
            return ConstrainedZonotope.empty(n)
        if sol.status != LpStatus.OPTIMAL:
            raise LpError(f"erosion LP ended with status {sol.status}")
        s = np.clip(sol.x_opt[off_s : off_s + n_g], 0.0, 1.0)
        xi_hat = sol.x_opt[off_hat : off_hat + n_g]
        A_scaled = self.A @ sp.diags(s) if n_e else self.A
        return ConstrainedZonotope(
            self.G * s, self.c + self.G @ xi_hat, A_scaled, self.b - self.A @ xi_hat
        )
