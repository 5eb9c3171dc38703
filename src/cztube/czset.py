"""Constrained-zonotope algebra.

A constrained zonotope (CZ) is the set {G xi + c : ||xi||_inf <= 1,
A xi = b}.  CZs are closed under affine maps, Minkowski sums and
intersections, which makes them the working currency for every set
computation in this package.  All predicates (support, containment,
emptiness) reduce to linear programs over the latent box intersected
with the equality constraints.

Each set has one canonical simplex basis (``ConstrainedZonotope.basis``):
the optimal basis of its support LP in the min-cost direction
(``min_cost_direction``), the LP that settles its emptiness.  The support
LPs of its slices in that direction and of its affine images start from
it; every other support LP runs cold.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

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


def min_cost_direction(dim: int) -> np.ndarray:
    """Support direction of least cost-to-go, the last coordinate of the
    augmented state: the support LP in it minimizes the cost."""
    eta = np.zeros(dim)
    eta[-1] = -1.0
    return eta


def _canonical_csr(M) -> sp.csr_matrix:
    """M as a float CSR matrix in canonical form (duplicates summed, no
    stored zeros, sorted indices).  A sparse M in that form already is
    used as it is; any other is copied first, so M never changes."""
    if not sp.issparse(M):
        return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))
    A = M.tocsr()
    if A.dtype == np.float64 and A.has_canonical_format and A.data.all():
        return A
    A = sp.csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


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
    length n_e.  A is in canonical CSR form from construction
    (duplicates summed, no stored zeros, column indices sorted within
    each row), so a latent column that appears in neither G nor A is
    one with no stored entry, and is pruned at construction.  Instances
    are treated as immutable; every operation returns a new object, and
    no LP over a set changes its arrays.  Emptiness is settled by one
    LP, the min-cost support LP (``is_empty``), whose optimal basis is
    the set's one canonical basis (``basis``).  It and other values
    derived from a set are memoized on it (``cached``).
    """

    __slots__ = ("G", "c", "A", "b", "_cache", "_slice_of", "_image_of")

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
            A = _canonical_csr(A)
            b = np.asarray(b, dtype=float).ravel()
        if A.shape[1] != n_g:
            raise ValueError("latent constraint column count does not match generators")
        if A.shape[0] != b.size:
            raise ValueError("latent constraint row count does not match rhs")

        # prune latent columns unused by both G and A
        if n_g:
            used = np.abs(G).max(axis=0) > 0
            used[A.indices] = True
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
        # the set whose latent LP this one shares, when it is an affine
        # image that pruned no latent (``latent_basis``)
        self._image_of = None

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
        out = ConstrainedZonotope(R @ self.G, R @ self.c + r, self.A, self.b)
        if out.n_generators == self.n_generators:
            out._image_of = self if self._image_of is None else self._image_of
        return out

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
        latents; support LPs on the slice in the min-cost direction
        warm-start from the parent's basis (``_slice_basis``).
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
        or None when this set is no slice, eta is not the min-cost
        direction or the parent carries no basis (``basis``).

        The slice's min-cost support LP is the parent's plus the pin rows
        (and band columns, whose cost is zero).  The parent's optimal
        basis, extended with the band columns basic and the pin rows
        nonbasic (for an exact slice: the pin rows basic), gives the pin
        rows zero dual weight and leaves every other dual and reduced
        cost as it was.  It is therefore dual feasible whatever values
        are pinned, and dual simplex only repairs the pinned rows.  The
        parent's basis is canonical and the query only reads it, so the
        answer does not depend on which slices were queried before.
        """
        if self._slice_of is None or not np.array_equal(eta, min_cost_direction(self.dim)):
            return None
        parent, m, banded = self._slice_of
        base = parent.basis()
        if base is None:
            return None
        if banded:
            return LpBasis(base.cols + (BASIC,) * m, base.rows + (NONBASIC,) * m)
        return LpBasis(base.cols, base.rows + (BASIC,) * m)

    def latent_basis(self) -> Optional[LpBasis]:
        """An optimal basis of this set's latent LP, or None.

        It is the set's ``basis``; an affine image that pruned no latent
        (``affine_map``, ``project``) has the same latent LP and reads its
        source's.  Every support LP of the set and of those images has
        the same rows and bounds and differs only in its objective, so
        this basis is primal feasible for each of them.
        """
        source = self if self._image_of is None else self._image_of
        return source.basis()

    def _start_basis(self, eta):
        """Starting basis of the support LP in direction eta: the slice's
        dual feasible one (``_slice_basis``), or an image's primal
        feasible one (``latent_basis``), or None (a cold solve)."""
        if self._image_of is not None:
            return self.latent_basis()
        return self._slice_basis(eta)

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

    def is_empty(self) -> bool:
        """True iff the set is empty, settled once by one LP: the support
        LP in the min-cost direction (``min_cost_direction``), started
        from ``_start_basis``.  When it ends optimal, its optimal basis
        is kept as the set's ``basis``.  An LP that settles nothing
        raises LpError naming its status."""
        return self.cached("emptiness", self._settle_emptiness)[0]

    def _settle_emptiness(self):
        """(empty, basis) from the min-cost support LP (``is_empty``)."""
        eta = min_cost_direction(self.dim)
        sol = solve_lp(self._support_lp(eta), basis=self._start_basis(eta))
        if sol.status == LpStatus.INFEASIBLE:
            return True, None
        if sol.status != LpStatus.OPTIMAL:
            raise LpError(f"emptiness LP ended with status {sol.status}")
        return False, sol.basis

    def _support_lp(self, eta) -> LinearProgram:
        ones = np.ones(self.n_generators)
        return LinearProgram(-(self.G.T @ eta), E=self.A, f=self.b, lb=-ones, ub=ones)

    def basis(self) -> Optional[LpBasis]:
        """The set's canonical basis: the optimal basis of the LP that
        settled ``is_empty``, so it depends on nothing but the set.  None
        while emptiness is unsettled, for an empty set, and for a set
        with no generators (whose LP ``solve_lp`` settles by inspection).

        It only reads, and never solves: queries never pay for the
        emptiness LP.  The code that makes a set for repeated queries
        (the tube recursions, ``landing.build_control_set``) settles it
        through ``is_empty``; ``tube.deserialize_tube`` restores it
        (``attach_basis``).
        """
        settled = self._cache.get("emptiness")
        return None if settled is None else settled[1]

    def attach_basis(self, basis: LpBasis) -> None:
        """Restore the basis that ``is_empty`` left on an equal set, such
        as one read back from a tube file.  An optimal basis exists only
        for a nonempty set, so this settles ``is_empty`` as False."""
        if (len(basis.cols), len(basis.rows)) != (self.n_generators, self.n_constraints):
            raise ValueError("basis does not match the set's support LP")
        self.cached("emptiness", lambda: (False, basis))

    def _support_solution(self, eta):
        eta = np.asarray(eta, dtype=float).ravel()
        if eta.size != self.dim:
            raise ValueError("direction dimension mismatch")
        prob = self._support_lp(eta)
        sol = solve_lp(prob, basis=self._start_basis(eta))
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

        # equalities: G Gamma_j = g_j and A Gamma_j = 0 for every j, and
        # each probe point is a feasible latent of Z: A xi^p = b
        G_m = sp.block_diag([sp.csr_matrix(self.G)] * m)
        E = sp.block_diag([
            sp.vstack([G_m, sp.block_diag([self.A] * m)]),
            sp.csr_matrix((0, off_p - ng_m)),  # T, s, xi_hat, h
            sp.block_diag([self.A] * P),
        ], format="csr")
        f = np.concatenate([np.concatenate(gens), np.zeros(n_e * m), np.tile(self.b, P)])
        In, I_gm = sp.eye(n_g), sp.eye(ng_m)
        pm_In = sp.vstack([In, -In])
        H = sp.bmat(
            [
                # |Gamma| <= T
                [I_gm, -I_gm, None, None, None, None],
                [-I_gm, -I_gm, None, None, None, None],
                # |xi_hat| <= h
                [None, None, None, In, -In, None],
                [None, None, None, -In, -In, None],
                # h_i + s_i + sum_j T_j,i <= 1
                [None, sp.hstack([In] * m), In, None, In, None],
                # probe point inside the contracted interval, per probe
                # and sign +-1: +-(xi^p - xi_hat) <= s
                [None, None, sp.vstack([-In] * (2 * P)), sp.vstack([-pm_In] * P),
                 None, sp.block_diag([pm_In] * P)],
            ],
            format="csr",
        )
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
