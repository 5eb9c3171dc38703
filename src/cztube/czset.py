"""Constrained-zonotope algebra.

A constrained zonotope (CZ) is the set {G xi + c : ||xi||_inf <= 1,
A xi = b}.  CZs are closed under affine maps, Minkowski sums and
intersections, which makes them the working currency for every set
computation in this package.  All predicates (support, containment,
emptiness) reduce to linear programs over the latent box intersected
with the equality constraints.

Warm starts, the one statement of the package's policy: each set has
one canonical simplex basis (``ConstrainedZonotope.basis``), the optimal
basis of its support LP in the min-cost direction
(``min_cost_direction``), the LP that settles its emptiness.  The tube
recursions and ``landing.build_control_set`` settle it, and a tube file
stores it.  Every LP on a set (emptiness, or support in any direction)
starts from the one basis recorded when the set was made (``_start``),
unless it continues from an earlier query (below).  That basis is
derived from the bases of its operands: a slice's extends its parent's,
dual feasible in the min-cost direction; an affine image's and a
translate's is its source's, primal feasible in every direction; an
intersection's joins its operands', dual feasible in the min-cost
direction.  Any other set records none, and its LPs run cold, as do
containment LPs.  The online LPs are LPs on such sets (the horizon
scan's and the divert footprint's slices, the decision-deferral
intersections), and the one-step LP starts from the next tube set's and
the control set's bases joined (``guidance._OneStepModel``).

Two families of LPs continue from the queries before them.  A set's
support LPs are copies of one program (``_support_lp``), and the LP
layer runs a thread's consecutive ones on one HiGHS model
(``lp.linprog``).  The first two start from ``_start``; each later one
continues from the optimum of the query before it, which stays primal
feasible for new costs, so a sweep of neighbouring directions (a divert
footprint, an interval hull) pays a short improvement per direction
instead of a full repair.  The horizon scan's slice LPs on a set
(``slice_min_cost``) form one family per pinned (dims, tol): the same
rows and costs, other pinned right-hand sides.  The family's first LP
starts from the slice's ``_start``; each later one starts from the
optimal basis of the family's last LP that ended optimal, which stays
dual feasible for a new right-hand side, so dual simplex repairs only
the pinned rows.  So a set's support answers depend on the order of the
thread's consecutive support queries on that set, and a scan's costs on
the slice queries on that set before it, by rounding only.  No verdict
can change: a support LP on a nonempty set ends optimal, and one on an
empty set infeasible with a checked ray, whatever its start.  The same
sequence of queries repeats every answer bitwise.  The emptiness LP is
the min-cost support LP, and the code that makes a set for repeated
queries settles it first, on a model of its own.  Every other LP
(one-step and containment LPs) builds its own model from the start set
out above and reads no earlier query, so its answer depends on the set
and its start alone.

The work a query does depends on the queries before it in one more way,
which changes no value.  A set keeps the certified Farkas ray of each of
its slice LPs that ended infeasible (``slice_min_cost``, the horizon
scan's query), with the terms of its check that read only the family's
rows (``lp.farkas_ray``).  A kept ray that certifies a later slice's program, checked from those
terms and the pinned right-hand sides before the slice is built, settles
that slice as empty with no slice and no LP.  Such a program has no
point that meets its rows within ``lp.FEAS_TOL``, so its own LP could
not have ended optimal: a kept ray never changes a value or a
containing index.  Where that LP would have failed its checks instead,
a kept ray that passes settles the slice as empty rather than as a
numerical failure.
"""

from __future__ import annotations

import copy
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
    canonical_csr,
    farkas_ray,
    row_norms,
    row_scale,
    solve_lp,
)

RANK_TOL = 1e-10
CONTAIN_TOL = 1e-7

# Held while a memoized value is computed, so that threads which miss on
# the same key (Monte Carlo workers reaching the same tube set) compute
# it once; re-entrant in case a computation fills another set's memo.
_MEMO_LOCK = threading.RLock()


class EmptySetError(Exception):
    """A query that requires a nonempty set was made on an empty one.
    ``ray`` is the Farkas ray that proved the set empty
    (``lp.LpSolution.ray``), or None."""

    def __init__(self, message: str, ray: Optional[np.ndarray] = None):
        super().__init__(message)
        self.ray = ray


class NotFullDimensionalError(Exception):
    """Operation requires a full-dimensional set."""


def min_cost_direction(dim: int) -> np.ndarray:
    """Support direction of least cost-to-go, the last coordinate of the
    augmented state: the support LP in it minimizes the cost."""
    eta = np.zeros(dim)
    eta[-1] = -1.0
    return eta


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


class _SliceFamily:
    """What a set keeps of one (dims, tol) family of its slices
    (``ConstrainedZonotope.slice_min_cost``), whose support programs
    share their rows' matrix and column bounds and differ only in the
    pinned right-hand sides.

    ``basis`` is the HiGHS basis of the family's last optimal slice LP
    (``lp.LpSolution.highs_basis``), the start of its next one, or None.
    ``rays`` are the certified Farkas rays of its slice LPs that ended
    infeasible, each as the terms of its check that read only the
    family's rows and column bounds (``lp.FarkasRay``); the rest of what
    the check reads is kept once: the right-hand sides and row scales of
    the parent's rows, which every slice of the family shares, and the
    norms of the m pin rows."""

    __slots__ = ("parent_rhs", "parent_scale", "pin_norms", "rays", "basis")

    def __init__(self, program: LinearProgram, m: int):
        n = program.A.shape[0] - m
        self.parent_rhs = program.row_hi[:n]
        self.parent_scale = program.row_scale[:n]
        self.pin_norms = row_norms(program.A)[n:]
        self.rays = []
        self.basis = None

    def settle(self, pin_rhs: np.ndarray, rays) -> bool:
        """True iff one of rays proves empty the slice whose pin rows have
        right-hand sides pin_rhs: ``lp.farkas_certifies`` on its support
        program, with no slice built."""
        rhs = np.concatenate([self.parent_rhs, pin_rhs])
        scale = np.concatenate([self.parent_scale, row_scale(self.pin_norms, pin_rhs)])
        return any(ray.certifies(rhs, rhs, scale) for ray in rays)


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
    derived from a set are memoized on it (``cached``).  Per family of its
    slices it keeps the basis of the last slice LP that ended optimal,
    which starts the next, and the Farkas rays of its empty slices, which
    spare LPs (``slice_min_cost``); neither changes a verdict.  Every
    other LP on the set starts from ``_start``, which the operation that
    made the set records, and never from the set's own basis.
    """

    __slots__ = ("G", "c", "A", "b", "_cache", "_start", "_optimal_basis", "_slice_families")

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
            A = canonical_csr(A)
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
        # the start of every LP on this set, set once by the operation
        # that made it (``_offered_start``; ``slice_min_cost`` gives its
        # slice the family's last optimum); None runs them cold
        self._start = None
        # HiGHS's basis of the last support LP on this set that ended
        # optimal, which ``slice_min_cost`` keeps from its slices
        self._optimal_basis = None
        # the last optimal basis and the certified rays of this set's
        # slice LPs, per (dims, tol) family (``slice_min_cost``)
        self._slice_families = {}

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
            out._start = self._offered_start()
        return out

    def translate(self, t) -> "ConstrainedZonotope":
        out = ConstrainedZonotope(self.G, self.c + np.asarray(t, dtype=float).ravel(),
                                  self.A, self.b)
        out._start = self._offered_start()
        return out

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
        out = ConstrainedZonotope(G, self.c, A, b)
        # the operands' latents are all used, so none is pruned here.  In
        # the min-cost direction the second block has zero cost and the
        # basic coupling rows carry zero duals, so this start is dual
        # feasible when the operands' are
        first, second = self._offered_start(), other._offered_start()
        if first is not None and second is not None:
            out._start = LpBasis(first.cols + second.cols,
                                 first.rows + second.rows + (BASIC,) * self.dim)
        return out

    def slice(self, dims, values, tol: float = 0.0) -> "ConstrainedZonotope":
        """Pin coordinates to values; ambient dimension is kept.

        With tol > 0 each pinned coordinate is allowed a +-tol band,
        realized as one extra slack generator per pinned row.  A band
        narrower than SMALL_MATRIX_VALUE would be a coefficient the LP
        solver drops, so such a slice is built exact instead.

        The latent layout is the parent's with the m pin rows appended
        to A and, for a band, m band columns appended after the parent's
        latents.  The slice's LPs start from the parent's offered start
        (``_offered_start``), extended with the band columns basic and the
        pin rows nonbasic (for an exact slice: the pin rows basic).  In
        the min-cost direction that gives the pin rows zero dual weight
        and leaves every other dual and reduced cost as it was, so from
        the parent's optimal basis it is dual feasible whatever values
        are pinned, and dual simplex only repairs the pinned rows.
        """
        dims = np.asarray(dims, dtype=int)
        values = np.asarray(values, dtype=float).ravel()
        if dims.size != values.size:
            raise ValueError("slice index/value length mismatch")
        m = dims.size
        E = np.zeros((m, self.dim))
        E[np.arange(m), dims] = 1.0
        banded = tol >= SMALL_MATRIX_VALUE
        # A is the parent's rows followed by the pin rows [G[dims], -tol I]
        # ([G[dims]] when exact), appended to the parent's CSR arrays as
        # the pin rows' nonzeros
        pins = np.hstack([E @ self.G, -tol * np.eye(m)]) if banded else E @ self.G
        r, cols = np.nonzero(pins)
        P = self.A
        A = sp.csr_matrix(
            (np.concatenate([P.data, pins[r, cols]]),
             np.concatenate([P.indices, cols.astype(P.indices.dtype)]),
             np.concatenate([P.indptr, P.nnz + np.cumsum(np.bincount(r, minlength=m))])),
            shape=(P.shape[0] + m, pins.shape[1]),
        )
        G = np.hstack([self.G, np.zeros((self.dim, m))]) if banded else self.G
        out = ConstrainedZonotope(G, self.c, A, np.concatenate([self.b, values - self.c[dims]]))
        parent = self._offered_start()
        if parent is not None:
            out._start = (LpBasis(parent.cols + (BASIC,) * m, parent.rows + (NONBASIC,) * m)
                          if banded else LpBasis(parent.cols, parent.rows + (BASIC,) * m))
        return out

    def slice_min_cost(self, dims, values, tol: float = 0.0) -> Optional[float]:
        """The least cost-to-go (the last coordinate) over ``slice(dims,
        values, tol)``, or None when that slice is empty.

        The slices of one (dims, tol) family have the same rows and column
        bounds and differ only in the pinned right-hand sides, and the set
        keeps what their LPs found (``_SliceFamily``).  A Farkas ray that
        proved one of them empty may prove another empty too: each kept
        ray is checked against a new slice's program before the slice is
        built, by ``lp.farkas_certifies`` on that program with the terms
        that read only its rows kept from the ray's own slice.  A ray that
        passes proves that no point meets the program's rows within
        ``lp.FEAS_TOL``, so the answer is None with no slice and no LP.
        Otherwise the slice is built and its support LP runs as
        ``support`` runs it, from the optimal basis of the family's last
        LP that ended optimal, or from the slice's start when the family
        has none.  Only b differs between the slices, so that basis is
        dual feasible for this LP too, and dual simplex repairs only the
        pinned rows.  So a value depends on the slice LPs of the family
        before it, by rounding only; a verdict does not, as an optimal
        point passes the OPTIMAL recheck and a ray the Farkas check,
        whatever the start.  Kept rays decide which LPs run and settle as
        empty only a slice whose own LP would not have ended optimal.
        """
        dims = np.asarray(dims, dtype=int).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if dims.size != values.size:
            raise ValueError("slice index/value length mismatch")
        key = (tuple(dims.tolist()), float(tol))
        with _MEMO_LOCK:
            family = self._slice_families.get(key)
            rays = () if family is None else tuple(family.rays)
            start = None if family is None else family.basis
        if rays and family.settle(values - self.c[dims], rays):
            return None
        sliced = self.slice(dims, values, tol)
        if start is not None:
            sliced._start = start
        try:
            value = -sliced.support(min_cost_direction(self.dim))
        except EmptySetError as empty:
            if empty.ray is not None:
                program = sliced.cached("support_lp", sliced._support_program)
                ray = farkas_ray(program.A, program.lb, program.ub, empty.ray)
                with _MEMO_LOCK:
                    self._slice_family(key, program, dims.size).rays.append(ray)
            return None
        program = sliced.cached("support_lp", sliced._support_program)
        with _MEMO_LOCK:
            self._slice_family(key, program, dims.size).basis = sliced._optimal_basis
        return value

    def _slice_family(self, key, program: LinearProgram, m: int) -> _SliceFamily:
        """The record of the slice family under key, made from the support
        program of one of its slices when it is new; the caller holds
        _MEMO_LOCK."""
        family = self._slice_families.get(key)
        if family is None:
            family = self._slice_families[key] = _SliceFamily(program, m)
        return family

    def _offered_start(self) -> Optional[LpBasis]:
        """The start this set hands to the sets made from it: its own
        canonical basis once ``is_empty`` has settled it, else the start
        it was made with.  It is read once, when the new set is made, so
        no later query changes the new set's start."""
        return self.basis() or self._start

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
        from ``_start``.  When it ends optimal, its optimal basis
        is kept as the set's ``basis``.  An LP that settles nothing
        raises LpError naming its status."""
        return self.cached("emptiness", self._settle_emptiness)[0]

    def _settle_emptiness(self):
        """(empty, basis) from the min-cost support LP (``is_empty``)."""
        try:
            _, sol = self._support_solution(min_cost_direction(self.dim))
        except EmptySetError:
            return True, None
        return False, sol.basis

    def _support_lp(self, eta) -> LinearProgram:
        """The support LP in direction eta: a copy of the set's one support
        program, built once, with its own costs.  All copies share the
        program's rows, so the LP layer runs a thread's consecutive
        support queries on one set on one HiGHS model (``lp.linprog``),
        each from the optimum of the one before it."""
        prob = copy.copy(self.cached("support_lp", self._support_program))
        prob.c_obj = -(self.G.T @ eta)
        return prob

    def _support_program(self) -> LinearProgram:
        ones = np.ones(self.n_generators)
        return LinearProgram(np.zeros(self.n_generators), E=self.A, f=self.b, lb=-ones, ub=ones)

    def basis(self) -> Optional[LpBasis]:
        """The set's canonical basis: the optimal basis of the LP that
        settled ``is_empty``, so it depends on nothing but the set and
        its ``_start``.  None while emptiness is unsettled, for an empty
        set, and for a set with no generators (whose LP ``solve_lp``
        settles by inspection).

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
        sol = solve_lp(prob, basis=self._start)
        if sol.status == LpStatus.INFEASIBLE:
            raise EmptySetError("support query on an empty set", sol.ray)
        if sol.status != LpStatus.OPTIMAL:
            raise LpError(f"support LP ended with status {sol.status}")
        self._optimal_basis = sol.highs_basis
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
        yield the canonical empty set.  The tube recursions do not call
        it: the LP layer certifies its verdicts on such rows as built.
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
