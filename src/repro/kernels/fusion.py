"""Compiled stacked-GEMM contraction chains for the ADER-DG hot kernels.

Everything here is *plan time vs step time* separation: whatever does not
depend on the modal state is computed once and folded into flat arrays,
so each step-loop call is a handful of large contiguous GEMMs.

Predictor (:func:`fused_ck`)
    The Dubiner basis is orthonormal, so the modal derivative operator
    ``deriv[d, l, m]`` vanishes whenever ``deg(l) >= deg(m)`` — each
    Cauchy-Kowalewski level loses one polynomial degree exactly.  A
    degree-sorted mode permutation turns that into a *prefix* structure:
    level ``k`` lives in the first ``basis_size(N - k)`` permuted modes.
    The three directional operators of each level are truncated to that
    prefix and stacked into one ``(3*B_out, B_in)`` GEMM per level
    (order 3: 20 -> 10 -> 4 -> 1 modes, a ~4.4x FLOP reduction).

Volume (:func:`fused_volume_residual`)
    ``sum_d deriv[d]^T (I A*_d)`` evaluated as one batched state-Jacobian
    product plus a single ``(B, 3B)`` stacked stiffness GEMM — same
    FLOPs, three GEMM dispatches instead of nine.

Surface (:func:`fused_interior_residual` / :func:`fused_boundary_residual`)
    The quadrature projection ``E^T diag(w) (E I F^T) * scale`` commutes
    into ``(E^T diag(w) E) I (scale * F^T)``: the basis-side factor
    collapses to a per-orientation-class ``(B, B)`` matrix computed at
    plan time, and the per-face scale folds into the transposed Godunov
    flux matrices (``G`` arrays).  The face-quadrature dimension
    (``nfq > B`` for our rules) disappears from the step loop entirely.

Local time-stepping repeatedly calls the surface kernels with the same
per-cluster activity masks; the per-group masked selections are content-
addressed (SHA-1 of the mask bytes) and cached on the operator, so the
selection work happens once per cluster, not once per micro-step.

All results match the einsum/quadrature reference kernels of
``tests/reference_kernels.py`` up to floating-point reassociation (the
equivalence battery in ``tests/test_kernels.py`` pins this at ~1e-12
relative).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.basis import _tet_mode_indices, basis_size, get_reference_element
from ..obs.metrics import get_metrics

_MET = get_metrics()

__all__ = [
    "ElementKernelPlan",
    "element_plan",
    "fused_ck",
    "attach_fused_groups",
    "fused_volume_residual",
    "fused_interior_residual",
    "fused_boundary_residual",
    "MASK_CACHE_MAX",
]

#: masked sub-plan cache entries kept per operator and residual kind
#: (LTS produces one mask per cluster; 64 covers deep hierarchies)
MASK_CACHE_MAX = 64


# ----------------------------------------------------------------------
# element-local plan: degree truncation + stacked operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElementKernelPlan:
    """Per-order compiled operators shared by every fused kernel call.

    Attributes
    ----------
    order, nbasis:
        Polynomial degree and modal basis size.
    perm:
        Degree-sorted mode permutation: ``perm[i]`` is the original index
        of the ``i``-th mode in non-decreasing-degree order.
    sizes:
        ``basis_size(order - k)`` for ``k = 0..order`` — the permuted
        prefix length holding Cauchy-Kowalewski level ``k``.
    Dstacks:
        Per level, the ``(3 * sizes[k+1], sizes[k])`` stack of the three
        truncated directional derivative operators in permuted modes.
    DT:
        ``(B, 3B)`` stacked transposed stiffness operator of the volume
        kernel (original mode ordering).
    """

    order: int
    nbasis: int
    perm: np.ndarray
    sizes: tuple
    Dstacks: tuple
    DT: np.ndarray


@lru_cache(maxsize=None)
def element_plan(order: int) -> ElementKernelPlan:
    """Build (and cache) the fused element-kernel plan for one order."""
    ref = get_reference_element(order)
    nb = ref.nbasis
    degs = np.array([i + j + k for i, j, k in _tet_mode_indices(order)])
    perm = np.argsort(degs, kind="stable").astype(np.int64)
    derivP = np.stack([ref.deriv[d][np.ix_(perm, perm)] for d in range(3)])

    sizes = tuple(basis_size(order - k) for k in range(order + 1))
    Dstacks = []
    for k in range(order):
        n_in, n_out = sizes[k], sizes[k + 1]
        Dstacks.append(np.ascontiguousarray(
            np.vstack([derivP[d, :n_out, :n_in] for d in range(3)])
        ))

    DT = np.ascontiguousarray(np.hstack([ref.deriv[d].T for d in range(3)]))
    for arr in (perm, DT, *Dstacks):
        arr.setflags(write=False)
    return ElementKernelPlan(
        order=order, nbasis=nb, perm=perm, sizes=sizes,
        Dstacks=tuple(Dstacks), DT=DT,
    )


def fused_ck(Q: np.ndarray, starT: np.ndarray, ref,
             out: np.ndarray | None = None) -> np.ndarray:
    """Degree-truncated Cauchy-Kowalewski sweep, ``(ne, N+1, B, 9)``.

    ``starT`` holds the *transposed* star Jacobians ``(ne, 3, 9, 9)``
    (contiguous — the operator plan precomputes this copy).  Levels are
    computed in permuted mode order and scattered back, so the output
    layout matches :func:`repro.core.ader.ck_derivatives` exactly; modes
    beyond each level's degree cutoff are exact zeros (the full-width path
    carries ~1e-16 quadrature noise there instead).

    ``out`` is an optional scratch buffer: it MUST be an array previously
    returned by this function for the same order — its truncated-mode
    rows are assumed to still be the zeros this sweep leaves there, which
    is what makes reuse free.  A ``None`` or shape-mismatched ``out``
    falls back to a fresh allocation.  The step loop reuses its
    predictor buffer through this: the ~O(10 MB) per-call allocation
    would otherwise cost more in page faults than the truncated GEMMs
    themselves.
    """
    plan = element_plan(ref.order)
    ne, nb, nq = Q.shape
    shape = (ne, ref.order + 1, nb, nq)
    if out is None or out.shape != shape or out.dtype != np.float64:
        out = np.zeros(shape)
    out[:, 0] = Q
    if ref.order == 0:
        return out
    X = np.ascontiguousarray(Q[:, plan.perm, :])
    for k in range(ref.order):
        n_out = plan.sizes[k + 1]
        T = np.matmul(plan.Dstacks[k], X)
        U = np.matmul(T.reshape(ne, 3, n_out, nq), starT)
        X = -(U[:, 0] + U[:, 1] + U[:, 2])
        out[:, k + 1, plan.perm[:n_out]] = X
    return out


# ----------------------------------------------------------------------
# surface fusion: plan-time factor collapse
# ----------------------------------------------------------------------
def attach_fused_groups(plan, ref) -> None:
    """Fold quadrature projection and scale into the face groups of a
    freshly built :class:`~repro.exec.plan_cache.OperatorPlan`.

    For each interior orientation class with trace operators ``Em``/``Ep``
    and face weights ``w``, the minus-side contribution

        ``scale_m * Em^T diag(w) (Em I[em] Fmm^T + Ep I[ep] Fpm^T)``

    factorizes into ``Amm @ I[em] @ G1 + Amp @ I[ep] @ G2`` with the
    ``(B, B)`` basis factors ``Amm = Em^T diag(w) Em`` / ``Amp = Em^T
    diag(w) Ep`` shared by the whole class and the per-face ``(9, 9)``
    matrices ``G1 = scale_m * Fmm^T`` / ``G2 = scale_m * Fpm^T`` (and
    symmetrically ``App``/``Apm``/``G3``/``G4`` for the plus side).
    Called only inside the plan builder: cached plans are immutable.
    """
    w = ref.face_weights
    for grp in plan.interior_groups:
        Em = ref.E_minus[grp.minus_face]
        Ep = ref.E_plus[grp.plus_face, grp.perm]
        EmW = Em.T * w
        EpW = Ep.T * w
        grp.Amm = np.ascontiguousarray(EmW @ Em)
        grp.Amp = np.ascontiguousarray(EmW @ Ep)
        grp.App = np.ascontiguousarray(EpW @ Ep)
        grp.Apm = np.ascontiguousarray(grp.Amp.T)
        sm = grp.scale_m[:, None, None]
        sp = grp.scale_p[:, None, None]
        grp.G1 = np.ascontiguousarray(grp.Fmm.transpose(0, 2, 1)) * sm
        grp.G2 = np.ascontiguousarray(grp.Fpm.transpose(0, 2, 1)) * sm
        grp.G3 = np.ascontiguousarray(grp.Fmp.transpose(0, 2, 1)) * sp
        grp.G4 = np.ascontiguousarray(grp.Fpp.transpose(0, 2, 1)) * sp
    for grp in plan.boundary_groups:
        E = ref.E_minus[int(grp.face[0])]
        grp.A = np.ascontiguousarray((E.T * w) @ E)
        grp.G = np.ascontiguousarray(grp.F.transpose(0, 2, 1)) * \
            grp.scale[:, None, None]


def _mask_digest(active: np.ndarray) -> bytes:
    return hashlib.sha1(active.tobytes()).digest()


def _cache_put(cache: OrderedDict, key, value) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > MASK_CACHE_MAX:
        cache.popitem(last=False)


# ----------------------------------------------------------------------
# fused residual kernels
# ----------------------------------------------------------------------
def fused_volume_residual(op, I, out, active=None) -> None:
    """Stacked-stiffness volume kernel (see module docstring)."""
    plan = element_plan(op.order)
    if active is None:
        Ie, starT, tgt = I, op.starT, slice(None)
    else:
        key = _mask_digest(active)
        cache = op._mask_cache_volume
        hit = cache.get(key)
        if _MET.enabled:
            _MET.inc("cache/mask_hits" if hit is not None
                     else "cache/mask_misses")
        if hit is None:
            idx = np.flatnonzero(active)
            hit = (idx, np.ascontiguousarray(op.starT[idx]))
            _cache_put(cache, key, hit)
        idx, starT = hit
        Ie, tgt = np.ascontiguousarray(I[idx]), idx
    n = len(Ie)
    W = np.matmul(Ie[:, None], starT)
    out[tgt] += np.matmul(plan.DT, W.reshape(n, 3 * op.nbasis, 9))


def _interior_masked_entries(op, active):
    """Per-group masked selections for one activity mask (cached)."""
    key = _mask_digest(active)
    cache = op._mask_cache_interior
    entries = cache.get(key)
    if _MET.enabled:
        _MET.inc("cache/mask_hits" if entries is not None
                 else "cache/mask_misses")
    if entries is not None:
        return entries
    entries = []
    for grp in op.interior_groups:
        am = active[grp.em]
        ap = active[grp.ep]
        sel = am | ap
        if not np.any(sel):
            entries.append(None)
            continue
        upd_m, upd_p = am[sel], ap[sel]
        entries.append((
            grp.em[sel], grp.ep[sel],
            np.ascontiguousarray(grp.G1[sel]), np.ascontiguousarray(grp.G2[sel]),
            np.ascontiguousarray(grp.G3[sel]), np.ascontiguousarray(grp.G4[sel]),
            upd_m, upd_p, bool(np.any(upd_m)), bool(np.any(upd_p)),
        ))
    _cache_put(cache, key, entries)
    return entries


def fused_interior_residual(op, I, out, active=None) -> None:
    """Modal-factorized interior-face kernel (see module docstring)."""
    if active is None:
        groups = ((g, g.em, g.ep, g.G1, g.G2, g.G3, g.G4,
                   slice(None), slice(None), True, True)
                  for g in op.interior_groups)
    else:
        entries = _interior_masked_entries(op, active)
        groups = ((g, *e) for g, e in zip(op.interior_groups, entries)
                  if e is not None)
    for grp, em, ep, G1, G2, G3, G4, upd_m, upd_p, do_m, do_p in groups:
        Xm = I[em]
        Xp = I[ep]
        if do_m:
            contrib = np.matmul(np.matmul(grp.Amm, Xm), G1)
            contrib += np.matmul(np.matmul(grp.Amp, Xp), G2)
            # within one orientation class every element appears at most
            # once per side, so fancy += is exact (no np.add.at needed)
            if active is None:
                out[em] += contrib
            else:
                out[em[upd_m]] += contrib[upd_m]
        if do_p:
            contrib = np.matmul(np.matmul(grp.App, Xp), G3)
            contrib += np.matmul(np.matmul(grp.Apm, Xm), G4)
            if active is None:
                out[ep] += contrib
            else:
                out[ep[upd_p]] += contrib[upd_p]


def fused_boundary_residual(op, I, out, active=None) -> None:
    """Modal-factorized boundary-face kernel (see module docstring)."""
    if active is None:
        groups = ((g, g.elem, g.G) for g in op.boundary_groups)
    else:
        key = _mask_digest(active)
        cache = op._mask_cache_boundary
        entries = cache.get(key)
        if _MET.enabled:
            _MET.inc("cache/mask_hits" if entries is not None
                     else "cache/mask_misses")
        if entries is None:
            entries = []
            for grp in op.boundary_groups:
                sel = active[grp.elem]
                entries.append(
                    (grp.elem[sel], np.ascontiguousarray(grp.G[sel]))
                    if np.any(sel) else None
                )
            _cache_put(cache, key, entries)
        groups = ((g, *e) for g, e in zip(op.boundary_groups, entries)
                  if e is not None)
    for grp, elem, G in groups:
        contrib = np.matmul(np.matmul(grp.A, I[elem]), G)
        out[elem] += contrib  # unique per (kind, local face) group
