"""Element and face kernels: the discrete spatial operator.

This module is the Python analogue of SeisSol's generated kernels: all
per-element and per-face operators are precomputed at setup and applied by
the fused stacked-GEMM kernels of :mod:`repro.kernels.fusion`, grouped by
face orientation class, so the hot loop is a short sequence of ``matmul``
calls over contiguous arrays — the vectorization idiom the HPC-Python
guides prescribe.  The plan holds only what those kernels read: the
transposed star Jacobians ``starT`` and the surface factors folded from
the Godunov flux matrices F-/F+ of paper Eq. 20 (both sides of every
interior face, boundary kinds alike), one orientation class at a time —
no class's flux matrices outlive its fold.

The corrector update implemented here is the time-integrated weak form:

    ``Q_new = Q + volume(I) - surface(I^-, I^+)``

with ``I`` the time-integrated predictor.  Gravity faces (Sec. 4.3) and
dynamic-rupture fault faces are *excluded* from the generic surface kernel
and handled by :mod:`repro.core.gravity` and :mod:`repro.rupture.fault`,
which add their own flux contributions through :meth:`SpatialOperator.project_face_flux`.
"""

from __future__ import annotations

import numpy as np

from ..core.riemann import FaceKind
from ..exec.plan_cache import OperatorPlan, get_plan_cache
from ..kernels.fusion import (
    fold_boundary_group,
    fold_interior_group,
    fused_boundary_residual,
    fused_ck,
    fused_interior_residual,
    fused_volume_residual,
)
from ..obs.metrics import get_metrics
from .ader import star_matrices
from .basis import get_reference_element
from .materials import jacobians
from .riemann import (
    free_surface_matrix,
    jacobian_positive_part,
    middle_state_matrices,
    wall_matrix,
)
from .rotation import batched_state_rotation

__all__ = ["SpatialOperator"]

_MET = get_metrics()


class _InteriorGroup:
    """Faces sharing one (minus face, plus face, permutation) class.

    Every group carries the folded surface factors of
    :func:`repro.kernels.fusion.fold_interior_group`: the per-class
    ``(B, B)`` basis projectors ``Amm``/``Amp``/``App``/``Apm`` and the
    per-face scale-folded transposed flux matrices ``G1``-``G4``.
    ``G1``/``G2`` cover the faces of the slice ``minus`` (whose minus side
    the operator updates) and ``G3``/``G4`` those of ``plus``; both slices
    span every face of a full operator (see :meth:`SpatialOperator.restricted`).
    """

    __slots__ = ("face_ids", "em", "ep", "minus_face", "plus_face", "perm",
                 "minus", "plus",
                 "Amm", "Amp", "App", "Apm", "G1", "G2", "G3", "G4")


class _BoundaryGroup:
    """Boundary faces of one (kind, local face ``face``) pair and their
    folded factors ``A``/``G`` (:func:`repro.kernels.fusion.fold_boundary_group`)."""

    __slots__ = ("face_ids", "elem", "face", "A", "G")


class SpatialOperator:
    """Precomputed discrete operator for one mesh at one polynomial order.

    ``flux_variant="one_sided"`` builds interface fluxes using only the
    minus-side material parameters — the inconsistent flux the paper warns
    "may lead to a non-converging scheme when coupling elastics and
    acoustics" (Sec. 4.2, citing Wilcox et al.).  Provided solely for the
    ablation benchmark; never use it for production.
    """

    #: the kernel path this operator runs; run manifests and bench
    #: records carry it, so histories stay comparable across versions
    kernel_variant = "fused"
    _phase_volume = "kernels/volume_fused"
    _phase_interior = "kernels/surface_interior_fused"
    _phase_boundary = "kernels/surface_boundary_fused"

    def __init__(self, mesh, order: int, gravity_g: float = 9.81,
                 flux_variant: str = "exact"):
        if flux_variant not in ("exact", "one_sided"):
            raise ValueError(f"unknown flux variant {flux_variant!r}")
        self.flux_variant = flux_variant
        self.mesh = mesh
        self.order = order
        self.ref = get_reference_element(order)
        self.g = gravity_g
        self._n_elements = mesh.n_elements
        # the expensive setup (star Jacobians + folded surface factors) is
        # memoized per problem fingerprint; plans are immutable and shared
        plan = get_plan_cache().get_or_build(
            mesh, order, flux_variant, self._build_plan)
        self.starT = plan.starT
        self.interior_groups = plan.interior_groups
        self.boundary_groups = plan.boundary_groups

    def _build_plan(self) -> OperatorPlan:
        return OperatorPlan(
            starT=star_matrices(self.mesh).transpose(0, 1, 3, 2).copy(),
            interior_groups=self._build_interior(),
            boundary_groups=self._build_boundary(),
        )

    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        return self._n_elements

    @property
    def nbasis(self) -> int:
        return self.ref.nbasis

    def new_state(self) -> np.ndarray:
        """Zero-initialized modal state array ``(ne, B, 9)``."""
        return np.zeros((self.n_elements, self.nbasis, 9))

    # ------------------------------------------------------------------
    def face_flux_matrices(self, mat_m_ids, mat_p_ids, normals):
        """Vectorized Godunov flux matrices for a batch of faces.

        Returns ``(F_minus, F_plus)`` with shapes ``(nf, 9, 9)``:
        the flux seen by the element owning ``normals`` (its outward side)
        is ``F_minus @ q_own + F_plus @ q_neigh``.

        Public (besides the plan build, one orientation class at a time)
        because the benchmark battery (:mod:`repro.obs.bench`) times the
        Riemann-flux setup path in isolation and the test oracle rebuilds
        the raw matrices the plan does not keep.
        """
        with _MET.phase("riemann_flux"):
            nf = len(mat_m_ids)
            T, Tinv = batched_state_rotation(normals)
            Fm = np.empty((nf, 9, 9))
            Fp = np.empty((nf, 9, 9))
            mats = self.mesh.materials
            pair_key = mat_m_ids * len(mats) + mat_p_ids
            for key in np.unique(pair_key):
                sel = pair_key == key
                mm = mats[int(key) // len(mats)]
                mp = mats[int(key) % len(mats)]
                if self.flux_variant == "one_sided":
                    Gm, Gp = middle_state_matrices(mm, mm)  # ignores the + side
                else:
                    Gm, Gp = middle_state_matrices(mm, mp)
                Aloc = jacobians(mm)[0]
                AGm = Aloc @ Gm
                AGp = Aloc @ Gp
                Fm[sel] = np.einsum("fij,jk,fkl->fil", T[sel], AGm, Tinv[sel], optimize=True)
                Fp[sel] = np.einsum("fij,jk,fkl->fil", T[sel], AGp, Tinv[sel], optimize=True)
            return Fm, Fp

    def _build_interior(self) -> list[_InteriorGroup]:
        itf = self.mesh.interior
        ids = np.flatnonzero(~itf.is_fault)
        mat_ids = self.mesh.material_ids
        det_jac = self.mesh.det_jac
        cls = (itf.minus_face[ids] * 4 + itf.plus_face[ids]) * 6 + itf.perm[ids]
        groups: list[_InteriorGroup] = []
        for c in np.unique(cls):
            grp = _InteriorGroup()
            f = grp.face_ids = ids[cls == c]
            em = grp.em = itf.minus_elem[f]
            ep = grp.ep = itf.plus_elem[f]
            grp.minus_face = int(itf.minus_face[f[0]])
            grp.plus_face = int(itf.plus_face[f[0]])
            grp.perm = int(itf.perm[f[0]])
            grp.minus = grp.plus = slice(0, len(f))
            Fmm, Fpm = self.face_flux_matrices(mat_ids[em], mat_ids[ep], itf.normal[f])
            Fmp, Fpp = self.face_flux_matrices(mat_ids[ep], mat_ids[em], -itf.normal[f])
            # per-face corrector scale: -(2 * area) / det_jac  (reference face
            # weights sum to 1/2, mass matrix on the reference tet is |J| * I)
            fold_interior_group(grp, self.ref, (Fmm, Fpm, Fmp, Fpp),
                                -2.0 * itf.area[f] / det_jac[em],
                                -2.0 * itf.area[f] / det_jac[ep])
            groups.append(grp)
        return groups

    def boundary_flux_matrices(self, kind: int, mat_ids, normals):
        """Flux matrices ``(nf, 9, 9)`` of a batch of boundary faces of one
        :class:`FaceKind` value ``kind`` (free surface, wall or absorbing),
        ``mat_ids`` the material of each face's element."""
        T, Tinv = batched_state_rotation(normals)
        F = np.empty((len(mat_ids), 9, 9))
        for mid in np.unique(mat_ids):
            msel = mat_ids == mid
            mat = self.mesh.materials[int(mid)]
            if kind == FaceKind.FREE_SURFACE.value:
                AG = jacobians(mat)[0] @ free_surface_matrix(mat)
            elif kind == FaceKind.WALL.value:
                AG = jacobians(mat)[0] @ wall_matrix(mat)
            else:
                AG = jacobian_positive_part(mat)
            F[msel] = np.einsum(
                "fij,jk,fkl->fil", T[msel], AG, Tinv[msel], optimize=True
            )
        return F

    def _build_boundary(self) -> list[_BoundaryGroup]:
        bnd = self.mesh.boundary
        groups: list[_BoundaryGroup] = []
        for kind in (FaceKind.FREE_SURFACE.value, FaceKind.ABSORBING.value,
                     FaceKind.WALL.value):
            for f in range(4):
                sel = np.flatnonzero((bnd.kind == kind) & (bnd.face == f))
                if not sel.size:
                    continue
                grp = _BoundaryGroup()
                grp.face_ids = sel
                grp.elem = bnd.elem[sel]
                grp.face = f
                F = self.boundary_flux_matrices(
                    kind, self.mesh.material_ids[grp.elem], bnd.normal[sel])
                fold_boundary_group(
                    grp, self.ref, F,
                    -2.0 * bnd.area[sel] / self.mesh.det_jac[grp.elem])
                groups.append(grp)
        return groups

    # ------------------------------------------------------------------
    def restricted(self, cells: np.ndarray, n_owned: int) -> "SpatialOperator":
        """Lean sub-operator updating ``cells[:n_owned]`` and reading the
        halo ``cells[n_owned:]``, which must hold the far side of every
        cut face (raises otherwise).

        Its element indices are positions in ``cells``; its kernels act on
        ``X[cells]`` and write an ``(n_owned, B, 9)`` residual.  It copies
        only what the step loop reads: the owned ``starT``, the boundary
        faces of owned elements and, per orientation class, the faces
        with an owned side (ordered into the ``minus``/``plus`` slices of
        :mod:`repro.kernels.fusion`) with the ``G`` factors of their owned
        sides.  It runs the residual
        kernels and :meth:`predict` only.
        """
        cells = np.asarray(cells)
        sub = object.__new__(type(self))
        sub.flux_variant = self.flux_variant
        sub.mesh = self.mesh
        sub.order = self.order
        sub.ref = self.ref
        sub.g = self.g
        sub._n_elements = int(n_owned)
        sub.starT = self.starT[cells[:n_owned]]
        g2l = np.full(self.n_elements, -1, dtype=np.int64)
        g2l[cells] = np.arange(len(cells))
        owned = np.zeros(self.n_elements, dtype=bool)
        owned[cells[:n_owned]] = True

        sub.interior_groups = []
        for grp in self.interior_groups:
            om, op_ = owned[grp.em], owned[grp.ep]
            m_only = np.flatnonzero(om & ~op_)
            both = np.flatnonzero(om & op_)
            order = np.concatenate([m_only, both, np.flatnonzero(op_ & ~om)])
            if not len(order):
                continue
            g = _InteriorGroup()
            g.face_ids = grp.face_ids[order]
            g.em = g2l[grp.em[order]]
            g.ep = g2l[grp.ep[order]]
            if (g.em < 0).any() or (g.ep < 0).any():
                raise ValueError(
                    "restricted(): an owned face's neighbor element is outside "
                    "`cells`; the halo layer does not cover all cut faces"
                )
            g.minus_face = grp.minus_face
            g.plus_face = grp.plus_face
            g.perm = grp.perm
            g.minus = slice(0, len(m_only) + len(both))
            g.plus = slice(len(m_only), len(order))
            g.Amm, g.Amp = grp.Amm, grp.Amp
            g.App, g.Apm = grp.App, grp.Apm
            m_faces, p_faces = order[g.minus], order[g.plus]
            g.G1, g.G2 = grp.G1[m_faces], grp.G2[m_faces]
            g.G3, g.G4 = grp.G3[p_faces], grp.G4[p_faces]
            sub.interior_groups.append(g)

        sub.boundary_groups = []
        for grp in self.boundary_groups:
            sel = owned[grp.elem]
            if not sel.any():
                continue
            b = _BoundaryGroup()
            b.face_ids = grp.face_ids[sel]
            b.elem = g2l[grp.elem[sel]]
            b.face = grp.face
            b.A = grp.A
            b.G = grp.G[sel]
            sub.boundary_groups.append(b)
        return sub

    # ------------------------------------------------------------------
    def predict(self, Q: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Cauchy-Kowalewski derivatives ``(ne, N+1, B, 9)``."""
        return self.predict_states(Q, self.starT, out=out)

    def predict_states(self, Q: np.ndarray, starT: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Cauchy-Kowalewski sweep over arbitrary state/Jacobian batches
        (the owned elements of LTS and partition work units included);
        ``starT`` holds the contiguous transposed star Jacobians.

        ``out`` is a scratch-buffer *hint*: it must be an array this
        method previously returned for the same batch shape (backends
        keep last step's derivatives around for this).  The result is
        whatever array is returned.
        """
        return fused_ck(Q, starT, self.ref, out=out)

    def volume_residual(self, I: np.ndarray, out: np.ndarray) -> None:
        """Add the stiffness (volume) term of the corrector to ``out``."""
        with _MET.phase(self._phase_volume):
            fused_volume_residual(self, I, out)

    def interior_residual(self, I: np.ndarray, out: np.ndarray) -> None:
        """Add interior-face flux terms to ``out`` (owned sides only on a
        :meth:`restricted` operator — under LTS a face between clusters is
        visited by each side at its own cadence)."""
        with _MET.phase(self._phase_interior):
            fused_interior_residual(self, I, out)

    def boundary_residual(self, I: np.ndarray, out: np.ndarray) -> None:
        """Add free-surface / absorbing boundary fluxes to ``out``."""
        with _MET.phase(self._phase_boundary):
            fused_boundary_residual(self, I, out)

    def project_face_flux(
        self,
        elem: np.ndarray,
        local_face: np.ndarray,
        area: np.ndarray,
        flux_at_points: np.ndarray,
        out: np.ndarray,
        plus_side: tuple[int, int] | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        """Project pointwise face fluxes back to modal residuals.

        Used by the gravity boundary condition and the fault solver, which
        compute time-integrated fluxes at face quadrature points themselves.

        Parameters
        ----------
        elem, local_face, area:
            Per-face target element, its local face id, face area.
        flux_at_points:
            ``(nf, nq, 9)`` time-integrated flux (in the element's outward
            normal orientation).
        plus_side:
            If given ``(plus_face, perm)``, project with the neighbor trace
            operator instead (all faces in the call share the class).
        rows:
            Optional map from global element id to row of ``out`` (a work
            unit's residual holds its owned elements only).
        """
        ref = self.ref
        tgt = elem if rows is None else rows[elem]
        if plus_side is None:
            # group by local face id
            for f in range(4):
                sel = local_face == f
                if not np.any(sel):
                    continue
                E = ref.E_minus[f]
                contrib = np.einsum(
                    "qb,q,fqi->fbi", E, ref.face_weights, flux_at_points[sel], optimize=True
                )
                contrib *= (-2.0 * area[sel] / self.mesh.det_jac[elem[sel]])[:, None, None]
                out[tgt[sel]] += contrib  # unique per local-face group
        else:
            E = ref.E_plus[plus_side[0], plus_side[1]]
            contrib = np.einsum(
                "qb,q,fqi->fbi", E, ref.face_weights, flux_at_points, optimize=True
            )
            contrib *= (-2.0 * area / self.mesh.det_jac[elem])[:, None, None]
            out[tgt] += contrib  # unique per (plus face, perm) class

    # ------------------------------------------------------------------
    def trace_minus(self, face_ids: np.ndarray, X: np.ndarray, boundary: bool = True) -> np.ndarray:
        """Trace of element data ``X`` (``(ne, B, 9)``) on given faces.

        For ``boundary=True`` the faces index :attr:`mesh.boundary`,
        otherwise the minus side of :attr:`mesh.interior`.
        Returns ``(nfaces, nq, 9)``.
        """
        src = self.mesh.boundary if boundary else self.mesh.interior
        elem = src.elem[face_ids] if boundary else src.minus_elem[face_ids]
        face = src.face[face_ids] if boundary else src.minus_face[face_ids]
        out = np.empty((len(face_ids), self.ref.n_face_points, 9))
        for f in range(4):
            sel = face == f
            if np.any(sel):
                out[sel] = self.ref.E_minus[f] @ X[elem[sel]]
        return out

    def apply(self, I: np.ndarray) -> np.ndarray:
        """Gravity/fault-free residual of the elements this operator
        updates, for time-integrated data ``I``."""
        out = self.new_state()
        self.volume_residual(I, out)
        self.interior_residual(I, out)
        self.boundary_residual(I, out)
        return out
