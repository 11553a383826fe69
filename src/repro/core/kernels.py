"""Element and face kernels: the discrete spatial operator.

This module is the Python analogue of SeisSol's generated kernels: all
per-element and per-face operators are precomputed at setup (star Jacobians,
per-face Godunov flux matrices F-/F+ of paper Eq. 20 for *both* sides of
every interior face, boundary flux matrices per kind, and the surface
factors folded from them) and applied by the fused stacked-GEMM kernels of
:mod:`repro.kernels.fusion`, grouped by face orientation class, so the hot
loop is a short sequence of ``matmul`` calls over contiguous arrays — the
vectorization idiom the HPC-Python guides prescribe.

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
    attach_fused_groups,
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

    Besides the raw per-face flux matrices ``Fmm``-``Fpp``, every group
    carries the folded surface factors of
    :func:`repro.kernels.fusion.attach_fused_groups`: the per-class
    ``(B, B)`` basis projectors ``Amm``/``Amp``/``App``/``Apm`` and the
    per-face scale-folded transposed flux matrices ``G1``-``G4``.
    """

    __slots__ = ("face_ids", "em", "ep", "minus_face", "plus_face", "perm",
                 "scale_m", "scale_p", "Fmm", "Fpm", "Fmp", "Fpp",
                 "Amm", "Amp", "App", "Apm", "G1", "G2", "G3", "G4")


class _BoundaryGroup:
    __slots__ = ("face_ids", "elem", "face", "scale", "F", "A", "G")


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
        # the expensive setup (star Jacobians + per-face flux matrices +
        # folded surface factors) is memoized per problem fingerprint;
        # plans are immutable and shared
        plan = get_plan_cache().get_or_build(
            mesh, order, flux_variant, self._build_plan)
        self.star = plan.star
        self.starT = plan.starT
        self.interior_groups = plan.interior_groups
        self.boundary_groups = plan.boundary_groups
        self._init_mask_caches()

    def _init_mask_caches(self) -> None:
        """Per-instance content-addressed masked sub-plan caches of the
        fused kernels (one mask per LTS cluster; see
        :mod:`repro.kernels.fusion`); never part of the shared plan."""
        from collections import OrderedDict

        self._mask_cache_volume = OrderedDict()
        self._mask_cache_interior = OrderedDict()
        self._mask_cache_boundary = OrderedDict()

    def _build_plan(self) -> OperatorPlan:
        star = star_matrices(self.mesh)
        plan = OperatorPlan(
            star=star,
            starT=star.transpose(0, 1, 3, 2).copy(),
            interior_groups=self._build_interior(),
            boundary_groups=self._build_boundary(),
        )
        attach_fused_groups(plan, self.ref)
        return plan

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

        Public (besides the internal plan build) because the benchmark
        battery (:mod:`repro.obs.bench`) times the Riemann-flux setup path
        in isolation.
        """
        with _MET.phase("riemann_flux"):
            return self._face_flux_matrices_impl(mat_m_ids, mat_p_ids, normals)

    def _face_flux_matrices_impl(self, mat_m_ids, mat_p_ids, normals):
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
        regular = ~itf.is_fault
        ids = np.flatnonzero(regular)
        mat_ids = self.mesh.material_ids
        em_mat = mat_ids[itf.minus_elem[ids]]
        ep_mat = mat_ids[itf.plus_elem[ids]]
        Fmm, Fpm = self.face_flux_matrices(em_mat, ep_mat, itf.normal[ids])
        Fmp, Fpp = self.face_flux_matrices(ep_mat, em_mat, -itf.normal[ids])

        # per-face corrector scale: -(2 * area) / det_jac  (reference face
        # weights sum to 1/2, mass matrix on the reference tet is |J| * I)
        scale_m = -2.0 * itf.area[ids] / self.mesh.det_jac[itf.minus_elem[ids]]
        scale_p = -2.0 * itf.area[ids] / self.mesh.det_jac[itf.plus_elem[ids]]

        cls = (itf.minus_face[ids] * 4 + itf.plus_face[ids]) * 6 + itf.perm[ids]
        groups: list[_InteriorGroup] = []
        for c in np.unique(cls):
            sel = cls == c
            grp = _InteriorGroup()
            grp.face_ids = ids[sel]
            grp.em = itf.minus_elem[grp.face_ids]
            grp.ep = itf.plus_elem[grp.face_ids]
            grp.minus_face = int(itf.minus_face[grp.face_ids[0]])
            grp.plus_face = int(itf.plus_face[grp.face_ids[0]])
            grp.perm = int(itf.perm[grp.face_ids[0]])
            grp.scale_m = scale_m[sel]
            grp.scale_p = scale_p[sel]
            grp.Fmm = Fmm[sel]
            grp.Fpm = Fpm[sel]
            grp.Fmp = Fmp[sel]
            grp.Fpp = Fpp[sel]
            groups.append(grp)
        return groups

    def _build_boundary(self) -> list[_BoundaryGroup]:
        bnd = self.mesh.boundary
        mats = self.mesh.materials
        mat_ids = self.mesh.material_ids
        groups: list[_BoundaryGroup] = []
        handled = (
            FaceKind.FREE_SURFACE.value,
            FaceKind.ABSORBING.value,
            FaceKind.WALL.value,
        )
        for kind in handled:
            for f in range(4):
                sel = np.flatnonzero((bnd.kind == kind) & (bnd.face == f))
                if not sel.size:
                    continue
                T, Tinv = batched_state_rotation(bnd.normal[sel])
                F = np.empty((len(sel), 9, 9))
                emat = mat_ids[bnd.elem[sel]]
                for mid in np.unique(emat):
                    msel = emat == mid
                    mat = mats[int(mid)]
                    if kind == FaceKind.FREE_SURFACE.value:
                        AG = jacobians(mat)[0] @ free_surface_matrix(mat)
                    elif kind == FaceKind.WALL.value:
                        AG = jacobians(mat)[0] @ wall_matrix(mat)
                    else:
                        AG = jacobian_positive_part(mat)
                    F[msel] = np.einsum(
                        "fij,jk,fkl->fil", T[msel], AG, Tinv[msel], optimize=True
                    )
                grp = _BoundaryGroup()
                grp.face_ids = sel
                grp.elem = bnd.elem[sel]
                grp.face = np.full(len(sel), f)
                grp.scale = -2.0 * bnd.area[sel] / self.mesh.det_jac[bnd.elem[sel]]
                grp.F = F
                groups.append(grp)
        return groups

    # ------------------------------------------------------------------
    def restricted(self, cells: np.ndarray, n_owned: int) -> "SpatialOperator":
        """Sub-operator over ``cells`` (owned elements first, then the halo).

        Element indices in the returned operator are *local* (positions in
        ``cells``), so its residual kernels act on gathered arrays
        ``X[cells]``.  It keeps every interior face with at least one owned
        side — the halo layer must therefore contain the far side of every
        cut face (raises otherwise) — and every boundary face of an owned
        element.  Restricted operators share the parent's (cached,
        immutable) flux matrices via slicing; they support the residual
        kernels and :meth:`predict` only, not face-flux projection.
        """
        cells = np.asarray(cells)
        sub = object.__new__(type(self))
        sub.flux_variant = self.flux_variant
        sub.mesh = self.mesh
        sub.order = self.order
        sub.ref = self.ref
        sub.g = self.g
        sub._n_elements = len(cells)
        sub.star = self.star[cells]
        sub.starT = self.starT[cells]
        sub._init_mask_caches()
        g2l = np.full(self.n_elements, -1, dtype=np.int64)
        g2l[cells] = np.arange(len(cells))
        owned = np.zeros(self.n_elements, dtype=bool)
        owned[cells[:n_owned]] = True

        sub.interior_groups = []
        for grp in self.interior_groups:
            sel = owned[grp.em] | owned[grp.ep]
            if not sel.any():
                continue
            g = _InteriorGroup()
            g.face_ids = grp.face_ids[sel]
            g.em = g2l[grp.em[sel]]
            g.ep = g2l[grp.ep[sel]]
            if (g.em < 0).any() or (g.ep < 0).any():
                raise ValueError(
                    "restricted(): an owned face's neighbor element is outside "
                    "`cells`; the halo layer does not cover all cut faces"
                )
            g.minus_face = grp.minus_face
            g.plus_face = grp.plus_face
            g.perm = grp.perm
            g.scale_m = grp.scale_m[sel]
            g.scale_p = grp.scale_p[sel]
            g.Fmm = grp.Fmm[sel]
            g.Fpm = grp.Fpm[sel]
            g.Fmp = grp.Fmp[sel]
            g.Fpp = grp.Fpp[sel]
            g.Amm, g.Amp = grp.Amm, grp.Amp
            g.App, g.Apm = grp.App, grp.Apm
            g.G1, g.G2 = grp.G1[sel], grp.G2[sel]
            g.G3, g.G4 = grp.G3[sel], grp.G4[sel]
            sub.interior_groups.append(g)

        sub.boundary_groups = []
        for grp in self.boundary_groups:
            sel = owned[grp.elem]
            if not sel.any():
                continue
            b = _BoundaryGroup()
            b.face_ids = grp.face_ids[sel]
            b.elem = g2l[grp.elem[sel]]
            b.face = grp.face[sel]
            b.scale = grp.scale[sel]
            b.F = grp.F[sel]
            b.A = grp.A
            b.G = grp.G[sel]
            sub.boundary_groups.append(b)
        return sub

    # ------------------------------------------------------------------
    def predict(self, Q: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Cauchy-Kowalewski derivatives ``(ne, N+1, B, 9)``."""
        return self.predict_states(Q, self.star, self.starT, out=out)

    def predict_states(self, Q: np.ndarray, star: np.ndarray,
                       starT: np.ndarray | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Cauchy-Kowalewski sweep over arbitrary state/Jacobian batches
        (element subsets of LTS cluster updates and partitioned workers
        included).

        ``out`` is a scratch-buffer *hint*: it must be an array this
        method previously returned for the same batch shape (backends
        keep last step's derivatives around for this).  The result is
        whatever array is returned.
        """
        if starT is None:
            starT = np.ascontiguousarray(star.transpose(0, 1, 3, 2))
        return fused_ck(Q, starT, self.ref, out=out)

    def volume_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add the stiffness (volume) term of the corrector to ``out``."""
        with _MET.phase(self._phase_volume):
            fused_volume_residual(self, I, out, active)

    def interior_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add interior-face flux terms to ``out``.

        ``active`` (bool mask over elements) restricts which side(s) of each
        face receive contributions — needed by local time-stepping, where a
        face between clusters is visited by each side at its own cadence.
        """
        with _MET.phase(self._phase_interior):
            fused_interior_residual(self, I, out, active)

    def boundary_residual(self, I: np.ndarray, out: np.ndarray, active=None) -> None:
        """Add free-surface / absorbing boundary fluxes to ``out``."""
        with _MET.phase(self._phase_boundary):
            fused_boundary_residual(self, I, out, active)

    def project_face_flux(
        self,
        elem: np.ndarray,
        local_face: np.ndarray,
        area: np.ndarray,
        flux_at_points: np.ndarray,
        out: np.ndarray,
        plus_side: tuple[int, int] | None = None,
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
        """
        ref = self.ref
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
                out[elem[sel]] += contrib  # unique per local-face group
        else:
            E = ref.E_plus[plus_side[0], plus_side[1]]
            contrib = np.einsum(
                "qb,q,fqi->fbi", E, ref.face_weights, flux_at_points, optimize=True
            )
            contrib *= (-2.0 * area / self.mesh.det_jac[elem])[:, None, None]
            out[elem] += contrib  # unique per (plus face, perm) class

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

    def apply(self, I: np.ndarray, active=None) -> np.ndarray:
        """Full (gravity/fault-free) residual for time-integrated data ``I``."""
        out = self.new_state()
        self.volume_residual(I, out, active)
        self.interior_residual(I, out, active)
        self.boundary_residual(I, out, active)
        return out
