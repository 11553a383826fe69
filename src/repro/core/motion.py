"""Prescribed-motion boundary: kinematic seafloor/bottom forcing.

A boundary face whose *normal velocity* is prescribed as a function of
space and time, ``v_n(x, t)`` — the kinematic-source mechanism of coupled
earthquake-tsunami models with prescribed seafloor uplift (e.g. Maeda et
al. 2013, discussed in the paper's Sec. 2), and the tool used by the
Fig. 5 benchmark to measure the non-hydrostatic (Kajiura) transfer
function between seafloor and sea surface.

The inverse Riemann construction mirrors the gravity boundary: the middle
state takes the prescribed normal velocity, the normal traction follows
from the left-going characteristic

    ``sigma_nn^b = sigma_nn^- + Zp (v_pre - v_n^-)``

and shear tractions vanish (free slip).  The ADER corrector needs the
*time-integrated* middle state, assembled from the element's Taylor
predictor (for the interior traces) and Gauss quadrature of the prescribed
function.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .basis import face_points_to_tet
from .materials import SXX, VX, jacobians
from .quadrature import gauss_legendre_01
from .riemann import FaceKind
from .rotation import batched_state_rotation

__all__ = ["PrescribedMotionBoundary"]


class PrescribedMotionBoundary:
    """Drives boundary faces tagged ``FaceKind.PRESCRIBED_MOTION``.

    Parameters
    ----------
    op:
        The solver's :class:`~repro.core.kernels.SpatialOperator`.
    motion:
        ``motion(points, t) -> v`` with ``points`` of shape ``(npts, 3)``;
        positive along the face's *inward* normal, i.e. pushing into the
        domain.  For a seafloor (bottom face) positive means uplift.
    n_time_nodes:
        Gauss nodes for the time integration of the prescribed velocity.
    """

    def __init__(self, op, motion: Callable, n_time_nodes: int | None = None):
        self.op = op
        self.motion = motion
        mesh = op.mesh
        bnd = mesh.boundary
        self.face_ids = np.flatnonzero(bnd.kind == FaceKind.PRESCRIBED_MOTION.value)
        self.elem = bnd.elem[self.face_ids]
        self.local_face = bnd.face[self.face_ids]
        self.area = bnd.area[self.face_ids]
        self.normal = bnd.normal[self.face_ids]
        mats = mesh.materials
        mid = mesh.material_ids[self.elem]
        self.Zp = np.array([mats[m].Zp for m in mid])

        T, _ = batched_state_rotation(self.normal)
        Aloc = np.stack([jacobians(mats[int(m)])[0] for m in mid])
        # shear columns must not contribute: prescribed motion is free-slip
        Aloc[:, :, 3] = 0.0
        Aloc[:, :, 5] = 0.0
        Aloc[:, :, 7] = 0.0
        Aloc[:, :, 8] = 0.0
        self.TA = np.einsum("fij,fjk->fik", T, Aloc)

        nq = op.ref.n_face_points
        self.points = np.empty((len(self.face_ids), nq, 3))
        for f in range(4):
            sel = self.local_face == f
            if np.any(sel):
                pts = face_points_to_tet(f, op.ref.face_points)
                self.points[sel] = mesh.map_points(self.elem[sel], pts)
        self.n_time_nodes = n_time_nodes or (op.order + 2)
        self._tq, self._wq = gauss_legendre_01(self.n_time_nodes)
        self.uplift = np.zeros((len(self.face_ids), nq))  # integral of v_pre

    def __len__(self) -> int:
        return len(self.face_ids)

    def step(self, derivs, dt: float, out: np.ndarray, t0: float = 0.0,
             faces=None, rows=None) -> None:
        """Add the time-integrated prescribed-motion flux over ``[t0, t0+dt]``.

        ``faces``/``rows`` restrict the update to one work unit, as in
        :meth:`repro.core.gravity.GravityBoundary.step`.
        """
        idx = np.arange(len(self.face_ids)) if faces is None else faces
        if len(idx) == 0:
            return
        ref = self.op.ref
        nq = ref.n_face_points
        nf = len(idx)

        # interior traces, time-integrated via the Taylor predictor
        el = self.elem[idx]
        lf = self.local_face[idx]
        # integrate traces of sigma_nn^- and v_n^- over the window
        from .ader import taylor_integrate

        I_elem = taylor_integrate(derivs[el], 0.0, dt)  # (nf, B, 9)
        tr = np.empty((nf, nq, 9))
        for f in range(4):
            sel = lf == f
            if np.any(sel):
                tr[sel] = ref.E_minus[f] @ I_elem[sel]
        n = self.normal[idx]
        # rotate the needed components to the face frame: sigma_nn, v_n
        # (sigma_nn = n.sigma.n; v_n = n.v)
        sxx, syy, szz = tr[:, :, 0], tr[:, :, 1], tr[:, :, 2]
        sxy, syz, sxz = tr[:, :, 3], tr[:, :, 4], tr[:, :, 5]
        nx, ny, nz = n[:, 0:1], n[:, 1:2], n[:, 2:3]
        int_snn = (
            sxx * nx**2 + syy * ny**2 + szz * nz**2
            + 2 * (sxy * nx * ny + syz * ny * nz + sxz * nx * nz)
        )
        int_vn = tr[:, :, 6] * nx + tr[:, :, 7] * ny + tr[:, :, 8] * nz

        # time-integrated prescribed velocity (Gauss quadrature); the user
        # convention is inward-positive, the Riemann frame outward-positive
        pts = self.points[idx].reshape(-1, 3)
        int_motion = np.zeros(nf * nq)
        for tau, w in zip(self._tq, self._wq):
            int_motion += dt * w * np.asarray(self.motion(pts, t0 + tau * dt))
        int_motion = int_motion.reshape(nf, nq)
        self.uplift[idx] += int_motion
        int_vpre = -int_motion

        Zp = self.Zp[idx][:, None]
        w_hat = np.zeros((nf, nq, 9))
        w_hat[:, :, SXX] = int_snn + Zp * (int_vpre - int_vn)
        w_hat[:, :, VX] = int_vpre
        flux = np.einsum("fij,fqj->fqi", self.TA[idx], w_hat, optimize=True)
        self.op.project_face_flux(self.elem[idx], self.local_face[idx],
                                  self.area[idx], flux, out, rows=rows)
