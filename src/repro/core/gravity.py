"""Gravitational free-surface boundary condition (paper Sec. 4.3).

Gravity enters the fully coupled model purely through a modified free
surface condition on the *equilibrium* sea surface z = 0 (Eqs. 6-7), which
avoids a moving mesh: the sea-surface displacement ``eta`` lives at the face
quadrature points of the tagged boundary faces and evolves by the face-local
ODE system (Eq. 24)

    ``d(eta)/dt = v_n^b = v_n^- - (rho g eta - p^-)/Z``,   ``dH/dt = eta``

with ``v_n^-(t), p^-(t)`` evaluated from the element's space-time Taylor
predictor (exactly the scheme of the paper: predict in the volume,
extrapolate to the boundary, integrate the face ODE with a high-order ODE
solver).  The auxiliary variable ``H`` yields the *time-integrated* boundary
state needed by the ADER corrector without nested quadrature (Eq. 26):

    ``int v_n^b dt = eta(t+dt) - eta(t)``, ``int p^b dt = rho g H(t+dt)``.

The ODE is linear with polynomial forcing, so the default integrator is the
exact exponential propagator of :mod:`repro.core.rk` (substituting the
paper's Verner RK7 — see DESIGN.md); a stepped RK4 driver is available for
cross-checking.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..obs.metrics import get_metrics
from .materials import SXX, VX
from .riemann import FaceKind
from .rk import RK4, ExactPropagator, rk_solve
from .rotation import batched_state_rotation

__all__ = ["GravityBoundary"]

_MET = get_metrics()

#: exponential propagators kept per boundary (an LRU): a run needs one per
#: (material, cluster step, predictor order) at a time, but every ``run()``
#: segment re-derives its step and lands on ulp-different ``dt`` keys
PROPAGATOR_CACHE_MAX = 16


class GravityBoundary:
    """State and flux assembly for all gravitational free-surface faces."""

    def __init__(
        self,
        op,
        g: float = 9.81,
        integrator: str = "exact",
        rk_steps: int = 4,
        eta_velocity: str = "middle",
    ):
        """``eta_velocity="interior"`` evolves eta with the one-sided trace
        ``v_n^-`` instead of the Riemann middle state ``v_n^b`` — the
        unstable variant the paper warns about below Eq. 23 ("It is critical
        to use the velocity v_n^b here ... as only then we have a stable
        scheme").  Exposed for the ablation benchmark only."""
        self.op = op
        self.g = g
        if integrator not in ("exact", "rk4"):
            raise ValueError(f"unknown integrator {integrator!r}")
        if eta_velocity not in ("middle", "interior"):
            raise ValueError(f"unknown eta_velocity {eta_velocity!r}")
        self.eta_velocity = eta_velocity
        self.integrator = integrator
        self.rk_steps = rk_steps
        mesh = op.mesh
        bnd = mesh.boundary
        self.face_ids = np.flatnonzero(bnd.kind == FaceKind.GRAVITY_FREE_SURFACE.value)
        self.elem = bnd.elem[self.face_ids]
        self.local_face = bnd.face[self.face_ids]
        self.area = bnd.area[self.face_ids]
        self.normal = bnd.normal[self.face_ids]
        self.mat_id = mesh.material_ids[self.elem]
        mats = mesh.materials
        for mid in np.unique(self.mat_id):
            if not mats[int(mid)].is_acoustic:
                raise ValueError(
                    "gravity free-surface faces must border acoustic (ocean) elements"
                )
        self.rho = np.array([mats[m].rho for m in self.mat_id])
        self.Z = np.array([mats[m].Zp for m in self.mat_id])

        # rotation to apply the local middle state as a global flux:
        # flux = T @ A_loc @ w_hat; A_loc columns touched are SXX and VX only.
        T, _ = batched_state_rotation(self.normal)
        Aloc = np.zeros((len(self.face_ids), 9, 9))
        lam = np.array([mats[m].lam for m in self.mat_id])
        rho = self.rho
        # acoustic local Jacobian: stress rows react to v_n, v_n row to s_nn
        for row in (0, 1, 2):
            Aloc[:, row, VX] = -lam
        Aloc[:, VX, SXX] = -1.0 / rho
        self.TA = np.einsum("fij,fjk->fik", T, Aloc)

        nq = op.ref.n_face_points
        self.eta = np.zeros((len(self.face_ids), nq))
        self._propagators: OrderedDict = OrderedDict()
        # partitioned workers step their gravity faces concurrently
        self._propagator_lock = threading.Lock()
        # physical positions of the quadrature points (for output/analysis)
        self.points = np.empty((len(self.face_ids), nq, 3))
        for f in range(4):
            sel = self.local_face == f
            if np.any(sel):
                from .basis import face_points_to_tet

                ref_pts = face_points_to_tet(f, op.ref.face_points)
                self.points[sel] = mesh.map_points(self.elem[sel], ref_pts)

    def __len__(self) -> int:
        return len(self.face_ids)

    # ------------------------------------------------------------------
    def _trace_taylor(self, derivs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Taylor coefficients of the boundary trace: ``(nf, K, nq, 9)``."""
        ref = self.op.ref
        K = derivs.shape[1]
        out = np.empty((len(idx), K, ref.n_face_points, 9))
        lf = self.local_face[idx]
        el = self.elem[idx]
        for f in range(4):
            fsel = lf == f
            if np.any(fsel):
                E = ref.E_minus[f]
                # (K*B basis contraction) for each derivative level
                out[fsel] = np.einsum("qb,ekbn->ekqn", E, derivs[el[fsel]], optimize=True)
        return out

    def _propagator(self, mat_id: int, dt: float, K: int) -> ExactPropagator:
        key = (int(mat_id), float(dt), K)
        with self._propagator_lock:
            prop = self._propagators.get(key)
            if prop is not None:
                self._propagators.move_to_end(key)
                return prop
            mat = self.op.mesh.materials[int(mat_id)]
            # with the (unstable) interior-velocity variant the damping term
            # -(rho g / Z) eta of Eq. 23 is absent from d(eta)/dt
            a = -mat.rho * self.g / mat.Zp if self.eta_velocity == "middle" else 0.0
            A = np.array([[a, 0.0], [1.0, 0.0]])
            prop = ExactPropagator(A, n_forcing=K, dt=dt)
            self._propagators[key] = prop
            if len(self._propagators) > PROPAGATOR_CACHE_MAX:
                self._propagators.popitem(last=False)
            return prop

    def step(self, derivs: np.ndarray, dt: float, out: np.ndarray,
             faces=None, rows=None) -> None:
        """Advance eta over ``dt`` and add the time-integrated flux to ``out``.

        ``derivs`` is the CK predictor of (at least) the adjacent elements,
        with expansion point at the beginning of the step.  ``faces``
        (indices into this boundary's faces, default all) restricts the
        update to one work unit's faces; ``rows`` maps a global element id
        to its row of ``out`` (default: the id itself).
        """
        with _MET.phase("gravity/ode"):
            self._step(derivs, dt, out, faces, rows)

    def _step(self, derivs, dt, out, faces=None, rows=None) -> None:
        idx = np.arange(len(self.face_ids)) if faces is None else faces
        if len(idx) == 0:
            return
        K = derivs.shape[1]
        tr = self._trace_taylor(derivs, idx)  # (nf, K, nq, 9)
        # forcing f(t) = v_n(t) + p(t)/Z at each quadrature point; monomial
        # coefficients b_k = f^(k) / k!
        n = self.normal[idx]  # (nf, 3)
        v_n = np.einsum("fkqd,fd->fkq", tr[:, :, :, 6:9], n)
        p = -(tr[:, :, :, 0] + tr[:, :, :, 1] + tr[:, :, :, 2]) / 3.0
        if self.eta_velocity == "middle":
            f_deriv = v_n + p / self.Z[idx][:, None, None]
        else:
            # d(eta)/dt = v_n^- only: no pressure feedback, no damping
            f_deriv = v_n
        fact = 1.0
        b = np.empty_like(f_deriv)
        for k in range(K):
            if k > 0:
                fact *= k
            b[:, k] = f_deriv[:, k] / fact

        eta0 = self.eta[idx]
        if self.integrator == "exact":
            eta1 = np.empty_like(eta0)
            H1 = np.empty_like(eta0)
            for mid in np.unique(self.mat_id[idx]):
                msel = self.mat_id[idx] == mid
                prop = self._propagator(mid, dt, K)
                y0 = np.stack([eta0[msel], np.zeros_like(eta0[msel])], axis=-1)
                bb = np.zeros(y0.shape + (K,))
                bb[..., 0, :] = np.moveaxis(b[msel], 1, -1)
                y1 = prop.apply(y0, bb)
                eta1[msel] = y1[..., 0]
                H1[msel] = y1[..., 1]
        else:
            a = -(self.rho[idx] * self.g / self.Z[idx])[:, None]
            powers = np.arange(K)

            def rhs(t, y):
                # y[..., 0] = eta, y[..., 1] = H
                f_t = np.einsum("fkq,k->fq", b, t**powers)
                d = np.empty_like(y)
                d[..., 0] = a * y[..., 0] + f_t
                d[..., 1] = y[..., 0]
                return d

            y0 = np.stack([eta0, np.zeros_like(eta0)], axis=-1)
            y1 = rk_solve(rhs, y0, dt, RK4, n_steps=self.rk_steps)
            eta1, H1 = y1[..., 0], y1[..., 1]

        d_eta = eta1 - eta0
        self.eta[idx] = eta1

        # time-integrated local middle state (Eq. 26):
        #   int sigma_nn^b dt = -rho g H(t+dt),  int v_n^b dt = d_eta
        nq = eta0.shape[1]
        w_hat = np.zeros((len(idx), nq, 9))
        w_hat[:, :, SXX] = -self.rho[idx][:, None] * self.g * H1
        w_hat[:, :, VX] = d_eta
        flux = np.einsum("fij,fqj->fqi", self.TA[idx], w_hat, optimize=True)
        self.op.project_face_flux(
            self.elem[idx], self.local_face[idx], self.area[idx], flux, out,
            rows=rows,
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Time-marching state for checkpointing (:mod:`repro.io.checkpoint`)."""
        return {"eta": self.eta.copy()}

    def load_state(self, state: dict) -> None:
        eta = np.asarray(state["eta"])
        if eta.shape != self.eta.shape:
            raise ValueError(
                f"gravity state has shape {eta.shape}, expected {self.eta.shape}"
            )
        self.eta = eta.astype(self.eta.dtype, copy=True)

    # ------------------------------------------------------------------
    def surface_height(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean sea-surface height per gravity face.

        Returns ``(xy, eta)`` with ``xy`` the face centroid horizontal
        coordinates and ``eta`` the quadrature-weighted face average.
        """
        w = self.op.ref.face_weights
        avg = (self.eta * w) @ np.ones(len(w)) / w.sum()
        xy = np.einsum("fqd,q->fd", self.points[:, :, :2], w) / w.sum()
        return xy, avg

    def sample(self, xy: np.ndarray) -> np.ndarray:
        """Nearest-quad-point sample of eta at horizontal locations ``xy``."""
        pts = self.points[:, :, :2].reshape(-1, 2)
        flat = self.eta.reshape(-1)
        xy = np.atleast_2d(xy)
        out = np.empty(len(xy))
        for i, p in enumerate(xy):
            d2 = ((pts - p) ** 2).sum(axis=1)
            out[i] = flat[np.argmin(d2)]
        return out
