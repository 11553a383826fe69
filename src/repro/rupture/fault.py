"""Dynamic-rupture fault solver: the non-linear interface condition (Eq. 2).

Fault faces are interior faces excluded from the generic Godunov flux; at
every face quadrature point the fault Riemann problem is solved at each
*time* quadrature node of the ADER window (the traces come from the
space-time Taylor predictors of the two adjacent elements, exactly as in
SeisSol/Pelties et al. 2014):

1. rotate both traces into the fault frame (normal + two tangents),
2. compute the "stick" (welded) traction and normal middle state,
3. add the background (pre-)stress, evaluate the friction law and solve the
   traction balance for slip rate ``V`` and fault traction,
4. build per-side middle states (shared tractions and normal velocity,
   side-specific tangential velocities) and accumulate the time-integrated
   flux with Gauss weights,
5. evolve slip and the state variable ``psi`` between time nodes.

Everything is vectorized over (fault faces x quadrature points); the only
sequential loop is over the handful of time nodes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..core.ader import taylor_evaluate
from ..core.basis import face_points_to_tet
from ..core.materials import jacobians
from ..core.quadrature import gauss_legendre_01
from ..core.rotation import batched_state_rotation
from ..obs.metrics import get_metrics

__all__ = ["Prestress", "FaultSolver"]

_MET = get_metrics()


@dataclass
class Prestress:
    """Background traction on the fault, in the fault frame (n, s, t).

    ``sigma_n`` is the normal traction (negative in compression), ``tau_s``
    and ``tau_t`` the shear tractions along the two tangent directions.
    Each may be a scalar or a callable ``f(points) -> array`` evaluated at
    the fault quadrature points (``points`` has shape ``(npts, 3)``).
    """

    sigma_n: float | Callable = -120e6
    tau_s: float | Callable = 70e6
    tau_t: float | Callable = 0.0
    #: extra shear added on top of the background (the nucleation asperity).
    #: Kept separate so that rate-and-state initialization equilibrates the
    #: *background* stress only — the asperity then overstresses the fault.
    nucleation_s: float | Callable = 0.0
    nucleation_t: float | Callable = 0.0
    #: alternatively, give the shear traction as a *global 3D vector field*
    #: ``f(points) -> (npts, 3)``; it is projected onto the solver's fault
    #: tangents at bind time (overrides tau_s/tau_t when set).  Convenient
    #: for dipping faults where "up-dip" is hard to express frame-locally.
    shear_vector: Callable | None = None
    nucleation_vector: Callable | None = None

    def evaluate(self, points: np.ndarray):
        """Background tractions ``(sigma_n, tau_s, tau_t)`` at ``points``."""
        flat = points.reshape(-1, 3)

        def ev(v):
            return np.broadcast_to(v(flat) if callable(v) else v, (len(flat),)).astype(float)

        shape = points.shape[:-1]
        return (
            ev(self.sigma_n).reshape(shape),
            ev(self.tau_s).reshape(shape),
            ev(self.tau_t).reshape(shape),
        )

    def evaluate_nucleation(self, points: np.ndarray):
        flat = points.reshape(-1, 3)

        def ev(v):
            return np.broadcast_to(v(flat) if callable(v) else v, (len(flat),)).astype(float)

        shape = points.shape[:-1]
        return ev(self.nucleation_s).reshape(shape), ev(self.nucleation_t).reshape(shape)


class FaultSolver:
    """Owner of all dynamic-rupture state and the fault flux kernel.

    Parameters
    ----------
    friction:
        A friction law from :mod:`repro.rupture.friction`.
    prestress:
        Background fault tractions (the nucleation asperity lives here).
    n_time_nodes:
        Gauss-Legendre nodes per ADER window (default: order + 1).
    rupture_threshold:
        Slip-rate threshold [m/s] defining the rupture front arrival time.
    """

    def __init__(
        self,
        friction,
        prestress: Prestress,
        n_time_nodes: int | None = None,
        rupture_threshold: float = 1e-3,
    ):
        self.friction = friction
        self.prestress = prestress
        self.n_time_nodes = n_time_nodes
        self.rupture_threshold = rupture_threshold
        self._bound = False

    # ------------------------------------------------------------------
    def bind(self, op) -> None:
        """Collect fault faces from the operator's mesh and precompute
        rotations, impedances and prestress."""
        mesh = op.mesh
        self.op = op
        ids = np.flatnonzero(mesh.interior.is_fault)
        if ids.size == 0:
            raise ValueError("mesh has no fault faces; call mesh.mark_fault first")
        itf = mesh.interior
        self.face_ids = ids
        self.em = itf.minus_elem[ids]
        self.ep = itf.plus_elem[ids]
        self.minus_face = itf.minus_face[ids]
        self.plus_face = itf.plus_face[ids]
        self.perm = itf.perm[ids]
        self.normal = itf.normal[ids]
        self.area = itf.area[ids]

        if self.n_time_nodes is None:
            self.n_time_nodes = op.order + 1
        self.t_nodes, self.t_weights = gauss_legendre_01(self.n_time_nodes)

        mats = mesh.materials
        mid_m = mesh.material_ids[self.em]
        mid_p = mesh.material_ids[self.ep]
        for mid in np.unique(np.concatenate([mid_m, mid_p])):
            if mats[int(mid)].is_acoustic:
                raise ValueError("dynamic rupture requires elastic material on both sides")
        self.Zs_m = np.array([mats[m].Zs for m in mid_m])
        self.Zs_p = np.array([mats[m].Zs for m in mid_p])
        self.Zp_m = np.array([mats[m].Zp for m in mid_m])
        self.Zp_p = np.array([mats[m].Zp for m in mid_p])
        self.eta_s = self.Zs_m * self.Zs_p / (self.Zs_m + self.Zs_p)

        # rotations: one shared (minus-normal) fault frame per face
        self.T, self.Tinv = batched_state_rotation(self.normal)
        # per-side flux prefactors: minus: +T A_loc^-, plus: -T A_loc^+
        Am = np.stack([jacobians(mats[int(m)])[0] for m in mid_m])
        Ap = np.stack([jacobians(mats[int(m)])[0] for m in mid_p])
        self.TA_m = np.einsum("fij,fjk->fik", self.T, Am)
        self.TA_p = -np.einsum("fij,fjk->fik", self.T, Ap)

        # physical quadrature points (minus-side parametrization)
        nq = op.ref.n_face_points
        nf = len(ids)
        self.points = np.empty((nf, nq, 3))
        for f in range(4):
            sel = self.minus_face == f
            if np.any(sel):
                ref_pts = face_points_to_tet(f, op.ref.face_points)
                self.points[sel] = mesh.map_points(self.em[sel], ref_pts)

        from ..core.rotation import batched_normal_basis

        self.frame = batched_normal_basis(self.normal)  # columns (n, s, t)

        s0, ts0, tt0 = self.prestress.evaluate(self.points)
        nuc_s, nuc_t = self.prestress.evaluate_nucleation(self.points)
        if self.prestress.shear_vector is not None:
            vec = np.asarray(self.prestress.shear_vector(self.points.reshape(-1, 3)))
            vec = vec.reshape(nf, nq, 3)
            ts0 = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 1])
            tt0 = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 2])
        if self.prestress.nucleation_vector is not None:
            vec = np.asarray(self.prestress.nucleation_vector(self.points.reshape(-1, 3)))
            vec = vec.reshape(nf, nq, 3)
            nuc_s = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 1])
            nuc_t = np.einsum("fqd,fd->fq", vec, self.frame[:, :, 2])
        self.sigma_n0 = s0
        self.tau_s0 = ts0 + nuc_s
        self.tau_t0 = tt0 + nuc_t

        # dynamic state per quadrature point; rate-and-state laws start in
        # frictional equilibrium with the *background* stress (the
        # nucleation overstress is excluded so it actually nucleates)
        if hasattr(self.friction, "initial_state_from_stress"):
            tau0 = np.sqrt(ts0**2 + tt0**2)
            sigma_bar0 = np.maximum(-s0, 0.0)
            self.psi = self.friction.initial_state_from_stress(tau0, sigma_bar0)
        else:
            self.psi = self.friction.initial_state(nf * nq).reshape(nf, nq)
        self.slip = np.zeros((nf, nq))
        self.slip_s = np.zeros((nf, nq))
        self.slip_t = np.zeros((nf, nq))
        self.slip_rate = np.zeros((nf, nq))
        self.peak_slip_rate = np.zeros((nf, nq))
        self.rupture_time = np.full((nf, nq), np.inf)
        self.newton_iterations: list[int] = []
        self._bound = True

    def __len__(self) -> int:
        return len(self.face_ids)

    # ------------------------------------------------------------------
    def _traces(self, derivs, idx, tau):
        """Fault-frame traces of both sides at relative time ``tau``.

        Returns ``(w_minus, w_plus)`` with shape ``(len(idx), nq, 9)``.
        """
        ref = self.op.ref
        em, ep = self.em[idx], self.ep[idx]
        q_m = taylor_evaluate(derivs[em], tau)
        q_p = taylor_evaluate(derivs[ep], tau)
        nq = ref.n_face_points
        tm = np.empty((len(em), nq, 9))
        tp = np.empty((len(em), nq, 9))
        mf, pf, pm = self.minus_face[idx], self.plus_face[idx], self.perm[idx]
        for f in range(4):
            fsel = mf == f
            if np.any(fsel):
                tm[fsel] = ref.E_minus[f] @ q_m[fsel]
        cls = pf * 6 + pm
        for c in np.unique(cls):
            csel = cls == c
            tp[csel] = ref.E_plus[c // 6, c % 6] @ q_p[csel]
        Tinv = self.Tinv[idx]
        wm = np.einsum("fij,fqj->fqi", Tinv, tm, optimize=True)
        wp = np.einsum("fij,fqj->fqi", Tinv, tp, optimize=True)
        return wm, wp

    def step(self, derivs, dt: float, out: np.ndarray, faces=None,
             t0: float = 0.0, rows=None) -> None:
        """Solve the fault over one ADER window; add time-integrated fluxes.

        ``t0`` is the absolute start time of the window (for rupture-front
        arrival bookkeeping); ``faces`` (fault-face indices, default all)
        restricts to the faces of one work unit (fault faces always have
        both sides in one LTS cluster and one partition), and ``rows``
        maps a global element id to its row of ``out``.
        """
        if not self._bound:
            raise RuntimeError("FaultSolver.step called before bind()")
        with _MET.phase("fault/friction"):
            self._step(derivs, dt, out, faces, t0, rows)

    def _step(self, derivs, dt, out, faces=None, t0: float = 0.0,
              rows=None) -> None:
        idx = np.arange(len(self.face_ids)) if faces is None else faces
        if len(idx) == 0:
            return

        Zs_m = self.Zs_m[idx][:, None]
        Zs_p = self.Zs_p[idx][:, None]
        Zp_m = self.Zp_m[idx][:, None]
        Zp_p = self.Zp_p[idx][:, None]
        eta_s = self.eta_s[idx][:, None]
        s_n0 = self.sigma_n0[idx]
        t_s0 = self.tau_s0[idx]
        t_t0 = self.tau_t0[idx]

        psi = self.psi[idx]
        slip = self.slip[idx]
        slip_s = self.slip_s[idx]
        slip_t = self.slip_t[idx]
        peak = self.peak_slip_rate[idx]
        rupt = self.rupture_time[idx]

        nf = len(idx)
        nq = self.op.ref.n_face_points
        Iwb_m = np.zeros((nf, nq, 9))
        Iwb_p = np.zeros((nf, nq, 9))

        t_prev = 0.0
        V_prev = None
        for tau, w in zip(self.t_nodes * dt, self.t_weights * dt):
            if V_prev is not None:
                psi = self.friction.evolve_state(psi, V_prev, tau - t_prev)
            wm, wp = self._traces(derivs, idx, tau)

            dZp = Zp_m + Zp_p
            s_n = (
                wm[:, :, 0] * Zp_p + wp[:, :, 0] * Zp_m
                + Zp_m * Zp_p * (wp[:, :, 6] - wm[:, :, 6])
            ) / dZp
            v_n = (Zp_m * wm[:, :, 6] + Zp_p * wp[:, :, 6] + (wp[:, :, 0] - wm[:, :, 0])) / dZp
            dZs = Zs_m + Zs_p
            th_s = (
                wm[:, :, 3] * Zs_p + wp[:, :, 3] * Zs_m
                + Zs_m * Zs_p * (wp[:, :, 7] - wm[:, :, 7])
            ) / dZs
            th_t = (
                wm[:, :, 5] * Zs_p + wp[:, :, 5] * Zs_m
                + Zs_m * Zs_p * (wp[:, :, 8] - wm[:, :, 8])
            ) / dZs
            stick_s = th_s + t_s0
            stick_t = th_t + t_t0
            stick_mag = np.sqrt(stick_s**2 + stick_t**2)
            sigma_bar = np.maximum(-(s_n + s_n0), 0.0)

            V, tau_mag = self.friction.solve(stick_mag, sigma_bar, psi, eta_s)
            if hasattr(self.friction, "last_iterations"):
                self.newton_iterations.append(self.friction.last_iterations)

            safe = np.maximum(stick_mag, 1e-300)
            dir_s = stick_s / safe
            dir_t = stick_t / safe
            tp_s = tau_mag * dir_s - t_s0  # perturbation traction
            tp_t = tau_mag * dir_t - t_t0

            for arr, wside, Zs, sgn in ((Iwb_m, wm, Zs_m, +1.0), (Iwb_p, wp, Zs_p, -1.0)):
                arr[:, :, 0] += w * s_n
                arr[:, :, 3] += w * tp_s
                arr[:, :, 5] += w * tp_t
                arr[:, :, 6] += w * v_n
                arr[:, :, 7] += w * (wside[:, :, 7] + sgn * (tp_s - wside[:, :, 3]) / Zs)
                arr[:, :, 8] += w * (wside[:, :, 8] + sgn * (tp_t - wside[:, :, 5]) / Zs)

            slip = slip + w * V
            slip_s = slip_s + w * V * dir_s
            slip_t = slip_t + w * V * dir_t
            peak = np.maximum(peak, V)
            newly = (V > self.rupture_threshold) & ~np.isfinite(rupt)
            rupt = np.where(newly, t0 + tau, rupt)
            V_prev = V
            t_prev = tau

        psi = self.friction.evolve_state(psi, V_prev, dt - t_prev)

        self.psi[idx] = psi
        self.slip[idx] = slip
        self.slip_s[idx] = slip_s
        self.slip_t[idx] = slip_t
        self.peak_slip_rate[idx] = peak
        self.rupture_time[idx] = rupt
        self.slip_rate[idx] = V_prev

        flux_m = np.einsum("fij,fqj->fqi", self.TA_m[idx], Iwb_m, optimize=True)
        flux_p = np.einsum("fij,fqj->fqi", self.TA_p[idx], Iwb_p, optimize=True)
        self.op.project_face_flux(
            self.em[idx], self.minus_face[idx], self.area[idx], flux_m, out,
            rows=rows,
        )
        pf, pm = self.plus_face[idx], self.perm[idx]
        cls = pf * 6 + pm
        ep = self.ep[idx]
        area = self.area[idx]
        for c in np.unique(cls):
            csel = cls == c
            self.op.project_face_flux(
                ep[csel], None, area[csel], flux_p[csel], out,
                plus_side=(int(c) // 6, int(c) % 6), rows=rows,
            )

    # ------------------------------------------------------------------
    #: the arrays that evolve during a run (everything else is set by bind)
    STATE_FIELDS = (
        "psi",
        "slip",
        "slip_s",
        "slip_t",
        "slip_rate",
        "peak_slip_rate",
        "rupture_time",
    )

    def state_dict(self) -> dict:
        """Time-marching state for checkpointing (:mod:`repro.io.checkpoint`)."""
        if not self._bound:
            raise RuntimeError("FaultSolver.state_dict called before bind()")
        return {name: getattr(self, name).copy() for name in self.STATE_FIELDS}

    def load_state(self, state: dict) -> None:
        if not self._bound:
            raise RuntimeError("FaultSolver.load_state called before bind()")
        staged = {}
        for name in self.STATE_FIELDS:
            arr = np.asarray(state[name])
            cur = getattr(self, name)
            if arr.shape != cur.shape:
                raise ValueError(
                    f"fault state {name!r} has shape {arr.shape}, expected "
                    f"{cur.shape}"
                )
            staged[name] = arr.astype(cur.dtype, copy=True)
        for name, arr in staged.items():
            setattr(self, name, arr)
        self.newton_iterations = []

    # ------------------------------------------------------------------
    def moment(self) -> float:
        """Scalar seismic moment ``M0 = mu * integral(slip) dA``."""
        mats = self.op.mesh.materials
        mu = np.array([mats[m].mu for m in self.op.mesh.material_ids[self.em]])
        w = self.op.ref.face_weights
        mean_slip = (self.slip * w).sum(axis=1) / w.sum()
        return float(np.sum(mu * mean_slip * self.area))

    def moment_magnitude(self) -> float:
        """Moment magnitude ``Mw = 2/3 (log10 M0 - 9.1)``."""
        m0 = max(self.moment(), 1e-300)
        return 2.0 / 3.0 * (np.log10(m0) - 9.1)

    def ruptured_fraction(self) -> float:
        """Fraction of fault quadrature points that have ruptured."""
        return float(np.isfinite(self.rupture_time).mean())
