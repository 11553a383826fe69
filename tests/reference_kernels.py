"""Reference (oracle) kernels for the kernel-equivalence battery.

:class:`ReferenceOperator` is a :class:`~repro.core.kernels.SpatialOperator`
that runs the original per-group einsum/quadrature kernels instead of the
fused stacked-GEMM ones: its predictor is the full-width
:func:`repro.core.ader.ck_derivatives`, and its residual kernels evaluate
traces at the face quadrature points through the raw per-face flux
matrices (``Fmm``-``Fpp``, ``F``) and corrector scales.  Operator plans
keep only the folded factors, so the oracle rebuilds these from the mesh
by face id (:meth:`ReferenceOperator.interior_raw`,
:meth:`ReferenceOperator.boundary_raw`), through
:meth:`~repro.core.kernels.SpatialOperator.face_flux_matrices` and
:meth:`~repro.core.kernels.SpatialOperator.boundary_flux_matrices`, for
full and restricted operators alike.  It is the seed implementation the
physics tests validated; the battery in ``tests/test_kernels.py`` pins
the fused path to it.  Besides the owned sides of a work unit's
restricted operator it still offers the retired ``active=`` element
mask, as the independent reference the units are checked against.

:func:`reference_solvers` installs it into every solver built inside the
``with`` block (serial and partitioned backends alike: restricted
operators keep their parent's class).
"""

from contextlib import contextmanager
from functools import cached_property

import numpy as np

import repro.core.solver as _solver
from repro.core.ader import ck_derivatives
from repro.core.kernels import SpatialOperator
from repro.obs.metrics import get_metrics

_MET = get_metrics()


class ReferenceOperator(SpatialOperator):
    """The einsum/quadrature oracle behind the fused kernels."""

    kernel_variant = "batched"
    _phase_volume = "kernels/volume"
    _phase_interior = "kernels/surface_interior"
    _phase_boundary = "kernels/surface_boundary"

    def predict_states(self, Q, starT, out=None):
        """Full-width Cauchy-Kowalewski sweep; ignores the ``out`` hint
        (every call allocates)."""
        return ck_derivatives(Q, starT.transpose(0, 1, 3, 2), self.ref)

    @cached_property
    def interior_raw(self):
        """Per interior group, ``(Fmm, Fpm, Fmp, Fpp, scale_m, scale_p)``
        of its faces, rebuilt from the mesh by face id."""
        itf = self.mesh.interior
        mat = self.mesh.material_ids
        raw = []
        for grp in self.interior_groups:
            f = grp.face_ids
            em, ep = itf.minus_elem[f], itf.plus_elem[f]  # global ids
            Fmm, Fpm = self.face_flux_matrices(mat[em], mat[ep], itf.normal[f])
            Fmp, Fpp = self.face_flux_matrices(mat[ep], mat[em], -itf.normal[f])
            raw.append((Fmm, Fpm, Fmp, Fpp,
                        -2.0 * itf.area[f] / self.mesh.det_jac[em],
                        -2.0 * itf.area[f] / self.mesh.det_jac[ep]))
        return raw

    @cached_property
    def boundary_raw(self):
        """Per boundary group, ``(F, scale)`` of its faces, rebuilt from
        the mesh by face id."""
        bnd = self.mesh.boundary
        raw = []
        for grp in self.boundary_groups:
            f = grp.face_ids
            elem = bnd.elem[f]  # global ids
            F = self.boundary_flux_matrices(
                int(bnd.kind[f[0]]), self.mesh.material_ids[elem], bnd.normal[f])
            raw.append((F, -2.0 * bnd.area[f] / self.mesh.det_jac[elem]))
        return raw

    def volume_residual(self, I, out, active=None) -> None:
        with _MET.phase(self._phase_volume):
            self._volume_residual(I, out, active)

    def interior_residual(self, I, out, active=None) -> None:
        with _MET.phase(self._phase_interior):
            self._interior_residual(I, out, active)

    def boundary_residual(self, I, out, active=None) -> None:
        with _MET.phase(self._phase_boundary):
            self._boundary_residual(I, out, active)

    def _volume_residual(self, I, out, active=None) -> None:
        if active is None:
            n = len(self.starT)  # the owned prefix of a restricted op
            Ie, starT, tgt = I[:n], self.starT, slice(0, n)
        else:
            Ie, starT, tgt = I[active], self.starT[active], active
        acc = np.zeros_like(Ie)
        for d in range(3):
            acc += np.matmul(self.ref.deriv[d].T @ Ie, starT[:, d])
        out[tgt] += acc

    def _interior_residual(self, I, out, active=None) -> None:
        ref = self.ref
        w = ref.face_weights
        for grp, raw in zip(self.interior_groups, self.interior_raw):
            Em = ref.E_minus[grp.minus_face]
            Ep = ref.E_plus[grp.plus_face, grp.perm]
            if active is None:
                # owned sides: every face of a full operator
                em, ep = grp.em, grp.ep
                Fmm, Fpm, Fmp, Fpp, scale_m, scale_p = raw
                upd_m, upd_p = grp.minus, grp.plus
                do_m = upd_m.stop > upd_m.start
                do_p = upd_p.stop > upd_p.start
            else:
                # restrict to faces with at least one active side *before*
                # any trace computation (critical for LTS cluster steps)
                am = active[grp.em]
                ap = active[grp.ep]
                sel = am | ap
                if not np.any(sel):
                    continue
                em, ep = grp.em[sel], grp.ep[sel]
                Fmm, Fpm, Fmp, Fpp, scale_m, scale_p = (a[sel] for a in raw)
                upd_m, upd_p = am[sel], ap[sel]
                do_m = bool(np.any(upd_m))
                do_p = bool(np.any(upd_p))
            trace_m = Em @ I[em]  # (nf, nq, 9)
            trace_p = Ep @ I[ep]
            if do_m:
                flux = np.einsum("fij,fqj->fqi", Fmm, trace_m, optimize=True)
                flux += np.einsum("fij,fqj->fqi", Fpm, trace_p, optimize=True)
                contrib = np.einsum("qb,q,fqi->fbi", Em, w, flux, optimize=True)
                contrib *= scale_m[:, None, None]
                # within one orientation class every element appears at most
                # once on the minus side, so fancy += is exact (and much
                # faster than np.add.at)
                out[em[upd_m]] += contrib[upd_m]
            if do_p:
                flux = np.einsum("fij,fqj->fqi", Fmp, trace_p, optimize=True)
                flux += np.einsum("fij,fqj->fqi", Fpp, trace_m, optimize=True)
                contrib = np.einsum("qb,q,fqi->fbi", Ep, w, flux, optimize=True)
                contrib *= scale_p[:, None, None]
                out[ep[upd_p]] += contrib[upd_p]

    def _boundary_residual(self, I, out, active=None) -> None:
        ref = self.ref
        w = ref.face_weights
        for grp, (F, scale) in zip(self.boundary_groups, self.boundary_raw):
            elem = grp.elem
            if active is not None:
                sel = active[grp.elem]
                if not np.any(sel):
                    continue
                elem, F, scale = elem[sel], F[sel], scale[sel]
            E = ref.E_minus[grp.face]
            trace = E @ I[elem]
            flux = np.einsum("fij,fqj->fqi", F, trace, optimize=True)
            contrib = np.einsum("qb,q,fqi->fbi", E, w, flux, optimize=True)
            contrib *= scale[:, None, None]
            out[elem] += contrib  # unique per (kind, local face) group


@contextmanager
def reference_solvers():
    """Build every :class:`~repro.core.solver.CoupledSolver` inside the
    block on :class:`ReferenceOperator`."""
    orig = _solver.SpatialOperator
    _solver.SpatialOperator = ReferenceOperator
    try:
        yield
    finally:
        _solver.SpatialOperator = orig
