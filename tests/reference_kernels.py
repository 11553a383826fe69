"""Reference (oracle) kernels for the kernel-equivalence battery.

:class:`ReferenceOperator` is a :class:`~repro.core.kernels.SpatialOperator`
that runs the original per-group einsum/quadrature kernels instead of the
fused stacked-GEMM ones: its predictor is the full-width
:func:`repro.core.ader.ck_derivatives`, and its residual kernels evaluate
traces at the face quadrature points through the raw per-face flux
matrices (``Fmm``-``Fpp``, ``F``) every operator plan still carries.  It
is the seed implementation the physics tests validated; the battery in
``tests/test_kernels.py`` pins the fused path to it.

:func:`reference_solvers` installs it into every solver built inside the
``with`` block (serial and partitioned backends alike: restricted
operators keep their parent's class).
"""

from contextlib import contextmanager

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

    def predict_states(self, Q, star, starT=None, out=None):
        """Full-width Cauchy-Kowalewski sweep; ignores the ``out`` hint
        (every call allocates)."""
        return ck_derivatives(Q, star, self.ref)

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
            Ie, starT, tgt = I, self.starT, slice(None)
        else:
            Ie, starT, tgt = I[active], self.starT[active], active
        acc = np.zeros_like(Ie)
        for d in range(3):
            acc += np.matmul(self.ref.deriv[d].T @ Ie, starT[:, d])
        out[tgt] += acc

    def _interior_residual(self, I, out, active=None) -> None:
        ref = self.ref
        w = ref.face_weights
        for grp in self.interior_groups:
            Em = ref.E_minus[grp.minus_face]
            Ep = ref.E_plus[grp.plus_face, grp.perm]
            if active is None:
                em, ep = grp.em, grp.ep
                Fmm, Fpm, Fmp, Fpp = grp.Fmm, grp.Fpm, grp.Fmp, grp.Fpp
                scale_m, scale_p = grp.scale_m, grp.scale_p
                upd_m = upd_p = slice(None)
                do_m = do_p = True
            else:
                # restrict to faces with at least one active side *before*
                # any trace computation (critical for LTS cluster steps)
                am = active[grp.em]
                ap = active[grp.ep]
                sel = am | ap
                if not np.any(sel):
                    continue
                em, ep = grp.em[sel], grp.ep[sel]
                Fmm, Fpm = grp.Fmm[sel], grp.Fpm[sel]
                Fmp, Fpp = grp.Fmp[sel], grp.Fpp[sel]
                scale_m, scale_p = grp.scale_m[sel], grp.scale_p[sel]
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
                if active is None:
                    out[em] += contrib
                else:
                    out[em[upd_m]] += contrib[upd_m]
            if do_p:
                flux = np.einsum("fij,fqj->fqi", Fmp, trace_p, optimize=True)
                flux += np.einsum("fij,fqj->fqi", Fpp, trace_m, optimize=True)
                contrib = np.einsum("qb,q,fqi->fbi", Ep, w, flux, optimize=True)
                contrib *= scale_p[:, None, None]
                if active is None:
                    out[ep] += contrib
                else:
                    out[ep[upd_p]] += contrib[upd_p]

    def _boundary_residual(self, I, out, active=None) -> None:
        ref = self.ref
        w = ref.face_weights
        for grp in self.boundary_groups:
            if active is None:
                elem, F, scale = grp.elem, grp.F, grp.scale
            else:
                sel = active[grp.elem]
                if not np.any(sel):
                    continue
                elem, F, scale = grp.elem[sel], grp.F[sel], grp.scale[sel]
            f = int(grp.face[0])
            E = ref.E_minus[f]
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
