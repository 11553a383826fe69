"""Reference (oracle) kernels for the kernel-equivalence battery.

:class:`ReferenceOperator` is a :class:`~repro.core.kernels.SpatialOperator`
that runs the original per-group einsum/quadrature kernels instead of the
fused stacked-GEMM ones: its predictor is the full-width
:func:`repro.core.ader.ck_derivatives`, and its residual kernels evaluate
traces at the face quadrature points through the raw per-face flux
matrices (``Fmm``-``Fpp``, ``F``) every operator plan still carries.  It
is the seed implementation the physics tests validated; the battery in
``tests/test_kernels.py`` pins the fused path to it.  Besides the owned
sides of a work unit's restricted operator it still offers the retired
``active=`` element mask, as the independent reference the units are
checked against.

:func:`reference_solvers` installs it into every solver built inside the
``with`` block (serial and partitioned backends alike: restricted
operators keep their parent's class, and the oracle's own
:meth:`ReferenceOperator.restricted` re-attaches the raw flux matrices the
lean fused restriction leaves out).
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

    def predict_states(self, Q, starT, out=None):
        """Full-width Cauchy-Kowalewski sweep; ignores the ``out`` hint
        (every call allocates)."""
        return ck_derivatives(Q, starT.transpose(0, 1, 3, 2), self.ref)

    def restricted(self, cells, n_owned):
        """The fused restriction plus the raw per-face flux matrices and
        scales of its faces, looked up by face id."""
        sub = super().restricted(cells, n_owned)
        _attach_raw(self.interior_groups, sub.interior_groups,
                    ("Fmm", "Fpm", "Fmp", "Fpp", "scale_m", "scale_p"))
        _attach_raw(self.boundary_groups, sub.boundary_groups,
                    ("F", "scale"))
        return sub

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
        for grp in self.interior_groups:
            Em = ref.E_minus[grp.minus_face]
            Ep = ref.E_plus[grp.plus_face, grp.perm]
            if active is None:
                # owned sides: every face of a full operator
                em, ep = grp.em, grp.ep
                Fmm, Fpm, Fmp, Fpp = grp.Fmm, grp.Fpm, grp.Fmp, grp.Fpp
                scale_m, scale_p = grp.scale_m, grp.scale_p
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


def _attach_raw(parents, subs, names) -> None:
    """Copy the ``names`` arrays of each sub-group's faces from the parent
    groups holding them (face ids are unique across a group list)."""
    n = max((int(g.face_ids.max()) + 1 for g in parents), default=0)
    gid = np.full(n, -1)
    pos = np.full(n, -1)
    for k, g in enumerate(parents):
        gid[g.face_ids] = k
        pos[g.face_ids] = np.arange(len(g.face_ids))
    for g in subs:
        parent = parents[gid[g.face_ids[0]]]
        for name in names:
            setattr(g, name, getattr(parent, name)[pos[g.face_ids]])


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
