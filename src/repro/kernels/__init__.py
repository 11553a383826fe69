"""Fused modal-state kernels: compiled contraction chains for ADER-DG.

This package is the one kernel path of the spatial operator
(:class:`repro.core.kernels.SpatialOperator`).  It closes the
predictor/corrector roofline gap of plain per-group einsums the way
Krenz et al. (SC 2021) do with generated kernels: the per-element
contraction chains are *compiled* at plan time into a short sequence of
stacked GEMMs over contiguous modal-state arrays, with everything that
does not depend on the state (degree-truncated derivative stacks,
quadrature-folded surface projectors, scale-folded flux matrices) hoisted
out of the step loop.  See :mod:`repro.kernels.fusion`.

The original einsum/quadrature kernels live on only as the test oracle
(``tests/reference_kernels.py``); the equivalence battery pins the fused
results to them up to floating-point reassociation (~1e-15 relative).
"""
