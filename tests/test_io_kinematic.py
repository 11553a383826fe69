"""Tests for the I/O writers: legacy VTK and receiver archives."""

import numpy as np
import pytest

from repro.analysis.receivers import ReceiverArray
from repro.core.materials import elastic
from repro.core.riemann import FaceKind
from repro.core.solver import CoupledSolver
from repro.io import load_receivers, save_receivers, write_vtk_surface, write_vtk_unstructured
from repro.mesh.generators import box_mesh

ROCK = elastic(2700.0, 6000.0, 3464.0)


def small_solver():
    m = box_mesh(*(np.linspace(0, 2000.0, 5),) * 3, [ROCK])
    m.tag_boundary(lambda c, n: np.full(len(c), FaceKind.ABSORBING.value))
    return CoupledSolver(m, order=2)


class TestVTK:
    def test_volume_writer_roundtrip_structure(self, tmp_path):
        m = box_mesh(*(np.linspace(0, 1, 3),) * 3, [ROCK])
        path = tmp_path / "mesh.vtk"
        write_vtk_unstructured(
            str(path),
            m,
            cell_data={"volume": m.volumes, "centroid": m.centroids},
            point_data={"z": m.vertices[:, 2]},
        )
        text = path.read_text()
        assert f"POINTS {m.n_vertices} double" in text
        assert f"CELLS {m.n_elements} {m.n_elements * 5}" in text
        assert "SCALARS volume double 1" in text
        assert "VECTORS centroid double" in text
        assert "SCALARS z double 1" in text
        # every cell line starts with '4' and indices are in range
        lines = text.splitlines()
        i = lines.index(f"CELLS {m.n_elements} {m.n_elements * 5}")
        for row in lines[i + 1 : i + 1 + m.n_elements]:
            vals = row.split()
            assert vals[0] == "4"
            assert all(0 <= int(v) < m.n_vertices for v in vals[1:])

    def test_volume_writer_validates_lengths(self, tmp_path):
        m = box_mesh(*(np.linspace(0, 1, 3),) * 3, [ROCK])
        with pytest.raises(ValueError):
            write_vtk_unstructured(str(tmp_path / "x.vtk"), m, cell_data={"bad": np.ones(3)})

    def test_surface_writer(self, tmp_path):
        pts = np.random.default_rng(0).random((20, 3))
        path = tmp_path / "surf.vtk"
        write_vtk_surface(str(path), pts, {"eta": np.arange(20.0)})
        text = path.read_text()
        assert "POINTS 20 double" in text
        assert "SCALARS eta double 1" in text


class TestReceiverIO:
    def test_roundtrip(self, tmp_path):
        s = small_solver()
        rec = ReceiverArray(s, np.array([[1000.0, 1000.0, 1000.0]]))
        rec.record()
        s.step()
        rec.record()
        path = tmp_path / "rec.npz"
        save_receivers(str(path), rec, metadata={"scenario": "test", "order": 2})
        t, samples, pos, meta = load_receivers(str(path))
        assert len(t) == 2
        assert samples.shape == (2, 1, 9)
        assert np.allclose(pos, [[1000.0, 1000.0, 1000.0]])
        assert meta["scenario"] == "test"

    def test_rejects_empty(self, tmp_path):
        s = small_solver()
        rec = ReceiverArray(s, np.array([[1000.0, 1000.0, 1000.0]]))
        with pytest.raises(ValueError):
            save_receivers(str(tmp_path / "x.npz"), rec)
