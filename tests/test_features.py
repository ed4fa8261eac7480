import numpy as np
import pytest

from fixtures import concave_hole_plate, cube, sphere

from atlasmesh.features import detect_feature_edges, dihedral_angles, segment_patches
from atlasmesh.mesh import Adjacency, MeshError


def test_cube_creases():
    m = cube()
    adj = Adjacency(m)
    feats = detect_feature_edges(m, adj, 40.0)
    assert feats.sum() == 12  # the quad edges, not the face diagonals
    assert dihedral_angles(m, adj)[feats] == pytest.approx(90.0)
    labels = segment_patches(m, adj, feats)
    assert np.bincount(labels).tolist() == [2] * 6


def test_smooth_surface_has_no_features():
    m = sphere(3)
    adj = Adjacency(m)
    feats = detect_feature_edges(m, adj, 40.0)
    assert not feats.any()
    assert (segment_patches(m, adj, feats) == 0).all()


def test_threshold_180_disables_interior_detection():
    m = cube()
    adj = Adjacency(m)
    feats = detect_feature_edges(m, adj, 180.0)
    assert not feats.any()
    assert (segment_patches(m, adj, feats) == 0).all()


def test_boundary_edges_always_tagged():
    m = concave_hole_plate()
    adj = Adjacency(m)
    feats = detect_feature_edges(m, adj, 40.0)
    assert adj.has_boundary
    assert feats[adj.edge_count == 1].all()


def test_threshold_validation():
    m = cube()
    adj = Adjacency(m)
    with pytest.raises(MeshError):
        detect_feature_edges(m, adj, 0.0)
    with pytest.raises(MeshError):
        detect_feature_edges(m, adj, 181.0)


def test_low_threshold_splits_sphere():
    m = sphere(1)
    adj = Adjacency(m)
    feats = detect_feature_edges(m, adj, 5.0)
    labels = segment_patches(m, adj, feats)
    assert labels.shape == (m.n_triangles,)
    assert labels.min() == 0 and labels.max() > 0
    assert (np.bincount(labels) > 0).all()  # every label in 0..max is used
