"""The one shape-agreement rule: every pairwise shape check, and every
check left to the owner of that comparison, raises ShapeMismatchError
naming both shapes."""

import numpy as np
import pytest

import stridect as st
from stridect.corrector import data_consistency, fit_linear_alignment
from stridect.diffusion import linear_schedule
from stridect.errors import ShapeMismatchError, require_shape
from stridect.evalkit import mse, psnr, ssim
from stridect.pipeline import coarse_generate


def test_require_shape():
    require_shape((3, 4), (3, 4), "x")
    with pytest.raises(ShapeMismatchError) as e:
        require_shape((3, 4), (4, 3), "x")
    assert str(e.value) == "x of shape (3, 4), expected (4, 3)"


def _sino(n_views):
    return st.Sinogram(np.zeros((n_views, 16)), st.desk_geometry(n_views, 16, 16))


def _mixed_sidecar(tmp_path):
    # the payload header says (6, 16); the sidecar describes 12 views
    st.write_sinogram(tmp_path / "six.bin", _sino(6))
    st.write_sinogram(tmp_path / "twelve.bin", _sino(12))
    (tmp_path / "six.bin.geom").write_bytes((tmp_path / "twelve.bin.geom").read_bytes())
    return st.read_sinogram(tmp_path / "six.bin")


GRID = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
FAST = st.PipelineConfig(ddim_steps=2, corrector=st.CorrectorConfig(n_steps=0))
ACTIVE6 = st.make_sparse_mask(6, 3).active

# (site, call on a tmp_path, the two shapes its message must name)
SITES = [
    ("apply_sparse_guidance", lambda _: st.apply_sparse_guidance(
        np.zeros((6, 4)), np.zeros((5, 4)), ACTIVE6, 0.5), (5, 4), (6, 4)),
    ("coarse_generate", lambda _: coarse_generate(
        np.zeros((5, 4)), np.zeros((6, 4)), ACTIVE6, None, linear_schedule(), FAST, None),
     (5, 4), (6, 4)),
    ("reference sinogram", lambda _: st.stride_reconstruct(
        _sino(12), st.make_sparse_mask(12, 3), GRID, FAST, reference=_sino(6)),
     (6, 16), (12, 16)),
    ("reference image", lambda _: st.stride_reconstruct(
        _sino(12), st.make_sparse_mask(12, 3), GRID, FAST,
        reference_image=st.ImageGrid(8, 8, 1.0, np.zeros((8, 8)))), (8, 8), (16, 16)),
    ("fit_linear_alignment", lambda _: fit_linear_alignment(
        np.zeros((5, 4)), np.zeros((6, 4)), ACTIVE6), (5, 4), (6, 4)),
    ("data_consistency", lambda _: data_consistency(
        np.zeros((6, 4)), np.zeros((5, 4)), ACTIVE6), (5, 4), (6, 4)),
    ("mse", lambda _: mse(np.zeros((8, 8)), np.zeros((8, 9))), (8, 9), (8, 8)),
    ("psnr", lambda _: psnr(np.zeros((8, 8)), np.zeros((8, 9))), (8, 9), (8, 8)),
    ("ssim", lambda _: ssim(np.zeros((8, 8)), np.zeros((8, 9))), (8, 9), (8, 8)),
    ("ImageGrid values", lambda _: st.ImageGrid(4, 3, 1.0, np.zeros((4, 3))),
     (4, 3), (3, 4)),
    ("Sinogram values", lambda _: st.Sinogram(np.zeros((6, 16)), st.desk_geometry(12, 16, 16)),
     (6, 16), (12, 16)),
    # checks left to the comparison's owner: Sinogram, then row_flags twice
    ("read_sinogram", _mixed_sidecar, (6, 16), (12, 16)),
    ("stride_reconstruct mask", lambda _: st.stride_reconstruct(
        _sino(12), st.make_sparse_mask(9, 3), GRID, FAST), (9,), (12, 16)),
    ("extract_active_views mask", lambda _: st.extract_active_views(
        _sino(12), st.make_sparse_mask(9, 3)), (9,), (12, 16)),
]


@pytest.mark.parametrize("call, got, expected", [s[1:] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_every_shape_check_names_both_shapes(call, got, expected, tmp_path):
    with pytest.raises(ShapeMismatchError) as e:
        call(tmp_path)
    assert str(got) in str(e.value) and str(expected) in str(e.value), str(e.value)
