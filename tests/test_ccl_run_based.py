"""Run extraction and the two RUN engines."""

from __future__ import annotations

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ccl import aremsp
from repro.ccl.run_based import (
    extract_runs,
    row_runs,
    run_based,
    run_based_vectorized,
    scan_runs_chunk,
)
from repro.parallel import paremsp
from repro.types import LABEL_DTYPE
from repro.verify import flood_fill_label, labelings_equivalent

# the module, not the function ``repro.ccl`` re-exports under its name
run_based_module = importlib.import_module("repro.ccl.run_based")


class TestRowRuns:
    def test_empty_row(self):
        assert row_runs(np.zeros(5, dtype=np.uint8)) == []

    def test_full_row(self):
        assert row_runs(np.ones(4, dtype=np.uint8)) == [(0, 4)]

    def test_single_pixel_runs(self):
        row = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
        assert row_runs(row) == [(0, 1), (2, 3), (4, 5)]

    def test_runs_at_edges(self):
        row = np.array([1, 1, 0, 0, 1, 1], dtype=np.uint8)
        assert row_runs(row) == [(0, 2), (4, 6)]

    @given(
        row=hnp.arrays(
            dtype=np.uint8,
            shape=st.integers(1, 40),
            elements=st.integers(0, 1),
        )
    )
    def test_property_runs_reconstruct_row(self, row):
        painted = np.zeros_like(row)
        for s, e in row_runs(row):
            assert s < e
            painted[s:e] = 1
        assert np.array_equal(painted, row)


class TestExtractRuns:
    def test_matches_per_row_extraction(self, structural_image):
        img = np.asarray(structural_image, dtype=np.uint8)
        rr, ss, ee = extract_runs(img)
        per_row: list[tuple[int, int, int]] = []
        for r in range(img.shape[0]):
            for s, e in row_runs(img[r]):
                per_row.append((r, s, e))
        assert per_row == list(zip(rr.tolist(), ss.tolist(), ee.tolist()))

    def test_empty_image(self):
        rr, ss, ee = extract_runs(np.zeros((0, 0), dtype=np.uint8))
        assert len(rr) == len(ss) == len(ee) == 0

    def test_runs_in_raster_order(self, rng):
        img = (rng.random((12, 12)) < 0.5).astype(np.uint8)
        rr, ss, _ = extract_runs(img)
        keys = list(zip(rr.tolist(), ss.tolist()))
        assert keys == sorted(keys)


@pytest.mark.parametrize("engine", [run_based, run_based_vectorized])
@pytest.mark.parametrize("connectivity", [4, 8])
def test_engines_match_oracle(engine, connectivity, structural_image):
    expected, n = flood_fill_label(structural_image, connectivity)
    result = engine(structural_image, connectivity)
    assert result.n_components == n
    assert labelings_equivalent(result.labels, expected)


def test_engines_bit_identical(structural_image):
    a = run_based(structural_image, 8)
    b = run_based_vectorized(structural_image, 8)
    assert np.array_equal(a.labels, b.labels)
    assert a.n_components == b.n_components
    # provisional semantics differ by design: the interpreter engine
    # allocates a label only for runs with no connected predecessor,
    # the vectorised engine ids every run.
    assert a.provisional_count <= b.provisional_count


@given(
    img=hnp.arrays(
        dtype=np.uint8,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        elements=st.integers(0, 1),
    ),
    connectivity=st.sampled_from([4, 8]),
)
def test_property_engines_agree(img, connectivity):
    a = run_based(img, connectivity)
    b = run_based_vectorized(img, connectivity)
    assert np.array_equal(a.labels, b.labels)


def test_provisional_count_equals_run_count(rng):
    img = (rng.random((20, 20)) < 0.5).astype(np.uint8)
    result = run_based_vectorized(img, 8)
    _, ss, _ = extract_runs(img)
    assert result.provisional_count == len(ss)


def test_vectorized_4conn_touching_diagonal_runs_stay_separate():
    img = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ],
        dtype=np.uint8,
    )
    r4 = run_based_vectorized(img, 4)
    r8 = run_based_vectorized(img, 8)
    assert r4.n_components == 2
    assert r8.n_components == 1


def test_large_random_against_scipy():
    from repro.verify import have_scipy, scipy_label

    if not have_scipy():
        pytest.skip("scipy not installed")
    rng = np.random.default_rng(7)
    img = (rng.random((300, 257)) < 0.42).astype(np.uint8)
    _, n = scipy_label(img, 8)
    result = run_based_vectorized(img, 8)
    assert result.n_components == n


def test_multiband_random_against_scipy():
    from repro.verify import have_scipy, scipy_label

    if not have_scipy():
        pytest.skip("scipy not installed")
    rng = np.random.default_rng(7)
    img = (rng.random((1200, 1100)) < 0.42).astype(np.uint8)
    # 11 bands of 119 rows: components cross every seam
    assert run_based_module._band_rows(img.shape[1]) < img.shape[0]
    n_runs = len(extract_runs(img)[1])
    for connectivity in (4, 8):
        expected, n = scipy_label(img, connectivity)
        result = run_based_vectorized(img, connectivity)
        assert result.n_components == n
        assert labelings_equivalent(result.labels, expected)
        assert result.provisional_count == n_runs


def _bands_of(pixels: int):
    """Shrink the run kernels' bands: 1 px gives 1-row bands (2-row
    bands for PAREMSP's pair-aligned chunk scan), more a few rows."""
    return mock.patch.object(run_based_module, "_BAND_PIXELS", pixels)


BAND_PIXELS = [1, 7, 24]
SEAM_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 9), (9, 1), (2, 3), (7, 6), (13, 5)]
seam_images = hnp.arrays(
    dtype=np.uint8,
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=20),
    elements=st.integers(0, 1),
)


class TestBandSeams:
    """Images cut into many bands, so the seam union does the joining.

    Every other test image fits in one band of the default size."""

    @pytest.mark.parametrize("pixels", BAND_PIXELS)
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_engine_matches_interpreter(
        self, pixels, connectivity, structural_image
    ):
        expected = run_based(structural_image, connectivity)
        with _bands_of(pixels):
            result = run_based_vectorized(structural_image, connectivity)
        assert np.array_equal(result.labels, expected.labels)
        assert result.n_components == expected.n_components
        assert result.provisional_count == len(extract_runs(structural_image)[1])

    @pytest.mark.parametrize("shape", SEAM_SHAPES)
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_shapes_match_interpreter(self, shape, connectivity, rng):
        img = (rng.random(shape) < 0.5).astype(np.uint8)
        expected = run_based(img, connectivity)
        with _bands_of(1):
            result = run_based_vectorized(img, connectivity)
        assert result.labels.shape == shape
        assert np.array_equal(result.labels, expected.labels)
        assert result.n_components == expected.n_components

    @given(
        img=seam_images,
        pixels=st.sampled_from(BAND_PIXELS),
        connectivity=st.sampled_from([4, 8]),
    )
    def test_property_engine_matches_interpreter(self, img, pixels, connectivity):
        expected = run_based(img, connectivity)
        with _bands_of(pixels):
            result = run_based_vectorized(img, connectivity)
        assert np.array_equal(result.labels, expected.labels)
        assert result.n_components == expected.n_components

    @given(
        img=seam_images,
        pixels=st.sampled_from(BAND_PIXELS),
        connectivity=st.sampled_from([4, 8]),
        label_start=st.integers(1, 60),
    )
    def test_property_chunk_scan_independent_of_bands(
        self, img, pixels, connectivity, label_start
    ):
        labels, used, p_slice = scan_runs_chunk(img, label_start, connectivity)
        # a stale value anywhere in *out* would show: every pixel is painted
        out = np.full(img.shape, -1, dtype=LABEL_DTYPE)
        with _bands_of(pixels):
            got = scan_runs_chunk(img, label_start, connectivity, out=out)
        assert got[0] is out
        assert np.array_equal(got[0], labels)
        assert got[1] == used
        assert np.array_equal(got[2], p_slice)
        assert got[2].dtype == p_slice.dtype

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_paremsp_byte_identical_to_aremsp(self, backend, connectivity, rng):
        # a forked chunk worker inherits the patched band size
        for pixels in BAND_PIXELS:
            for shape in SEAM_SHAPES + [(16, 11)]:
                img = (rng.random(shape) < 0.45).astype(np.uint8)
                seq = aremsp(img, connectivity)
                with _bands_of(pixels):
                    result = paremsp(
                        img,
                        n_threads=2,
                        backend=backend,
                        connectivity=connectivity,
                        engine="vectorized",
                    )
                assert result.n_components == seq.n_components
                assert np.array_equal(result.labels, seq.labels)
