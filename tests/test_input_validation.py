"""One input-validation policy across every labeling entry point.

``ensure_input`` canonicalises layout oddities (Fortran order,
non-contiguous views, bool/uint16 dtypes, read-only memmaps, binary
floats) and rejects garbage with a typed
:class:`~repro.errors.InputError` — the same outcome whether the pixels
enter through ``label``, ``paremsp``, ``tiled_label``, ``shard_label``,
a registry engine called directly, the streaming labeler, or a
checkpointed job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import label
from repro.ccl.run_based import run_based_vectorized
from repro.ccl.streaming import StreamingLabeler
from repro.checkpoint import TiledJob
from repro.errors import ImageFormatError, InputError, ReproError
from repro.parallel.paremsp import paremsp
from repro.parallel.sharded import shard_label
from repro.parallel.tiled import tiled_label
from repro.types import ensure_input


def _eye(dtype=np.uint8, n=8):
    return np.eye(n, dtype=dtype)


class TestEnsureInput:
    def test_canonical_input_passes_through(self):
        img = _eye()
        out = ensure_input(img)
        assert out is img  # no copy when already canonical

    def test_bool_coerced(self):
        out = ensure_input(_eye(bool))
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, _eye())

    @pytest.mark.parametrize(
        "dtype", [np.uint16, np.int32, np.int64, np.uint64]
    )
    def test_wide_integers_coerced(self, dtype):
        out = ensure_input(_eye(dtype))
        assert out.dtype == np.uint8

    def test_binary_float_coerced(self):
        out = ensure_input(_eye(np.float64))
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, _eye())

    def test_nonbinary_float_rejected(self):
        with pytest.raises(InputError, match="im2bw"):
            ensure_input(np.full((4, 4), 0.5))

    def test_fortran_order_coerced(self):
        out = ensure_input(np.asfortranarray(_eye()))
        assert out.flags.c_contiguous

    def test_noncontiguous_view_coerced(self):
        big = np.zeros((16, 16), dtype=np.uint8)
        big[::2, ::2] = 1
        out = ensure_input(big[::2, ::2])
        assert out.flags.c_contiguous
        assert int(out.sum()) == 64

    def test_readonly_memmap_accepted(self, tmp_path):
        np.save(tmp_path / "img.npy", _eye())
        mm = np.load(tmp_path / "img.npy", mmap_mode="r")
        out = ensure_input(mm)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(np.asarray(out), _eye())

    def test_readonly_array_passes_through(self):
        img = _eye()
        img.setflags(write=False)
        assert ensure_input(img) is img

    @pytest.mark.parametrize("bad", [np.zeros(4), np.zeros((2, 2, 2))])
    def test_wrong_ndim_rejected(self, bad):
        with pytest.raises(InputError, match="2-D"):
            ensure_input(bad)

    @pytest.mark.parametrize(
        "dtype", [np.complex128, object, "U1"]
    )
    def test_exotic_dtypes_rejected(self, dtype):
        with pytest.raises(InputError):
            ensure_input(np.zeros((3, 3), dtype=dtype))

    def test_out_of_range_values_rejected(self):
        with pytest.raises(InputError, match="0"):
            ensure_input(np.array([[0, 2]], dtype=np.uint8))

    def test_ragged_input_rejected(self):
        with pytest.raises(InputError):
            ensure_input([[1, 0], [1]])

    def test_input_error_is_valueerror(self):
        # pre-existing callers catch ValueError; the typed hierarchy
        # must not break them
        assert issubclass(InputError, ValueError)
        assert issubclass(InputError, ReproError)
        assert issubclass(ImageFormatError, InputError)


#: entry points that must all apply the same policy. Each returns
#: something with ``labels``/``n_components``.
ENTRY_POINTS = [
    pytest.param(lambda img: label(img), id="label"),
    pytest.param(
        lambda img: paremsp(img, n_threads=2, backend="serial"),
        id="paremsp",
    ),
    pytest.param(
        lambda img: tiled_label(img, tile_shape=(4, 4)), id="tiled"
    ),
    pytest.param(lambda img: label(img, engine="itequiv"), id="itequiv"),
    pytest.param(
        lambda img: label(img, engine="coarse2fine"), id="coarse2fine"
    ),
    pytest.param(lambda img: label(img, engine="auto"), id="auto"),
    pytest.param(run_based_vectorized, id="run-vectorized"),
    pytest.param(
        lambda img: shard_label(img, n_shards=2, tile_shape=(4, 4)),
        id="shard",
    ),
]


def _n_components(result):
    if isinstance(result, tuple):  # repro.label returns (labels, n)
        return int(result[1])
    return int(result.n_components)


class TestEntryPointsShareThePolicy:
    @pytest.fixture()
    def img(self):
        rng = np.random.default_rng(11)
        return (rng.random((12, 12)) < 0.5).astype(np.uint8)

    @pytest.mark.parametrize("run", ENTRY_POINTS)
    def test_fortran_order_accepted(self, run, img):
        assert _n_components(run(np.asfortranarray(img))) == _n_components(
            run(img)
        )

    @pytest.mark.parametrize("run", ENTRY_POINTS)
    def test_bool_accepted(self, run, img):
        assert _n_components(run(img.astype(bool))) == _n_components(run(img))

    @pytest.mark.parametrize("run", ENTRY_POINTS)
    def test_uint16_accepted(self, run, img):
        assert _n_components(run(img.astype(np.uint16))) == _n_components(
            run(img)
        )

    @pytest.mark.parametrize("run", ENTRY_POINTS)
    def test_nonbinary_rejected(self, run):
        with pytest.raises(InputError):
            run(np.array([[0, 3], [1, 0]], dtype=np.uint8))

    @pytest.mark.parametrize("run", ENTRY_POINTS)
    def test_3d_rejected(self, run):
        with pytest.raises(InputError):
            run(np.zeros((2, 2, 2), dtype=np.uint8))

    @pytest.mark.parametrize(
        "dtype", [np.complex128, object], ids=["complex128", "object"]
    )
    @pytest.mark.parametrize("run", ENTRY_POINTS)
    def test_exotic_dtype_rejected(self, run, dtype):
        with pytest.raises(InputError):
            run(np.eye(8, dtype=dtype))

    def test_tiled_memmap_stays_lazy_but_checked(self, tmp_path):
        """The one lazy rule at its three callers: a memmap's shape is
        checked up front, its values tile by tile."""
        np.save(tmp_path / "img.npy", np.eye(8, dtype=np.uint8))
        mm = np.load(tmp_path / "img.npy", mmap_mode="r")
        np.save(tmp_path / "deep.npy", np.zeros((2, 2, 2), dtype=np.uint8))
        deep = np.load(tmp_path / "deep.npy", mmap_mode="r")
        runs = (
            lambda img: tiled_label(img, tile_shape=(4, 4)),
            lambda img: shard_label(img, n_shards=2, tile_shape=(4, 4)),
            lambda img: TiledJob(
                img, tmp_path / "job.npy", tile_shape=(4, 4)
            ).run(),
        )
        for run in runs:
            assert run(mm).n_components == 1
            with pytest.raises(InputError):
                run(deep)


class TestDegenerateShapesAcrossEngines:
    """0x0, 1xN, Nx1, all-foreground and all-background inputs go
    through the same validation policy and produce the same counts on
    every vectorised engine the registry exposes."""

    ENGINES = ("vectorized", "itequiv", "coarse2fine", "block2x2", "auto")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "shape", [(0, 0), (1, 9), (9, 1), (1, 1)], ids=str
    )
    def test_degenerate_all_foreground(self, engine, shape):
        labels, n = label(np.ones(shape, dtype=np.uint8), engine=engine)
        assert labels.shape == shape
        assert n == (1 if np.prod(shape) else 0)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "shape", [(0, 0), (1, 9), (9, 1), (6, 7)], ids=str
    )
    def test_degenerate_all_background(self, engine, shape):
        labels, n = label(np.zeros(shape, dtype=np.uint8), engine=engine)
        assert labels.shape == shape
        assert n == 0
        assert not labels.any()


class TestStreamingRowValidation:
    def test_bool_and_float_rows_coerced(self):
        lab = StreamingLabeler(4)
        lab.push_row(np.array([1, 0, 1, 0], dtype=bool))
        lab.push_row(np.array([1.0, 0.0, 1.0, 0.0]))
        comps = list(lab.finish())
        assert len(comps) == 2

    def test_wrong_width_rejected(self):
        lab = StreamingLabeler(4)
        with pytest.raises(InputError, match="width"):
            lab.push_row(np.ones(5, dtype=np.uint8))

    def test_bad_values_rejected(self):
        lab = StreamingLabeler(3)
        with pytest.raises(InputError):
            lab.push_row(np.array([0, 1, 2], dtype=np.uint8))

    def test_nonbinary_float_row_rejected(self):
        lab = StreamingLabeler(3)
        with pytest.raises(InputError):
            lab.push_row(np.array([0.0, 0.5, 1.0]))

    def test_exotic_dtype_row_rejected(self):
        lab = StreamingLabeler(2)
        with pytest.raises(InputError):
            lab.push_row(np.array(["a", "b"]))
