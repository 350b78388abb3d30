"""Canonical types, validation, and the exception hierarchy."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

import repro
from repro.errors import (
    BackendError,
    CostModelError,
    ImageFormatError,
    LabelOverflowError,
    PartitionError,
    ReproError,
    UnknownAlgorithmError,
)
from repro.types import (
    BACKGROUND,
    FOREGROUND,
    LABEL_DTYPE,
    Connectivity,
    as_binary_image,
    max_labels_for,
)


class TestAsBinaryImage:
    def test_uint8_passthrough_contiguous(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        out = as_binary_image(img)
        assert out.dtype == np.uint8
        assert out.flags["C_CONTIGUOUS"]

    def test_bool_converted(self):
        out = as_binary_image(np.ones((2, 2), dtype=bool))
        assert out.dtype == np.uint8
        assert out.tolist() == [[1, 1], [1, 1]]

    def test_int_values_validated(self):
        with pytest.raises(ImageFormatError):
            as_binary_image(np.array([[0, 2]]))

    def test_negative_values_rejected(self):
        with pytest.raises(ImageFormatError):
            as_binary_image(np.array([[0, -1]]))

    def test_non_2d_rejected(self):
        with pytest.raises(ImageFormatError):
            as_binary_image(np.zeros(4))
        with pytest.raises(ImageFormatError):
            as_binary_image(np.zeros((2, 2, 2)))

    def test_list_input(self):
        out = as_binary_image([[0, 1], [1, 0]])
        assert out.dtype == np.uint8

    def test_fortran_order_made_contiguous(self):
        img = np.asfortranarray(np.zeros((4, 6), dtype=np.uint8))
        assert as_binary_image(img).flags["C_CONTIGUOUS"]

    def test_empty_ok(self):
        assert as_binary_image(np.zeros((0, 0))).shape == (0, 0)


def test_connectivity_enum():
    assert Connectivity(4) is Connectivity.FOUR
    assert Connectivity(8) is Connectivity.EIGHT
    with pytest.raises(ValueError):
        Connectivity(6)


def test_constants():
    assert BACKGROUND == 0
    assert FOREGROUND == 1
    assert LABEL_DTYPE == np.int32


def test_max_labels_for():
    assert max_labels_for((3, 4)) == 13


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ImageFormatError,
            LabelOverflowError,
            PartitionError,
            UnknownAlgorithmError,
            BackendError,
            CostModelError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_dual_inheritance(self):
        assert issubclass(ImageFormatError, ValueError)
        assert issubclass(PartitionError, ValueError)
        assert issubclass(UnknownAlgorithmError, KeyError)
        assert issubclass(BackendError, RuntimeError)
        assert issubclass(LabelOverflowError, OverflowError)


class TestTopLevelAPI:
    def test_label_default(self, rng):
        img = (rng.random((12, 12)) < 0.5).astype(np.uint8)
        labels, n = repro.label(img)
        assert labels.shape == img.shape
        assert n == int(labels.max())

    def test_label_algorithm_selection(self, rng):
        img = (rng.random((10, 10)) < 0.5).astype(np.uint8)
        a, na = repro.label(img, algorithm="ccllrpc")
        b, nb = repro.label(img, algorithm="aremsp")
        assert na == nb

    def test_label_vectorized_engine(self, rng):
        img = (rng.random((10, 10)) < 0.5).astype(np.uint8)
        _, n1 = repro.label(img, engine="vectorized")
        _, n2 = repro.label(img)
        assert n1 == n2

    def test_label_bad_engine(self):
        # engine names resolve through the registry now, so a bad one is
        # the same typed error as a bad algorithm, with suggestions
        with pytest.raises(UnknownAlgorithmError, match="available"):
            repro.label(np.zeros((2, 2)), engine="cuda")

    def test_label_registry_engine_names(self):
        img = np.eye(6, dtype=np.uint8)
        for engine in ("itequiv", "coarse2fine", "auto"):
            _, n = repro.label(img, engine=engine)
            assert n == 1

    def test_label_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithmError):
            repro.label(np.zeros((2, 2)), algorithm="fancy")

    def test_unknown_algorithm_error_lists_names_and_suggests(self):
        from repro.ccl.registry import ALGORITHMS, get_algorithm

        with pytest.raises(UnknownAlgorithmError) as excinfo:
            get_algorithm("aremps")  # transposed typo
        message = str(excinfo.value)
        assert "aremsp" in message  # the nearest-match suggestion
        for name in ALGORITHMS:  # and the full roster
            assert name in message

    def test_unknown_algorithm_error_without_near_miss(self):
        from repro.ccl.registry import get_algorithm

        with pytest.raises(UnknownAlgorithmError, match="available"):
            get_algorithm("zzzzzz")

    def test_label_parallel(self, rng):
        img = (rng.random((14, 14)) < 0.5).astype(np.uint8)
        labels, n = repro.label_parallel(img, n_threads=3)
        ref, nref = repro.label(img)
        assert n == nref

    def test_version(self):
        # a regex, not tomllib: Python 3.10 has no TOML reader
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        match = re.search(
            r'^\[project\][^\[]*?^version\s*=\s*"([^"]+)"',
            pyproject.read_text(),
            re.MULTILINE | re.DOTALL,
        )
        assert match, "no [project].version in pyproject.toml"
        assert repro.__version__ == match.group(1)
