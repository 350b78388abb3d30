"""Shared types, dtypes and validation helpers.

The whole library standardises on:

* binary images: 2-D :class:`numpy.ndarray` of ``uint8`` with values in
  ``{0, 1}`` (``1`` = object/foreground pixel, ``0`` = background), C-order;
* label images: 2-D :class:`numpy.ndarray` of :data:`LABEL_DTYPE`
  (``int32`` by default) where ``0`` is background and final labels are the
  consecutive integers ``1..K`` (FLATTEN semantics from the paper);
* equivalence arrays ``p``: 1-D arrays of :data:`LABEL_DTYPE` indexed by
  provisional label, ``p[0] == 0`` reserved for background.

Keeping one canonical memory layout matters for the vectorised engines: the
scan phases walk rows, so C-contiguity makes the inner loop stride-1 (see
the cache-effects discussion in the scientific-python optimisation guide).
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

from .errors import ImageFormatError

__all__ = [
    "LABEL_DTYPE",
    "PIXEL_DTYPE",
    "BACKGROUND",
    "FOREGROUND",
    "Connectivity",
    "as_binary_image",
    "binary_pixels",
    "ensure_input",
    "ensure_lazy_input",
    "max_labels_for",
]

#: dtype used for provisional and final labels.
LABEL_DTYPE = np.int32

#: dtype used for binary images.
PIXEL_DTYPE = np.uint8

#: background pixel / label value.
BACKGROUND = 0

#: foreground (object) pixel value.
FOREGROUND = 1


class Connectivity(enum.IntEnum):
    """Pixel connectivity for 2-D images.

    The paper uses 8-connectivity exclusively; 4-connectivity is provided
    as the natural extension (the scan masks degenerate to their
    non-diagonal subsets).
    """

    FOUR = 4
    EIGHT = 8


def _as_array(image: Any) -> np.ndarray:
    try:
        return np.asarray(image)
    except Exception as exc:  # ragged lists, unconvertible objects
        raise ImageFormatError(
            f"image is not convertible to an array: {exc}"
        ) from exc


def _check_2d(arr: np.ndarray) -> None:
    if arr.ndim != 2:
        raise ImageFormatError(
            f"image must be 2-D, got shape {arr.shape!r}"
            + (" (see repro.volume for 3-D labeling)" if arr.ndim == 3 else "")
        )


def _check_kind(arr: np.ndarray, what: str) -> None:
    if arr.dtype.kind not in "buif":
        raise ImageFormatError(
            f"unsupported {what} dtype {arr.dtype!r}; expected a "
            "boolean, integer, or binary float array"
        )


def binary_pixels(arr: np.ndarray, what: str = "image") -> np.ndarray:
    """Return *arr* as ``uint8`` once its dtype and every value pass.

    The dtype-and-value half of :func:`ensure_input`, for an array of
    any shape (the streaming labeler checks one row at a time):

    * ``bool`` is converted;
    * integers pass with one ``max`` reduction, plus a ``min`` for
      signed dtypes, so no boolean temporary is allocated;
    * floats must hold exactly ``0.0`` and ``1.0``;
    * any other dtype kind, and any value outside ``{0, 1}``, raises
      :class:`~repro.errors.ImageFormatError`.

    *what* names the input in error messages. A ``uint8`` array comes
    back as the same object.
    """
    _check_kind(arr, what)
    kind = arr.dtype.kind
    if kind == "f":
        # accept float rasters that are exactly binary (e.g. thresholded
        # images saved as float); anything else needs explicit im2bw
        if arr.size and not np.isin(arr, (0.0, 1.0)).all():
            raise ImageFormatError(
                f"float {what} must contain only 0.0 and 1.0; threshold "
                "it first (repro.data.binarize.im2bw)"
            )
    elif kind != "b" and arr.size and (
        arr.max() > FOREGROUND or (kind == "i" and arr.min() < BACKGROUND)
    ):
        bad = np.unique(arr[(arr < BACKGROUND) | (arr > FOREGROUND)])
        raise ImageFormatError(
            f"{what} may contain only 0 and 1, found {bad[:8]!r}"
        )
    return arr if arr.dtype == PIXEL_DTYPE else arr.astype(PIXEL_DTYPE)


def ensure_input(image: Any) -> np.ndarray:
    """Validate and canonicalise a binary image: the library's one gate.

    Every entry point (``label``, ``label_parallel``/``paremsp``,
    ``tiled_label``, ``shard_label``, the service) calls it, and every
    engine calls it as :data:`as_binary_image`, so an image meets the
    same policy whichever function it enters through:

    * **coerced** — ``bool`` and wider integer dtypes (``uint16``,
      ``int64``, ...), float arrays whose values are exactly ``{0, 1}``,
      Fortran-order and otherwise non-contiguous views, read-only
      buffers/memmaps (copied only when a dtype or layout change forces
      it; a canonical read-only array passes through untouched — the
      engines never write into their input);
    * **rejected** with :class:`~repro.errors.ImageFormatError` (an
      :class:`~repro.errors.InputError`) — non-2-D arrays,
      complex/object/string dtypes, and any value outside ``{0, 1}``
      (see :func:`binary_pixels`).

    Returns a C-contiguous ``uint8`` array with values in ``{0, 1}``;
    input already in that form is returned as the same object. Entry
    points that label a memmap tile by tile use
    :func:`ensure_lazy_input` for it instead.

    >>> import numpy as np
    >>> f = np.asfortranarray(np.eye(3, dtype=np.uint16))
    >>> out = ensure_input(f)
    >>> out.dtype.name, out.flags.c_contiguous
    ('uint8', True)
    """
    arr = _as_array(image)
    _check_2d(arr)
    arr = binary_pixels(arr)
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


#: The engines' name for :func:`ensure_input`: the same function, so a
#: registry engine called directly applies the entry points' policy.
as_binary_image = ensure_input


def ensure_lazy_input(image: Any) -> np.ndarray:
    """Check the shape and dtype kind of *image*, not its pixels.

    The lazy form of :func:`ensure_input` for callers that label an
    image a tile or a row at a time (``tiled_label`` and the shard
    coordinators for memmaps, the checkpointed jobs for any image). The
    values are left to the kernel: each tile goes through
    :data:`as_binary_image` and each row through
    :meth:`~repro.ccl.streaming.StreamingLabeler.push_row`, which apply
    the same :func:`binary_pixels` rule, so a memmap is read once.

    A memmap is returned as it is; anything else as
    :func:`numpy.asarray` gives it. Non-2-D input and unsupported dtype
    kinds raise :class:`~repro.errors.ImageFormatError`.
    """
    arr = image if isinstance(image, np.memmap) else _as_array(image)
    _check_2d(arr)
    _check_kind(arr, "image")
    return arr


def max_labels_for(shape: tuple[int, int]) -> int:
    """Upper bound on provisional labels a scan can allocate for *shape*.

    The CCLREMSP scan allocates at most one label per foreground pixel; the
    AREMSP scan at most one per pixel of each processed pixel pair. Both are
    bounded by the pixel count. ``+1`` accounts for label 0 being reserved
    for background.
    """
    rows, cols = shape
    return rows * cols + 1
