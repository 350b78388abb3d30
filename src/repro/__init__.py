"""repro — a reproduction of *"A New Parallel Algorithm for Two-Pass
Connected Component Labeling"* (Gupta, Palsetia, Patwary, Agrawal,
Choudhary; IPPS workshops 2014 / arXiv:1606.05973).

The package provides:

* the paper's proposed sequential algorithms **CCLREMSP** and **AREMSP**
  and its parallel algorithm **PAREMSP** (:mod:`repro.ccl`,
  :mod:`repro.parallel`);
* every baseline they are compared against (CCLLRPC, ARUN, RUN,
  multipass, Suzuki) and the full union-find substrate including Rem's
  algorithm with splicing and its lock-based parallel variant
  (:mod:`repro.unionfind`);
* synthetic stand-ins for the paper's four image suites and a simulated
  shared-memory machine for the scaling experiments (:mod:`repro.data`,
  :mod:`repro.simmachine`);
* benchmark harnesses regenerating every table and figure of the
  evaluation (:mod:`repro.bench`, ``python -m repro.bench``).

Quick start::

    import numpy as np
    import repro

    image = (np.random.default_rng(0).random((256, 256)) < 0.4)
    labels, n = repro.label(image)            # AREMSP, the paper's best
    result = repro.ccl.aremsp(image)          # full result object
    par = repro.label_parallel(image, n_threads=4)   # PAREMSP
"""

from __future__ import annotations

import numpy as np

from . import (
    analysis,
    ccl,
    checkpoint,
    data,
    mp,
    obs,
    parallel,
    service,
    simmachine,
    unionfind,
    verify,
    volume,
)
from .ccl import CCLResult
from .ccl.grayscale import grayscale_label
from .ccl.registry import get_algorithm
from .obs import TraceRecorder, use_recorder
from .parallel.distributed import distributed_label
from .parallel.paremsp import paremsp
from .parallel.tiled import tiled_label
from .types import Connectivity, ensure_input
from .volume import volume_label

__version__ = "1.10.0"

__all__ = [
    "label",
    "label_parallel",
    "paremsp",
    "grayscale_label",
    "volume_label",
    "tiled_label",
    "distributed_label",
    "CCLResult",
    "Connectivity",
    "TraceRecorder",
    "use_recorder",
    "ensure_input",
    "ccl",
    "checkpoint",
    "parallel",
    "unionfind",
    "data",
    "verify",
    "simmachine",
    "analysis",
    "volume",
    "obs",
    "mp",
    "service",
]


def label(
    image: np.ndarray,
    algorithm: str = "aremsp",
    connectivity: int = 8,
    engine: str | None = None,
) -> tuple[np.ndarray, int]:
    """Label connected components of a binary *image*.

    Parameters
    ----------
    image:
        2-D array-like; nonzero == foreground (validated to {0, 1}).
    algorithm:
        Registry name; default is the paper's fastest sequential
        algorithm, AREMSP. See :data:`repro.ccl.registry.ALGORITHMS`.
    connectivity:
        8 (paper default) or 4.
    engine:
        ``None`` (the named algorithm as published), ``"vectorized"``
        as a convenience alias for the NumPy run-based engine,
        or any registry name (``"auto"``, ``"itequiv"``,
        ``"coarse2fine"``, ``"block2x2"``, ...) to force that kernel;
        none of those beat ``"vectorized"`` on the benchmark rasters
        (``docs/ALGORITHMS.md``).

    Returns
    -------
    (labels, n_components):
        ``int32`` label image (background 0, components ``1..K`` in
        raster first-appearance order) and the component count.
    """
    if engine == "vectorized":
        fn = get_algorithm("run-vectorized")
    elif engine in (None, "python"):
        fn = get_algorithm(algorithm)
    else:
        fn = get_algorithm(engine)  # registry names incl. "auto"
    result = fn(ensure_input(image), connectivity)
    return result.labels, result.n_components


def label_parallel(
    image: np.ndarray,
    n_threads: int = 4,
    backend: str = "serial",
    connectivity: int = 8,
    engine: str = "interpreter",
) -> tuple[np.ndarray, int]:
    """Label *image* with PAREMSP (parallel AREMSP) and return
    ``(labels, n_components)``; *engine* selects the per-chunk scan
    kernel (``interpreter`` is the paper-faithful default,
    ``vectorized`` the NumPy fast path). See
    :func:`repro.parallel.paremsp` for the full-result API, backend and
    engine semantics."""
    result = paremsp(
        image,
        n_threads=n_threads,
        backend=backend,
        connectivity=connectivity,
        engine=engine,
    )
    return result.labels, result.n_components
