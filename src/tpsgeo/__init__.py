"""Exact and numeric differential geometry of thermodynamic phase space."""

import os

# tpsgeo runs on one thread.  Its numeric layer makes only 2x2 to 4x4
# BLAS/LAPACK calls, which OpenBLAS never splits across threads, yet the
# worker pool OpenBLAS starts when numpy loads still costs CPU while it idles.
# The pool is therefore capped here, before any tpsgeo module imports numpy.
# A non-empty value set by the user wins; if numpy was imported first, the
# pool has already started and this has no effect.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
