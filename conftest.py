"""Pytest setup for every test directory: one BLAS thread, as the benchmark
runs (``perfbench/run.py``), set before numpy is first imported, so that
bitwise tests compare the same BLAS kernels the benchmark runs."""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
