"""The target names golden failures carry: OpenBLAS's kernel and numpy's SIMD level."""

import subprocess
import sys

from blas_kernels import each_kernel, kernel_env


@each_kernel
def test_running_target_names_a_forced_kernel_and_a_capped_numpy(kernel):
    # numpy capped at AVX2 (ROADMAP item 6's second target) under each
    # forced kernel: the message must say both, as the process runs them
    # (OpenBLAS may name a forced kernel by the core it stands for)
    env = {**kernel_env(kernel), "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    proc = subprocess.run(
        [sys.executable, "-c", "import blas_kernels; print(blas_kernels.running_target())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    target = proc.stdout.strip()
    name, numpy, dispatch = target.split(", ")
    assert name.startswith("OpenBLAS kernel ") and name != "OpenBLAS kernel unknown"
    assert numpy.startswith("numpy baseline ")
    assert dispatch.startswith("dispatch ") and "AVX512" not in dispatch
