"""The OpenBLAS kernels a test can force on this CPU through OPENBLAS_CORETYPE.

Cross-kernel tests run a script or a test in a subprocess under each kernel
and compare what it prints or asserts: `each_kernel` parametrizes a test over
the kernels (skipped off x86-64), and `kernel_env` gives the subprocess its
environment, skipping the test when this CPU cannot run the kernel.
"""

import os
import platform

import pytest

# what each OPENBLAS_CORETYPE kernel needs of the CPU, as /proc/cpuinfo names it
KERNEL_FLAGS = {
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "Prescott": {"pni"},
}

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _cpu_flags():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh if line.startswith("flags")), set())
    except OSError:
        return set()


def each_kernel(test):
    """Run `test(kernel, ...)` once per kernel in KERNEL_FLAGS, on x86-64 only."""
    test = pytest.mark.parametrize("kernel", list(KERNEL_FLAGS))(test)
    return pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels",
    )(test)


def kernel_env(kernel: str) -> dict:
    """os.environ with OPENBLAS_CORETYPE set to `kernel` and src/ and tests/
    on PYTHONPATH; skips the calling test if this CPU lacks the kernel."""
    missing = KERNEL_FLAGS[kernel] - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU cannot run the {kernel} kernel: no {', '.join(sorted(missing))}")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS]), "OPENBLAS_CORETYPE": kernel}
