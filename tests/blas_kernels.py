"""The OpenBLAS kernels a test can force on this CPU through OPENBLAS_CORETYPE.

Cross-kernel tests compare what checks run under each kernel give with what
they give here: `each_kernel` parametrizes a test over the kernels (skipped
off x86-64), and `kernel_checks` runs every per-kernel check under one
kernel in one subprocess, once per test session, skipping the calling test
when this CPU cannot run the kernel.  `running_kernel` names the kernel
this process runs and `numpy_dispatch` the SIMD level of numpy's own
loops (np.tanh, np.exp and the rest, whose bits can differ between
levels); `running_target` names both, for messages that say where a
digest was computed.
"""

import ctypes
import functools
import glob
import json
import os
import platform
import subprocess
import sys

import numpy as np
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


@functools.cache
def running_kernel() -> str:
    """The core name numpy's bundled OpenBLAS picked in this process (what
    OPENBLAS_CORETYPE forces), or "unknown" without a scipy-openblas library."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(np.__file__)))
    for path in glob.glob(os.path.join(root, "numpy.libs", "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


@functools.cache
def numpy_dispatch() -> str:
    """numpy's SIMD level in this process: the baseline it was built for
    and the dispatch targets this CPU enables, less any that
    NPY_DISABLE_CPU_FEATURES turned off (say "baseline X86_V2, dispatch
    X86_V3 X86_V4 AVX512_ICL AVX512_SPR")."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return f"baseline {' '.join(umath.__cpu_baseline__) or 'none'}, dispatch {' '.join(enabled) or 'none'}"


def running_target() -> str:
    """The OpenBLAS kernel and numpy's SIMD level this process runs."""
    return f"OpenBLAS kernel {running_kernel()}, numpy {numpy_dispatch()}"


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


# the tests every kernel runs, each of which must pass there as it does here
KERNEL_TESTS = (
    "test_pointnet.py::test_traced_forward_matches_point_major_reference",
    "test_policy.py::test_padded_forward_matches_checked_composition",
)

_KERNEL_CHECKS = """
import json, sys
import pytest
from test_golden import _env_digests
for node in sys.argv[1:]:
    print("@@test", node, flush=True)
    code = pytest.main(["-q", "-p", "no:cacheprovider", node])
    print("@@exit", int(code), flush=True)
print("@@env", json.dumps(_env_digests()), flush=True)
"""


@functools.cache
def kernel_checks(kernel: str) -> dict:
    """Run KERNEL_TESTS and then test_golden._env_digests() under `kernel`,
    all in one subprocess.  Returns {"tests": {test: (exit code, output)},
    "env": the digests or None, "log": the whole output}; skips the calling
    test if this CPU lacks the kernel."""
    proc = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHECKS, *(os.path.join(TESTS, t) for t in KERNEL_TESTS)],
        env=kernel_env(kernel), capture_output=True, text=True, timeout=600,
    )
    tests, env, node, lines = {}, None, None, []
    for line in proc.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "@@test":
            node, lines = os.path.relpath(rest, TESTS), []
        elif tag == "@@exit":
            tests[node] = (int(rest), "\n".join(lines))
        elif tag == "@@env":
            env = json.loads(rest)
        else:
            lines.append(line)
    return {"tests": tests, "env": env, "log": proc.stdout + proc.stderr}


def kernel_test(kernel: str, test: str) -> tuple[int | None, str]:
    """The exit code and output of one of KERNEL_TESTS under `kernel`;
    (None, the whole output) if the subprocess did not get to report it."""
    run = kernel_checks(kernel)
    return run["tests"].get(test, (None, run["log"]))
