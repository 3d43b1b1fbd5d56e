"""Run the byte-pinned flow tests under several OpenBLAS kernels.

The flow integrator's stage sums, its error row and its right-hand side go
through OpenBLAS ``dgemv``, and the convergence slopes through LAPACK; the
summation order and use of FMA of these depend on the kernel OpenBLAS picks
for the CPU.  This script runs ``tests/test_flow_bytes.py`` and
``tests/test_oracle.py`` once per kernel in ``KERNELS``, each in its own
child process with ``OPENBLAS_CORETYPE`` set (honoured by a ``DYNAMIC_ARCH``
build, such as numpy's wheels), and prints the kernel the child loaded and
the ids of the tests that failed under it.  Run it on two commits to see
whether a change moves any pinned byte on any kernel::

    python3 tests/blas_kernels.py [KERNEL ...]

It is not a test module (no ``test_`` prefix), so pytest does not collect it,
and it sets the variable only in its children.  The exit status is 0 when
every child ran to its test summary, whatever failed under it.
"""

import os
import subprocess
import sys
from pathlib import Path

KERNELS = ("SkylakeX", "Haswell", "Zen", "Prescott")
ROOT = Path(__file__).resolve().parents[1]
TESTS = ("tests/test_flow_bytes.py", "tests/test_oracle.py")

#: Prints the kernel the child's OpenBLAS runs, read off numpy's bundled
#: library; "?" where that library is not found.
_CORENAME = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "libscipy_openblas*"))
try:
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    print(get().decode())
except (IndexError, OSError, AttributeError):
    print("?")
"""


def _env(kernel):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run(kernel):
    """``(core the child loaded, failing test ids, summary line)`` under ``kernel``."""
    env = _env(kernel)
    core = subprocess.run([sys.executable, "-c", _CORENAME], env=env, cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p",
                           "no:cacheprovider", *TESTS], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    # "FAILED <node id> - <message>"; a node id may hold spaces
    failed = [line[7:].split(" - ", 1)[0] for line in lines if line.startswith("FAILED ")]
    summary = next((line for line in reversed(lines) if " in " in line), "")
    return core, failed, summary.strip("= ")


def main(argv):
    complete = True
    for kernel in argv or KERNELS:
        core, failed, summary = run(kernel)
        complete = complete and ("passed" in summary or "failed" in summary)
        print(f"{kernel} (core {core}): {len(failed)} failed; {summary}")
        for test_id in failed:
            print(f"  {test_id}")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
