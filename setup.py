import os

from setuptools import Extension, setup

# The compiled kernel is optional. Cython builds it from _ckernel.pyx;
# without Cython it is built from the checked-in _ckernel.c that Cython
# generated from the same .pyx. Without a C compiler the extension is
# skipped (optional=True): the package installs pure-Python only and
# hllrt._kernel falls back at import time. Set HLLRT_PURE_BUILD=1 to skip
# the extension on purpose (useful for benchmarking the fallback).
ext_modules = []
if not os.environ.get("HLLRT_PURE_BUILD"):
    kernel = Extension(
        "hllrt._kernel._ckernel",
        ["src/hllrt/_kernel/_ckernel.pyx"],
        extra_compile_args=["-O3"],
        optional=True,
    )
    try:
        from Cython.Build import cythonize
    except ImportError:  # setuptools then builds the .pyx's sibling _ckernel.c
        ext_modules = [kernel]
    else:
        ext_modules = cythonize([kernel], compiler_directives={"language_level": "3"})

setup(ext_modules=ext_modules)
