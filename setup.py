from setuptools import Extension, setup

# The compiled kernel is optional: without a C compiler the extension is
# skipped, the package installs pure-Python only and hllrt._kernel falls
# back at import time.
setup(ext_modules=[Extension("hllrt._kernel._ckernel", ["src/hllrt/_kernel/_ckernel.c"],
                             extra_compile_args=["-O3"], optional=True)])
