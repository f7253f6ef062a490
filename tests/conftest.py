import importlib.machinery
import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # respserver helper

from hllrt._kernel import _pykernel

C_SOURCE = Path(_pykernel.__file__).with_name("_ckernel.c")


def build_c_kernel(out_dir: Path):
    """Compile ``C_SOURCE`` into ``out_dir`` and load it; None without a compiler.

    Uses the compiler, flags and include path this interpreter was built
    with, plus ``-Wall -Werror``, so a new warning fails the run.
    """
    compiler = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not compiler or shutil.which(compiler[0]) is None:
        return None
    target = out_dir / ("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    command = [
        *compiler,
        *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
        "-O3", "-Wall", "-Werror",
        "-I", sysconfig.get_paths()["include"],
        str(C_SOURCE), "-o", str(target),
    ]
    built = subprocess.run(command, capture_output=True, text=True)
    if built.returncode:
        pytest.fail(f"{shlex.join(command)}\n{built.stdout}{built.stderr}", pytrace=False)
    loader = importlib.machinery.ExtensionFileLoader("hllrt._kernel._ckernel", str(target))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fresh_c_kernel(tmp_path_factory):
    """The C twin built from this tree for this session, or None without a compiler.

    Always a fresh build in a temporary directory. It never loads an
    ``_ckernel*.so`` from ``src/``, so a stale build cannot hide a defect,
    and never writes one there, so the backend this run selects is unchanged.
    """
    return build_c_kernel(tmp_path_factory.mktemp("ckernel"))


@pytest.fixture(scope="session")
def pure_kernel():
    return _pykernel


@pytest.fixture(scope="session")
def compiled_kernel(fresh_c_kernel):
    if fresh_c_kernel is None:
        pytest.skip("no C compiler")
    return fresh_c_kernel


@pytest.fixture(scope="session")
def kernels(fresh_c_kernel):
    """Both twins; the pure one alone when there is no C compiler."""
    return [kernel for kernel in (_pykernel, fresh_c_kernel) if kernel is not None]
