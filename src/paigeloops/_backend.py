"""The package's kernel module, `_kernels_py`, under the name `kernels`.

The package imports `_kernels_py` directly; this name stays for code
outside the package that looks the kernel module up here.
"""

from . import _kernels_py as kernels
