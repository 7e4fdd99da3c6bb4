"""Simulated Windows runtime substrate (DESIGN.md §1–2).

LEAPS consumes nothing but *system event logs with stack walks*; it
never inspects binaries.  This package therefore simulates exactly the
observational surface the detector sees: an address-space layout
(:mod:`repro.winsys.addresses`), binary images with function symbols
(:mod:`repro.winsys.image`), the system library / kernel-module catalog
(:mod:`repro.winsys.libraries`), the syscall/event taxonomy with its
user- and kernel-space call chains (:mod:`repro.winsys.syscalls`), and
process contexts that construct full stack walks
(:mod:`repro.winsys.process`).  Events themselves are synthesized as
columns by :mod:`repro.datasets.fastgen`.

Everything is driven by seeded ``random.Random`` instances — never the
process-global RNG and never the PYTHONHASHSEED-randomized builtin
``hash()`` — so two interpreters building the same machine lay out
byte-identical worlds (DESIGN.md §13 determinism contract).
"""

from repro.winsys.addresses import AddressSpace, Region
from repro.winsys.image import BinaryImage
from repro.winsys.libraries import KERNEL_CATALOG, LIBRARY_CATALOG
from repro.winsys.process import SimulatedProcess, WindowsMachine
from repro.winsys.syscalls import SYSCALLS, SyscallSpec

__all__ = [
    "AddressSpace",
    "Region",
    "BinaryImage",
    "LIBRARY_CATALOG",
    "KERNEL_CATALOG",
    "SYSCALLS",
    "SyscallSpec",
    "SimulatedProcess",
    "WindowsMachine",
]
