"""Process contexts and stack-walk construction.

A :class:`WindowsMachine` owns the shared system image layout (DLLs,
drivers, kernel); each :class:`SimulatedProcess` owns its private
address space (the main executable image plus any runtime-allocated
payload regions) and resolves ``(module, function)`` nodes to concrete
addresses.  :meth:`SimulatedProcess.walk` builds one event's stack
walk — app frames first (outermost at index 0), then the syscall's
user-space DLL chain, then its kernel chain, exactly the frame order the
parser and stack partitioner expect; the generator
(:func:`repro.datasets.fastgen.build_emission_table`) resolves each
distinct emission through it once.

Determinism: the machine seeds one ``random.Random`` per concern from
its seed string (system layout, each app image), so a fixed seed
reproduces identical worlds in any interpreter process.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.etw.events import FrameNode, StackFrame
from repro.winsys.addresses import AddressSpace
from repro.winsys.image import BinaryImage
from repro.winsys.libraries import build_system_images
from repro.winsys.syscalls import SyscallSpec


class ResolutionError(KeyError):
    """A walk references a module no image provides."""


class WindowsMachine:
    """The shared OS half of a scenario: one system-image layout."""

    def __init__(self, seed: str):
        self.seed = seed
        rng = random.Random(f"leaps-winsys:{seed}:layout")
        self.system_space = AddressSpace()
        self.system_images: Dict[str, BinaryImage] = build_system_images(
            self.system_space, rng
        )
        self._next_pid = 1000

    def spawn(
        self,
        exe: str,
        functions: Iterable[str],
        *,
        image_size: int = 0x200000,
        pid: Optional[int] = None,
    ) -> "SimulatedProcess":
        """A new process running ``exe`` with the given app functions.

        Symbol placement derives from the machine seed and the exe name,
        so every spawn of the same app on the same machine lays the
        image out identically (pids are allocated sequentially).
        """
        if pid is None:
            pid = self._next_pid
            self._next_pid += 100
        rng = random.Random(f"leaps-winsys:{self.seed}:image:{exe}")
        space = AddressSpace()
        image = BinaryImage(exe, space.map_app_image(exe, image_size))
        image.add_functions(functions, rng)
        return SimulatedProcess(self, space, image, pid)


class SimulatedProcess:
    """One process: private address space + module resolution."""

    def __init__(
        self,
        machine: WindowsMachine,
        space: AddressSpace,
        image: BinaryImage,
        pid: int,
    ):
        self.machine = machine
        self.space = space
        self.image = image
        self.pid = pid
        self.main_tid = pid + 4
        self._images: Dict[str, BinaryImage] = {image.name: image}

    @property
    def name(self) -> str:
        return self.image.name

    def add_image(self, image: BinaryImage) -> BinaryImage:
        """Register a runtime-mapped module (an injected payload
        region) for frame resolution."""
        self._images[image.name] = image
        return image

    def map_payload_region(
        self, module: str, functions: Iterable[str], rng: random.Random,
        size: int = 0x40000,
    ) -> BinaryImage:
        """``VirtualAlloc`` a region and give it a symbol table — the
        online-injection landing pad.  ``module`` is usually
        ``"<unknown>"``: injected code runs outside any loaded image, so
        the stack walker cannot attribute it."""
        region = self.space.map_alloc(f"{module}#{len(self._images)}", size, rng)
        image = BinaryImage(module, region)
        image.add_functions(functions, rng)
        return self.add_image(image)

    def resolve(self, node: FrameNode) -> int:
        """Concrete address of a ``(module, function)`` node."""
        module, function = node
        image = self._images.get(module)
        if image is None:
            image = self.machine.system_images.get(module)
        if image is None:
            raise ResolutionError(f"no image for module {module!r}")
        return image.address_of(function)

    def walk(
        self, app_path: Sequence[FrameNode], syscall: SyscallSpec
    ) -> Tuple[StackFrame, ...]:
        """Construct the full stack walk for one event: the app-space
        call path followed by the syscall's system chain."""
        frames: List[StackFrame] = []
        for node in app_path:
            frames.append(
                StackFrame(
                    index=len(frames),
                    module=node[0],
                    function=node[1],
                    address=self.resolve(node),
                )
            )
        for node in syscall.system_chain:
            frames.append(
                StackFrame(
                    index=len(frames),
                    module=node[0],
                    function=node[1],
                    address=self.machine.system_images[node[0]].address_of(
                        node[1]
                    ),
                )
            )
        return tuple(frames)
