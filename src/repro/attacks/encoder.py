"""Shikata-ga-nai-style polymorphic payload encoder.

Real msfvenom encoders re-randomize the payload binary per build; at
LEAPS's observational level that surfaces as *fresh app-space symbols
and addresses every build* while the system-event taxonomy (syscalls,
categories, opcodes, system chains) is untouched — injected code still
has to call the same OS.  :class:`PolymorphicEncoder.encode` is that
transform: it maps each logical payload role to an obfuscated
``sub_xxxxxxxx`` name drawn from the build's seed (delivery places
those symbols in memory with its own per-build RNG,
:func:`repro.attacks.infection.build_layout_rng`).  Two builds of the
same payload share no role names (seeded 32-bit draws per build make a
collision vanishingly unlikely), so signature matching on app-space
call paths fails across builds — the property
``tests/test_attacks.py`` pins down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.attacks.payloads import PayloadOp, PayloadSpec


@dataclass(frozen=True)
class PayloadBuild:
    """One concrete build: the spec plus its role→symbol obfuscation."""

    spec: PayloadSpec
    build_id: str
    names: Mapping[str, str]

    def function_names(self) -> Tuple[str, ...]:
        """Obfuscated symbols in declared role order."""
        return tuple(self.names[role] for role in self.spec.roles)

    def rename(self, op: PayloadOp) -> Tuple[str, ...]:
        """An op's call path in this build's symbols."""
        return tuple(self.names[role] for role in op.path)


class PolymorphicEncoder:
    """Deterministic re-randomizing encoder.

    The scenario seed fixes the *family* of builds; the ``build_id``
    selects one member.  ``encode`` is a pure function of
    ``(seed, payload, build_id)`` — rebuilding with the same triple is
    byte-identical, rebuilding with a new ``build_id`` shares nothing
    app-space with any sibling build.
    """

    def __init__(self, seed: str):
        self.seed = seed

    def encode(self, spec: PayloadSpec, build_id: str) -> PayloadBuild:
        rng = random.Random(
            f"leaps-encoder:{self.seed}:{spec.name}:{build_id}:names"
        )
        taken = set()
        names = {}
        for role in spec.roles:
            while True:
                name = f"sub_{rng.randrange(16 ** 8):08x}"
                if name not in taken:
                    break
            taken.add(name)
            names[role] = name
        return PayloadBuild(spec=spec, build_id=build_id, names=names)
