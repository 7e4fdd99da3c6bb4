"""Attack scenario models: payloads, polymorphic builds, delivery.

See DESIGN.md §13 — ``msfvenom`` + ``deliver`` is the whole attacker
toolchain at LEAPS's observational level; the generator emits the
delivered payload's events.
"""

from repro.attacks.encoder import PayloadBuild, PolymorphicEncoder
from repro.attacks.infection import AttackInstance, infect_offline
from repro.attacks.injection import (
    REMOTE_THREAD_OFFSET,
    UNKNOWN_MODULE,
    inject_online,
)
from repro.attacks.metasploit import DELIVERY_METHODS, deliver, msfvenom
from repro.attacks.payloads import PAYLOADS, PayloadOp, PayloadSpec

__all__ = [
    "AttackInstance",
    "DELIVERY_METHODS",
    "PAYLOADS",
    "PayloadBuild",
    "PayloadOp",
    "PayloadSpec",
    "PolymorphicEncoder",
    "REMOTE_THREAD_OFFSET",
    "UNKNOWN_MODULE",
    "deliver",
    "infect_offline",
    "inject_online",
    "msfvenom",
]
