"""msfvenom facade: build → deliver.

Thin orchestration over the payload/encoder/delivery modules with the
same shape the real toolchain has: :func:`msfvenom` produces an
encoded build and :func:`deliver` drops it into a spawned process via
either delivery model.  The resulting
:class:`~repro.attacks.infection.AttackInstance` turns each payload op
into a concrete app-space walk; the generator
(:mod:`repro.datasets.fastgen`) emits the handler-side traffic — setup
ops once, then weighted beacon traffic — from those walks.
"""

from __future__ import annotations

from repro.apps.base import AppSpec
from repro.attacks.encoder import PayloadBuild, PolymorphicEncoder
from repro.attacks.infection import AttackInstance, infect_offline
from repro.attacks.injection import inject_online
from repro.attacks.payloads import PAYLOADS
from repro.winsys.process import SimulatedProcess

DELIVERY_METHODS = ("offline", "online")


def msfvenom(payload: str, seed: str, build_id: str) -> PayloadBuild:
    """One encoded build of a named payload (re-run with a different
    ``build_id`` to model the attacker rebuilding before deployment)."""
    return PolymorphicEncoder(seed).encode(PAYLOADS[payload], build_id)


def deliver(
    process: SimulatedProcess,
    app: AppSpec,
    build: PayloadBuild,
    method: str,
) -> AttackInstance:
    if method == "offline":
        return infect_offline(process, app, build)
    if method == "online":
        return inject_online(process, build)
    raise ValueError(
        f"unknown delivery method {method!r}; expected {DELIVERY_METHODS}"
    )
