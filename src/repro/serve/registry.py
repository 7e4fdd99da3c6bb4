"""Multi-model registry over persistence bundles.

The serving fleet rarely runs one model: each monitored application has
its own trained bundle, and rollouts keep several versions live at
once.  :class:`ModelRegistry` maps ``(app, model_version)`` keys to
bundle directories and resolves them to scan-ready pipelines with two
guarantees:

* **load once** — a bundle deserializes on first resolve and is cached
  by its content fingerprint;
* **fingerprint invalidation** — every resolve re-reads the on-disk
  fingerprint (one small JSON read, no array I/O); if a trainer
  rewrote the bundle since it was cached, the stale pipeline is
  dropped and the new one loaded.  A long-lived server therefore picks
  up retrains at the next stream open without a restart.

Reloads call the ``on_reload`` hook first — the serving workers pass
:func:`repro.etw.parser.evict_frame_intern`, making bundle turnover
the safe eviction point that bounds the process-global frame intern
table (see the parser module's growth-bound notes).

The registry pickles as a :meth:`spec` (paths only, no arrays), so the
server hands one spec to every shard worker and each process loads
only the bundles its streams actually use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.persistence import (
    JSON_NAME,
    bundle_fingerprint,
    load_bundle,
)

#: registry key: (app, model_version)
ModelKey = Tuple[str, str]


class UnknownModelError(KeyError):
    """No bundle registered under the requested (app, model_version)."""


@dataclass
class _Entry:
    path: str
    fingerprint: Optional[str] = None
    pipeline: Optional[object] = None
    loads: int = 0
    reloads: int = 0


class ModelRegistry:
    def __init__(self, on_reload: Optional[Callable[[], object]] = None):
        self._entries: Dict[ModelKey, _Entry] = {}
        self._default: Optional[ModelKey] = None
        self._lock = threading.Lock()
        self.on_reload = on_reload

    # -- registration --------------------------------------------------
    def register(
        self,
        app: str,
        model_version: str,
        path: Union[str, Path],
        default: bool = False,
    ) -> ModelKey:
        """Register one bundle directory; the first registration (or an
        explicit ``default=True``) becomes the default model that
        HELLO frames without an ``app`` resolve to."""
        path = Path(path)
        if not (path / JSON_NAME).is_file():
            raise FileNotFoundError(f"{path} is not a model bundle")
        key = (str(app), str(model_version))
        with self._lock:
            self._entries[key] = _Entry(path=str(path))
            if default or self._default is None:
                self._default = key
        return key

    def register_tree(self, root: Union[str, Path]) -> List[ModelKey]:
        """Register every ``<root>/<app>/<version>/`` bundle directory
        found under ``root``; returns the keys in sorted order."""
        root = Path(root)
        keys: List[ModelKey] = []
        for json_path in sorted(root.glob(f"*/*/{JSON_NAME}")):
            bundle = json_path.parent
            keys.append(self.register(bundle.parent.name, bundle.name, bundle))
        return keys

    def keys(self) -> List[ModelKey]:
        with self._lock:
            return sorted(self._entries)

    # -- resolution ----------------------------------------------------
    def resolve_key(
        self, app: Optional[str] = None, model_version: Optional[str] = None
    ) -> ModelKey:
        if app is None:
            if self._default is None:
                raise UnknownModelError("registry has no models")
            key = self._default
            if model_version is not None and model_version != key[1]:
                key = (key[0], str(model_version))
        else:
            if model_version is None:
                # newest registered version of the app, by version sort
                versions = [k for k in self.keys() if k[0] == str(app)]
                if not versions:
                    raise UnknownModelError(f"no model registered for app {app!r}")
                key = versions[-1]
            else:
                key = (str(app), str(model_version))
        if key not in self._entries:
            raise UnknownModelError(f"no model registered under {key!r}")
        return key

    def resolve(
        self, app: Optional[str] = None, model_version: Optional[str] = None
    ):
        """The scan-ready pipeline for a key, loading or fingerprint-
        refreshing the cached bundle as needed."""
        key = self.resolve_key(app, model_version)
        with self._lock:
            entry = self._entries[key]
            current = bundle_fingerprint(entry.path)
            if entry.pipeline is None or entry.fingerprint != current:
                if entry.pipeline is not None:
                    entry.reloads += 1
                    if self.on_reload is not None:
                        # the safe intern-eviction point: between the old
                        # bundle going stale and the new one loading
                        self.on_reload()
                entry.pipeline = load_bundle(entry.path)
                entry.fingerprint = current
                entry.loads += 1
            return entry.pipeline

    # -- worker fan-out ------------------------------------------------
    def spec(self) -> dict:
        """Picklable description (paths only) for shard workers."""
        with self._lock:
            return {
                "models": [
                    [app, version, entry.path]
                    for (app, version), entry in sorted(self._entries.items())
                ],
                "default": list(self._default) if self._default else None,
            }

    @classmethod
    def from_spec(
        cls, spec: dict, on_reload: Optional[Callable[[], object]] = None
    ) -> "ModelRegistry":
        registry = cls(on_reload=on_reload)
        for app, version, path in spec["models"]:
            registry._entries[(app, version)] = _Entry(path=path)
        default = spec.get("default")
        registry._default = tuple(default) if default else None
        return registry

    def stats(self) -> dict:
        with self._lock:
            return {
                "models": {
                    f"{app}/{version}": {
                        "path": entry.path,
                        "loaded": entry.pipeline is not None,
                        "loads": entry.loads,
                        "reloads": entry.reloads,
                        "fingerprint": entry.fingerprint,
                    }
                    for (app, version), entry in sorted(self._entries.items())
                },
                "default": (
                    f"{self._default[0]}/{self._default[1]}"
                    if self._default
                    else None
                ),
            }
