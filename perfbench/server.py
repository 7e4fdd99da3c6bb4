"""The serve workload's server process.

Runs ``repro.serve`` with one shard in its own interpreter, so the load
generator never shares its GIL.  The shard is a thread of this process,
which makes this process's CPU time and peak RSS the server's.

Protocol on stdin/stdout, one JSON document per line:

* stdin line 1: ``{"src": <repo src dir>, "bundles": {app: path}}``;
* stdout line 1: ``{"address": [host, port]}`` once accepting;
* stdin ``usage`` → ``{"cpu_s": ..., "maxrss_mb": ...}``;
* stdin ``stop`` (or end of input) → stops the server and exits.
"""

from __future__ import annotations

import json
import resource
import sys


def _usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    spec = json.loads(sys.stdin.readline())
    sys.path.insert(0, spec["src"])
    from repro.serve import ModelRegistry, start_in_thread

    registry = ModelRegistry()
    for app, bundle in sorted(spec["bundles"].items()):
        registry.register(app, "v1", bundle)
    handle = start_in_thread(registry, n_shards=1, executor="thread")
    try:
        print(json.dumps({"address": list(handle.address)}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "usage":
                print(json.dumps(_usage()), flush=True)
            elif command == "stop":
                break
    finally:
        handle.stop(timeout=30.0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
