"""Prepare-stage benchmark: pre-PR vs interned/memoized CFG + weights.

Measures, over the complete cached golden datasets, the two
program-analysis stages that are the paper's actual contribution —
Algorithm 1 (CFG inference) and Algorithm 2 (weight assessment) — on
two implementations:

1. a faithful reimplementation of the **pre-PR path**: a tuple-keyed
   CFG (``FrameNode``-keyed adjacency dicts, ``(src, dst)`` tuple edge
   keys), a per-event inference loop with no path memo, and a per-path
   weight loop that re-walks ``CHECK_CFG``/``density_array`` for every
   event;
2. the **fast path**: interned-ID CFG (dense int symbol table, packed
   ``(src_id << 32) | dst_id`` edge keys), path-level memoized
   inference, and the memoized vectorized ``WeightAssessor.assess``.

Both paths must produce **identical CFGs** (same node set, same
edge→kind mapping) and **bit-identical** ``c_i`` weight vectors — the
benchmark fails loudly otherwise.  ``infer_many`` parity (vs the
sequential merge of the same shards) is also asserted per dataset.

Usage (from the repo root):

    PYTHONPATH=src python benchmarks/bench_prepare.py
    PYTHONPATH=src python benchmarks/bench_prepare.py \
        --datasets notepad++_reverse_tcp_online --repeats 5 \
        --output BENCH_prepare.json

Emits ``BENCH_prepare.json`` (schema: see benchmarks/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.cfg_inference import CFG, EXPLICIT, IMPLICIT, CFGInferencer, implicit_chain
from repro.core.pipeline import LeapsPipeline
from repro.core.config import LeapsConfig
from repro.core.weights import WeightAssessor
from repro.etw.parser import RawLogParser
from repro.etw.stack_partition import StackPartitioner

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "benchmarks" / ".data"

SCHEMA = "leaps-bench-prepare/v1"
#: the complete (benign + mixed) datasets in the golden cache
DEFAULT_DATASETS = (
    "notepad++_reverse_tcp_online",
    "notepad++_reverse_https_online",
    "notepad++_reverse_https",
    "notepad++_codeinject",
)


def resolve_dataset(name: str, seed: int) -> Path:
    """Locate ``.data/<name>-s<seed>-<hash>/`` with both training logs."""
    matches = sorted(DATA_DIR.glob(f"{name}-s{seed}-*"))
    complete = [
        m for m in matches
        if (m / "benign.log").is_file() and (m / "mixed.log").is_file()
    ]
    if not complete:
        raise FileNotFoundError(
            f"no complete cached dataset for {name!r} seed {seed} under {DATA_DIR}"
        )
    return complete[0]


def best_of(repeats: int, fn) -> float:
    return min(
        (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(repeats)
    )


# -- faithful pre-PR prepare path -------------------------------------
#
# Reproduces the historical Algorithm 1/2 implementation op for op: a
# CFG keyed on (module, function) tuples with (src, dst) tuple edge
# keys, a per-event inference loop that re-adds every repeated stack
# walk, and a per-path weight loop whose CHECK_CFG / density_array hash
# nested string tuples on every membership probe.  Its outputs must be
# identical to the fast path's — asserted below on every dataset.

FrameNode = Tuple[str, str]


class NaiveCFG:
    def __init__(self):
        self._succ: Dict[FrameNode, Set[FrameNode]] = {}
        self._pred: Dict[FrameNode, Set[FrameNode]] = {}
        self._kinds: Dict[Tuple[FrameNode, FrameNode], Set[str]] = {}

    def add_node(self, node: FrameNode) -> None:
        self._succ.setdefault(node, set())
        self._pred.setdefault(node, set())

    def add_edge(self, src: FrameNode, dst: FrameNode, kind: str) -> None:
        self.add_node(src)
        self.add_node(dst)
        self._succ[src].add(dst)
        self._pred[dst].add(src)
        self._kinds.setdefault((src, dst), set()).add(kind)

    def has_node(self, node: FrameNode) -> bool:
        return node in self._succ

    def has_edge(self, src: FrameNode, dst: FrameNode) -> bool:
        return dst in self._succ.get(src, ())


def naive_infer(app_paths: Sequence[Sequence[FrameNode]]) -> NaiveCFG:
    cfg = NaiveCFG()
    prev: Sequence[FrameNode] = ()
    for path in app_paths:
        for node in path:
            cfg.add_node(node)
        for src, dst in zip(path, path[1:]):
            if src != dst:
                cfg.add_edge(src, dst, EXPLICIT)
        if prev and path:
            chain = implicit_chain(prev, path)
            for src, dst in zip(chain, chain[1:]):
                if src != dst:
                    cfg.add_edge(src, dst, IMPLICIT)
        if path:
            prev = path
    return cfg


def naive_assess(cfg: NaiveCFG, paths: Sequence[Sequence[FrameNode]]) -> np.ndarray:
    def check_cfg(path):
        if not path:
            return True
        if not all(cfg.has_node(node) for node in path):
            return False
        return all(cfg.has_edge(src, dst) for src, dst in zip(path, path[1:]))

    def benignity(path):
        if check_cfg(path):
            return 1.0
        scores = [1.0 if cfg.has_node(path[0]) else 0.0]
        for src, dst in zip(path, path[1:]):
            scores.append(1.0 if cfg.has_edge(src, dst) else 0.0)
            scores.append(1.0 if cfg.has_node(dst) else 0.0)
        return float(np.asarray(scores).mean())

    return np.asarray([1.0 - benignity(path) for path in paths])


def cfg_graph(cfg) -> Tuple[Set[FrameNode], Dict[Tuple[FrameNode, FrameNode], Set[str]]]:
    """(node set, edge → kinds) of either CFG flavor, via public state."""
    if isinstance(cfg, CFG):
        edges = {edge: set(cfg.edge_kinds(*edge)) for edge in cfg.edges()}
        return set(cfg.nodes()), edges
    return set(cfg._succ), {edge: set(kinds) for edge, kinds in cfg._kinds.items()}


def shard(paths: List, pieces: int) -> List[List]:
    size = max(1, len(paths) // pieces)
    return [paths[start : start + size] for start in range(0, len(paths), size)]


def bench_dataset(name: str, seed: int, repeats: int) -> dict:
    dataset = resolve_dataset(name, seed)
    parser = RawLogParser()
    partitioner = StackPartitioner()
    clock = time.perf_counter

    started = clock()
    benign_events = parser.parse_file(dataset / "benign.log")
    mixed_events = parser.parse_file(dataset / "mixed.log")
    parse_s = clock() - started

    started = clock()
    benign_paths = [partitioner.app_path(e) for e in benign_events]
    mixed_paths = [partitioner.app_path(e) for e in mixed_events]
    partition_s = clock() - started

    # -- equivalence first: the timings below are only meaningful if the
    # two paths agree exactly.
    naive_benign = naive_infer(benign_paths)
    naive_mixed = naive_infer(mixed_paths)
    fast_benign = CFGInferencer().infer(benign_paths)
    fast_mixed = CFGInferencer().infer(mixed_paths)
    cfgs_identical = (
        cfg_graph(naive_benign) == cfg_graph(fast_benign)
        and cfg_graph(naive_mixed) == cfg_graph(fast_mixed)
    )
    if not cfgs_identical:
        raise AssertionError(f"{name}: fast CFG diverged from the pre-PR graph")

    weights_naive = naive_assess(naive_benign, mixed_paths)
    weights_fast = WeightAssessor(fast_benign).assess(mixed_paths)
    weights_identical = bool(np.array_equal(weights_naive, weights_fast))
    if not weights_identical:
        raise AssertionError(f"{name}: fast weights diverged from the pre-PR path")

    # -- infer_many parity: the benign log cut into shards
    inferencer = CFGInferencer()
    shards = shard(benign_paths, 3)
    sequential = CFG()
    for piece in shards:
        sequential.merge(inferencer.infer(piece))
    infer_many_identical = inferencer.infer_many(shards) == sequential
    if not infer_many_identical:
        raise AssertionError(f"{name}: infer_many diverged from sequential merge")

    # -- timings: Algorithm 1 (both logs) and Algorithm 2 (mixed vs
    # benign), naive vs fast.  Fresh CFGs/assessors per run — the
    # within-run memos *are* the optimization; nothing is reused across
    # runs.
    naive_cfg_s = best_of(
        repeats, lambda: (naive_infer(benign_paths), naive_infer(mixed_paths))
    )
    fast_cfg_s = best_of(
        repeats,
        lambda: (CFGInferencer().infer(benign_paths), CFGInferencer().infer(mixed_paths)),
    )
    naive_weights_s = best_of(repeats, lambda: naive_assess(naive_benign, mixed_paths))
    fast_weights_s = best_of(
        repeats, lambda: WeightAssessor(fast_benign).assess(mixed_paths)
    )
    naive_total = naive_cfg_s + naive_weights_s
    fast_total = fast_cfg_s + fast_weights_s

    # -- end-to-end prepare stage timings from the instrumented pipeline
    pipeline = LeapsPipeline(
        LeapsConfig(lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0, seed=seed)
    )
    prepared = pipeline.prepare_training(
        (dataset / "benign.log").read_text().splitlines(),
        (dataset / "mixed.log").read_text().splitlines(),
    )

    return {
        "dataset": name,
        "dataset_dir": dataset.name,
        "seed": seed,
        "events": {"benign": len(benign_events), "mixed": len(mixed_events)},
        "distinct_paths": {
            "benign": len({tuple(p) for p in benign_paths}),
            "mixed": len({tuple(p) for p in mixed_paths}),
        },
        "cfg": {
            "benign_nodes": fast_benign.node_count,
            "benign_edges": fast_benign.edge_count,
            "mixed_nodes": fast_mixed.node_count,
            "mixed_edges": fast_mixed.edge_count,
        },
        "parse_s": parse_s,
        "partition_s": partition_s,
        "cfg_inference": {
            "naive_s": naive_cfg_s,
            "fast_s": fast_cfg_s,
            "speedup": naive_cfg_s / fast_cfg_s,
        },
        "weights": {
            "naive_s": naive_weights_s,
            "fast_s": fast_weights_s,
            "speedup": naive_weights_s / fast_weights_s,
        },
        "prepare": {
            "naive_s": naive_total,
            "fast_s": fast_total,
            "speedup": naive_total / fast_total,
        },
        "pipeline_stage_s": dict(prepared.stage_seconds),
        "equivalence": {
            "cfgs_identical": cfgs_identical,
            "weights_bit_identical": weights_identical,
            "infer_many_identical": infer_many_identical,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset names from benchmarks/.data/",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats; each timing keeps the best run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="first dataset only, one repeat — for smoke tests",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_prepare.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    names = [d.strip() for d in args.datasets.split(",") if d.strip()]
    repeats = args.repeats
    if args.quick:
        names = names[:1]
        repeats = 1

    results = []
    for name in names:
        print(f"benchmarking {name} (seed {args.seed}) ...", flush=True)
        result = bench_dataset(name, args.seed, repeats)
        prepare = result["prepare"]
        print(
            f"  prepare: naive {prepare['naive_s'] * 1e3:.1f}ms → "
            f"fast {prepare['fast_s'] * 1e3:.1f}ms  "
            f"({prepare['speedup']:.1f}x; cfg "
            f"{result['cfg_inference']['speedup']:.1f}x, weights "
            f"{result['weights']['speedup']:.1f}x)",
            flush=True,
        )
        results.append(result)

    speedups = [r["prepare"]["speedup"] for r in results]
    payload = {
        "schema": SCHEMA,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "config": {
            "quick": args.quick,
            "repeats": repeats,
            "seed": args.seed,
        },
        "datasets": results,
        "summary": {
            "datasets": len(results),
            "min_prepare_speedup": min(speedups),
            "geomean_prepare_speedup": float(np.exp(np.mean(np.log(speedups)))),
            "all_identical": True,
        },
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
