"""Fleet detection service: the served detections must be bit-identical
to serial ``scan_stream`` per stream — across parse policies, shard
counts, executor flavors, input kinds (socket bytes, server-local text
logs, ``.leapscap`` captures), and fault-injected streams — while the
protocol, registry routing, backpressure, and disconnect handling all
behave as documented in DESIGN.md §12.
"""

import json
import shutil
import threading
import time

import pytest

from repro.etw.capture import write_capture
from repro.etw.parser import ParseError, RawLogParser
from repro.serve import (
    ModelRegistry,
    ServeClient,
    UnknownModelError,
    request_status,
    shard_for,
    start_in_thread,
)

from repro import LeapsConfig, LeapsDetector

from tests.faults import fault_corpus
from tests.test_api import make_log, tiny_training_logs
from tests.test_stream_scan import SCAN_SPECS, tiny_detector


def detector_with_sigma2(sigma2):
    """A tiny detector with a chosen kernel width — scores differ
    observably between widths, which makes model routing testable."""
    config = LeapsConfig(
        window_events=2,
        stride=1,
        lam_grid=(10.0,),
        sigma2_grid=(sigma2,),
        cv_folds=0,
        max_train_windows=0,
        seed=1,
    )
    detector = LeapsDetector(config)
    detector.train_from_logs(*tiny_training_logs())
    return detector


def rows(detections):
    """WindowDetection fields as the wire tuples the server emits."""
    return [
        (d.index, d.start_eid, d.end_eid, d.score, d.malicious)
        for d in detections
    ]


def serve_one(address, stream_id, lines, chunk=None, timeout=60.0, **hello):
    """Run one whole stream through a server: hello, bytes (optionally
    re-chunked to exercise mid-line frame splits), END, outcome."""
    client = ServeClient(address, timeout=timeout)
    client.hello(stream_id, **hello)
    payload = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    if chunk:
        for start in range(0, len(payload), chunk):
            client.send(payload[start : start + chunk])
    elif payload:
        client.send(payload)
    return client.finish()


@pytest.fixture(scope="module")
def detector():
    return tiny_detector()


@pytest.fixture(scope="module")
def bundle(detector, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "bundle"
    detector.save(path)
    return path


@pytest.fixture(scope="module")
def registry(bundle):
    registry = ModelRegistry()
    registry.register("app", "v1", bundle)
    return registry


class TestShardHashing:
    def test_stable_and_in_range(self):
        for n_shards in (1, 2, 4, 7):
            for stream_id in ("host-1", "host-2", "x" * 100, ""):
                shard = shard_for(stream_id, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_for(stream_id, n_shards)

    def test_spreads_streams(self):
        shards = {shard_for(f"host-{i}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}


class TestServeEqualsSerial:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_policies_across_shard_counts(self, detector, registry, n_shards):
        lines = make_log(SCAN_SPECS)
        handle = start_in_thread(registry, n_shards=n_shards, executor="thread")
        try:
            for policy in ("strict", "warn", "drop"):
                want = rows(detector.scan_stream(lines, policy=policy))
                outcome = serve_one(
                    handle.address,
                    f"host-{policy}",
                    lines,
                    chunk=37,  # frames split mid-line on purpose
                    policy=policy,
                )
                assert outcome.error is None
                assert outcome.detections == want
                assert outcome.result["events"] == len(SCAN_SPECS)
                assert outcome.result["report"]["truncated_tail"] is False
        finally:
            handle.stop()

    def test_concurrent_streams_each_match_serial(self, detector, registry):
        lines = make_log(SCAN_SPECS)
        want = rows(detector.scan_stream(lines))
        handle = start_in_thread(registry, n_shards=2, executor="thread")
        try:
            outcomes = {}

            def run(index):
                outcomes[index] = serve_one(
                    handle.address, f"host-{index}", lines, chunk=101
                )

            threads = [
                threading.Thread(target=run, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert sorted(outcomes) == list(range(8))
            for outcome in outcomes.values():
                assert outcome.error is None
                assert outcome.detections == want
            status = handle.status()
            assert status["counters"]["streams_completed"] == 8
            assert status["events_total"] == 8 * len(SCAN_SPECS)
        finally:
            handle.stop()

    def test_unix_socket_transport(self, detector, registry, tmp_path):
        lines = make_log(SCAN_SPECS)
        handle = start_in_thread(
            registry, executor="thread", unix_path=str(tmp_path / "leaps.sock")
        )
        try:
            assert isinstance(handle.address, str)
            outcome = serve_one(handle.address, "unix-host", lines)
            assert outcome.detections == rows(detector.scan_stream(lines))
        finally:
            handle.stop()

    def test_process_executor_smoke(self, detector, registry):
        """The real serving mode: shard workers as separate processes,
        bundles loaded worker-side from the registry spec."""
        lines = make_log(SCAN_SPECS)
        want = rows(detector.scan_stream(lines))
        handle = start_in_thread(registry, n_shards=2, executor="process")
        try:
            for index in range(3):
                outcome = serve_one(
                    handle.address, f"proc-host-{index}", lines, chunk=64
                )
                assert outcome.error is None
                assert outcome.detections == want
            status = request_status(handle.address)
            assert status["events_total"] == 3 * len(SCAN_SPECS)
            assert status["counters"]["streams_completed"] == 3
        finally:
            handle.stop()


class TestServerLocalSources:
    def test_text_log_and_capture_by_path(self, detector, registry, tmp_path):
        lines = make_log(SCAN_SPECS)
        text_path = tmp_path / "host.log"
        text_path.write_text("\n".join(lines) + "\n")
        events = RawLogParser().parse_lines(lines)
        capture_path = write_capture(tmp_path / "host.leapscap", events)
        want = rows(detector.scan_log(lines))
        handle = start_in_thread(registry, executor="thread")
        try:
            for stream_id, path in (
                ("by-text", text_path),
                ("by-capture", capture_path),
            ):
                client = ServeClient(handle.address)
                client.hello(stream_id, path=str(path))
                outcome = client.finish()
                assert outcome.error is None, stream_id
                assert outcome.detections == want, stream_id
                assert outcome.result["events"] == len(SCAN_SPECS)
                assert outcome.result["bytes"] > 0
        finally:
            handle.stop()

    def test_missing_path_yields_error_frame(self, registry, tmp_path):
        handle = start_in_thread(registry, executor="thread")
        try:
            client = ServeClient(handle.address)
            client.hello("ghost-path", path=str(tmp_path / "nope.log"))
            outcome = client.finish()
            assert outcome.error is not None
            assert outcome.detections == []
        finally:
            handle.stop()


class TestRegistryRouting:
    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        """Two apps with genuinely different models (distinct kernel
        widths), laid out as a ``<root>/<app>/<version>/`` tree."""
        root = tmp_path_factory.mktemp("models")
        wide = tiny_detector()
        narrow = detector_with_sigma2(50.0)
        wide.save(root / "appA" / "v1")
        narrow.save(root / "appB" / "v1")
        return root, wide, narrow

    def test_streams_route_to_their_model(self, models):
        root, wide, narrow = models
        registry = ModelRegistry()
        assert registry.register_tree(root) == [
            ("appA", "v1"),
            ("appB", "v1"),
        ]
        lines = make_log(SCAN_SPECS)
        want_wide = rows(wide.scan_stream(lines))
        want_narrow = rows(narrow.scan_stream(lines))
        assert want_wide != want_narrow  # routing is observable
        handle = start_in_thread(registry, n_shards=2, executor="thread")
        try:
            for app, want in (("appA", want_wide), ("appB", want_narrow)):
                outcome = serve_one(
                    handle.address, f"host-{app}", lines, app=app
                )
                assert outcome.error is None
                assert outcome.detections == want, app
            # no app in HELLO: the default (first-registered) model
            outcome = serve_one(handle.address, "host-default", lines)
            assert outcome.detections == want_wide
        finally:
            handle.stop()

    def test_unknown_model_yields_error_frame(self, registry):
        handle = start_in_thread(registry, executor="thread")
        try:
            outcome = serve_one(handle.address, "lost", [], app="no-such-app")
            assert outcome.error is not None
            assert outcome.error["kind"] == "UnknownModelError"
        finally:
            handle.stop()

    def test_malformed_bundle_yields_error_frame(
        self, detector, bundle, tmp_path
    ):
        """A bundle that fails to load answers its stream with a
        ``BundleError`` frame, and the shard goes on serving: the next
        stream, on a good model, still gets its detections."""
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        doc = json.loads((broken / "bundle.json").read_text())
        del doc["svm"]
        (broken / "bundle.json").write_text(json.dumps(doc))
        registry = ModelRegistry()
        registry.register("good", "v1", bundle, default=True)
        registry.register("broken", "v1", broken)
        lines = make_log(SCAN_SPECS)
        handle = start_in_thread(registry, n_shards=1, executor="thread")
        try:
            outcomes = {
                app: serve_one(
                    handle.address, f"host-{app}", lines, timeout=10.0, app=app
                )
                for app in ("broken", "good")
            }
            assert outcomes["broken"].error is not None
            assert outcomes["broken"].error["kind"] == "BundleError"
            assert outcomes["good"].error is None
            assert outcomes["good"].detections == rows(
                detector.scan_stream(lines)
            )
        finally:
            handle.stop()

    def test_fingerprint_reload_calls_eviction_hook(self, tmp_path):
        bundle = tmp_path / "bundle"
        tiny_detector().save(bundle)
        evictions = []
        registry = ModelRegistry(on_reload=lambda: evictions.append(1))
        registry.register("app", "v1", bundle)
        first = registry.resolve("app")
        assert registry.resolve("app") is first  # fingerprint-stable: cached
        assert evictions == []
        detector_with_sigma2(50.0).save(bundle)  # retrain in place
        second = registry.resolve("app")
        assert second is not first
        assert evictions == [1]  # the safe intern-eviction point fired
        stats = registry.stats()["models"]["app/v1"]
        assert stats["loads"] == 2 and stats["reloads"] == 1

    def test_resolve_raises_for_unknown(self):
        registry = ModelRegistry()
        with pytest.raises(UnknownModelError):
            registry.resolve()


class TestFaultStreams:
    def test_drop_policy_recovers_identically(self, detector, registry):
        base = make_log(SCAN_SPECS)
        handle = start_in_thread(registry, n_shards=2, executor="thread")
        try:
            for variant in fault_corpus(base, seed=0):
                want = rows(detector.scan_stream(variant.lines, policy="drop"))
                outcome = serve_one(
                    handle.address,
                    f"fault-{variant.name}",
                    variant.lines,
                    chunk=61,
                    policy="drop",
                )
                assert outcome.error is None, variant.name
                assert outcome.detections == want, variant.name
        finally:
            handle.stop()

    def test_strict_policy_errors_match_serial(self, detector, registry):
        base = make_log(SCAN_SPECS)
        handle = start_in_thread(registry, n_shards=2, executor="thread")
        try:
            for variant in fault_corpus(base, seed=0):
                if not variant.strict_raises:
                    continue
                with pytest.raises(ParseError) as caught:
                    list(detector.scan_stream(variant.lines, policy="strict"))
                outcome = serve_one(
                    handle.address,
                    f"strict-{variant.name}",
                    variant.lines,
                    chunk=61,
                    policy="strict",
                )
                assert outcome.error is not None, variant.name
                assert outcome.error["kind"] == caught.value.kind.name
                assert outcome.error["lineno"] == caught.value.lineno
                assert "report" in outcome.error
        finally:
            handle.stop()


class TestColumnarWire:
    """The binary fast path end-to-end: parse client-side once, ship
    ``FRAME_DATA_COLUMNAR`` chunks, get the text path's exact answer."""

    def test_send_events_matches_text_path(self, detector, registry):
        from repro.etw.fastparse import parse_fast
        from repro.etw.recovery import ParseReport

        lines = make_log(SCAN_SPECS)
        want = rows(detector.scan_stream(lines))
        text_outcome = None
        handle = start_in_thread(registry, executor="thread")
        try:
            text_outcome = serve_one(handle.address, "as-text", lines)
            report = ParseReport()
            events = parse_fast(lines, policy="drop", report=report)
            client = ServeClient(handle.address)
            client.hello("as-columnar")
            client.send_events(events, chunk_events=5)
            client.send_report(report)
            outcome = client.finish()
            assert outcome.error is None
            assert outcome.detections == want
            assert outcome.result["events"] == len(SCAN_SPECS)
            assert (
                outcome.result["report"] == text_outcome.result["report"]
            )
        finally:
            handle.stop()

    def test_send_capture_matches_text_path(self, detector, registry, tmp_path):
        from repro.etw.capture import convert_log

        lines = make_log(SCAN_SPECS)
        src = tmp_path / "host.log"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capture_path = convert_log(src)
        want = rows(detector.scan_stream(lines, policy="drop"))
        handle = start_in_thread(registry, executor="thread")
        try:
            client = ServeClient(handle.address)
            client.hello("from-capture")
            client.send_capture(capture_path, chunk_events=7)
            outcome = client.finish()
            assert outcome.error is None
            assert outcome.detections == want
            assert outcome.result["report"]["events_yielded"] == len(
                SCAN_SPECS
            )
        finally:
            handle.stop()

    def test_mode_mixing_rejected(self, registry):
        from repro.etw.fastparse import parse_fast
        from repro.serve.columnar import encode_event_stream

        lines = make_log(SCAN_SPECS[:4])
        chunks = encode_event_stream(parse_fast(lines, policy="drop"))
        handle = start_in_thread(registry, executor="thread")
        try:
            # text first, then a columnar frame: protocol violation
            client = ServeClient(handle.address)
            client.hello("mixer-a")
            client.send_lines(lines[:5])
            for chunk in chunks:
                client.send_chunk(chunk)
            outcome = client.finish()
            assert outcome.error is not None
            # columnar first, then text: same violation, other order
            client = ServeClient(handle.address)
            client.hello("mixer-b")
            client.send_chunk(chunks[0])
            client.send_lines(lines[:5])
            outcome = client.finish()
            assert outcome.error is not None
        finally:
            handle.stop()

    def test_partial_chunk_at_end_is_an_error(self, registry):
        from repro.etw.fastparse import parse_fast
        from repro.serve.columnar import encode_event_stream

        chunk = encode_event_stream(
            parse_fast(make_log(SCAN_SPECS[:4]), policy="drop")
        )[0]
        handle = start_in_thread(registry, executor="thread")
        try:
            client = ServeClient(handle.address)
            client.hello("cut-short")
            client.send_chunk(chunk[: len(chunk) - 3])
            outcome = client.finish()
            assert outcome.error is not None
            assert outcome.error["kind"] == "ChunkError"
            assert "incomplete columnar chunk" in outcome.error["error"]
        finally:
            handle.stop()

    def test_status_reports_stage_counters(self, registry):
        lines = make_log(SCAN_SPECS)
        handle = start_in_thread(registry, executor="thread")
        try:
            serve_one(handle.address, "staged", lines)
            status = request_status(handle.address)
            stages = status["shards"][0]["stages"]
            assert stages["events_decoded"] == len(SCAN_SPECS)
            assert stages["lines_parsed"] == len(lines)
            assert stages["bytes_in"] > 0
            assert stages["decode_s"] >= 0.0
            assert stages["featurize_s"] > 0.0
            assert stages["score_s"] > 0.0
            assert stages["flushed_chunks"] >= 1
            assert status["shards"][0]["mean_flush_wait_s"] >= 0.0
        finally:
            handle.stop()


class TestBackpressure:
    def test_slow_scoring_pauses_reads_and_drops_nothing(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.workers as workers_mod

        real_score = workers_mod.score_chunks

        def slow_score(chunks):
            time.sleep(0.02)
            return real_score(chunks)

        # small chunks + low watermarks so the test saturates quickly;
        # LOW > chunk keeps the invariant that a flush always drains a
        # paused stream below the resume mark
        detector = tiny_detector(stream_chunk_windows=8)
        bundle = tmp_path / "bundle"
        detector.save(bundle)
        registry = ModelRegistry()
        registry.register("app", "v1", bundle)
        monkeypatch.setattr(workers_mod, "score_chunks", slow_score)
        monkeypatch.setattr(workers_mod, "WINDOW_HIGH_WATER", 16)
        monkeypatch.setattr(workers_mod, "WINDOW_LOW_WATER", 12)
        lines = make_log(SCAN_SPECS * 8)
        want = rows(detector.scan_stream(lines))
        handle = start_in_thread(
            registry, executor="thread", ack_window_bytes=512
        )
        try:
            outcome = serve_one(handle.address, "firehose", lines, chunk=256)
            assert outcome.error is None
            assert outcome.detections == want  # paused, never dropped
            assert handle.server.counters["pauses"] > 0
            assert handle.server.counters["resumes"] > 0
        finally:
            handle.stop()


class TestDisconnect:
    def test_abort_mid_walk_finalizes_truncated(self, detector, registry):
        lines = make_log(SCAN_SPECS)
        # cut mid stack-walk: the tail event's frames never complete
        payload = ("\n".join(lines[:22]) + "\n").encode("utf-8")
        handle = start_in_thread(registry, executor="thread")
        try:
            client = ServeClient(handle.address)
            client.hello("ghost")
            client.send(payload)
            time.sleep(0.1)
            client.abort()
            deadline = time.monotonic() + 10.0
            result = None
            while time.monotonic() < deadline and result is None:
                for entry in handle.server.completed:
                    if entry.get("stream_id") == "ghost":
                        result = entry
                time.sleep(0.02)
            assert result is not None, "disconnected stream never finalized"
            assert result["disconnected"] is True
            assert result["truncated_tail"] is True
            assert result["report"]["truncated_tail"] is True
            assert result["events"] > 0  # the completed head was scanned
            status = handle.status()
            assert status["counters"]["streams_disconnected"] == 1
            # all per-stream state is freed
            assert status["streams"] == {}
            assert all(not s["streams_live"] for s in status["shards"])
        finally:
            handle.stop()


class TestProtocolEdges:
    def test_duplicate_stream_id_rejected(self, detector, registry):
        lines = make_log(SCAN_SPECS)
        handle = start_in_thread(registry, executor="thread")
        try:
            first = ServeClient(handle.address)
            first.hello("twin")
            second = ServeClient(handle.address)
            second.hello("twin")
            assert second._done.wait(10.0)
            assert second._outcome.error["kind"] == "DuplicateStream"
            first.send_lines(lines)
            outcome = first.finish()
            assert outcome.error is None
            assert outcome.detections == rows(detector.scan_stream(lines))
        finally:
            handle.stop()

    def test_status_probe_shape(self, registry):
        handle = start_in_thread(registry, n_shards=2, executor="thread")
        try:
            status = request_status(handle.address)
            assert status["counters"]["connections"] >= 1
            assert len(status["shards"]) == 2
            for shard in status["shards"]:
                assert shard["latency_s"]["count"] == 0
                assert "frame_intern" in shard
                assert "registry" in shard
        finally:
            handle.stop()
