"""Durable serve jobs: the write-ahead journal and crash recovery.

Covers the journal itself (lifecycle fold, torn-tail tolerance,
interior-garbage skipping, in-place healing) and the server-level
contract: a fresh :class:`ReproServer` on the same cache directory and
journal resolves every pre-restart job id with the byte-identical body,
re-enqueues incomplete jobs, and replays uncacheable outcomes from the
journal's inline envelopes.
"""

import asyncio
import json

from repro.serve.client import http_request
from repro.serve.journal import JOURNAL_FORMAT, JobJournal, scan
from repro.serve.report import execute_request
from repro.serve.schema import request_key, validate_request
from repro.serve.server import ReproServer, ServeConfig, canonical_body

from test_serve import good_doc, serve_config

KEY_A = "a" * 64
KEY_B = "b" * 64


def journal_config(tmp_path, **overrides):
    overrides.setdefault("journal_path", str(tmp_path / "jobs.journal"))
    return serve_config(tmp_path, **overrides)


async def _with_server(config, body):
    server = ReproServer(config)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


# -- the journal itself --------------------------------------------------------


class TestJournal:
    def test_lifecycle_folds_to_latest_state(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.submit(KEY_A, "alice", {"doc": 1})
        journal.start(KEY_A)
        journal.submit(KEY_B, "bob", {"doc": 2})
        journal.complete(KEY_A, cacheable=True)
        journal.close()
        result = scan(tmp_path / "j")
        assert result.records == 4
        assert result.dropped == 0 and not result.torn_tail
        assert result.jobs[KEY_A]["state"] == "done"
        assert result.jobs[KEY_A]["tenant"] == "alice"
        assert result.jobs[KEY_B]["state"] == "submitted"
        assert result.jobs[KEY_B]["request"] == {"doc": 2}

    def test_uncacheable_envelope_rides_inline(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        envelope = {"status": 504, "kind": "error", "body": {}, "cacheable": False}
        journal.submit(KEY_A, "alice", {})
        journal.complete(KEY_A, cacheable=False, envelope=envelope)
        journal.close()
        job = scan(tmp_path / "j").jobs[KEY_A]
        assert job["state"] == "done"
        assert job["envelope"] == envelope

    def test_cacheable_complete_drops_envelope(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.complete(KEY_A, cacheable=True, envelope={"big": "x" * 100})
        journal.close()
        assert scan(tmp_path / "j").jobs[KEY_A]["envelope"] is None

    def test_torn_tail_dropped_not_raised(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.submit(KEY_A, "alice", {})
        journal.close()
        with open(tmp_path / "j", "ab") as handle:
            handle.write(b'{"format": 1, "rec": "compl')  # crash mid-append
        result = scan(tmp_path / "j")
        assert result.torn_tail
        assert result.records == 1
        assert result.jobs[KEY_A]["state"] == "submitted"

    def test_interior_garbage_skipped(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.submit(KEY_A, "alice", {})
        journal.close()
        raw = (tmp_path / "j").read_bytes()
        (tmp_path / "j").write_bytes(
            b"not json at all\n"
            + json.dumps({"format": 999, "rec": "submit", "key": KEY_B}).encode()
            + b"\n"
            + raw
        )
        result = scan(tmp_path / "j")
        assert result.dropped == 2
        assert list(result.jobs) == [KEY_A]

    def test_missing_file_scans_empty(self, tmp_path):
        result = scan(tmp_path / "nope")
        assert result.jobs == {} and result.records == 0

    def test_truncate_to_valid_heals_in_place(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.submit(KEY_A, "alice", {})
        journal.close()
        good = (tmp_path / "j").read_bytes()
        with open(tmp_path / "j", "ab") as handle:
            handle.write(b'{"torn')
        healed = JobJournal(tmp_path / "j")
        assert healed.truncate_to_valid()
        assert (tmp_path / "j").read_bytes() == good
        # the handle reopened after healing: appends still land
        healed.start(KEY_A)
        healed.close()
        assert scan(tmp_path / "j").jobs[KEY_A]["state"] == "started"

    def test_records_are_format_stamped(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        journal.start(KEY_A)
        journal.close()
        record = json.loads((tmp_path / "j").read_text())
        assert record["format"] == JOURNAL_FORMAT

    def test_bit_flipped_record_dropped_not_replayed(self, tmp_path):
        """A damaged inline envelope must never be served verbatim: the
        per-record checksum turns a flip into a dropped record."""
        journal = JobJournal(tmp_path / "j")
        envelope = {"status": 200, "kind": "report", "body": {"x": 12345}}
        journal.complete(KEY_A, cacheable=False, envelope=envelope)
        journal.close()
        raw = bytearray((tmp_path / "j").read_bytes())
        flip = raw.index(b"12345") + 2  # inside the envelope body
        raw[flip] ^= 0x01
        (tmp_path / "j").write_bytes(bytes(raw))
        result = scan(tmp_path / "j")
        assert result.dropped == 1
        assert KEY_A not in result.jobs


# -- server-level recovery -----------------------------------------------------


class TestServerRecovery:
    def test_completed_job_survives_restart_byte_identical(self, tmp_path):
        config = journal_config(tmp_path)

        async def scenario():
            async def first(server):
                response = await http_request(
                    "127.0.0.1", server.port, "POST", "/v1/jobs", good_doc()
                )
                assert response.status == 202
                job_id = response.json()["job_id"]
                for _ in range(400):
                    report = await http_request(
                        "127.0.0.1", server.port, "GET",
                        f"/v1/jobs/{job_id}/report",
                    )
                    if report.status == 200:
                        return job_id, report.body
                    await asyncio.sleep(0.01)
                raise AssertionError("job never completed")

            job_id, body = await _with_server(config, first)

            async def second(server):
                report = await http_request(
                    "127.0.0.1", server.port, "GET",
                    f"/v1/jobs/{job_id}/report",
                )
                status = await http_request(
                    "127.0.0.1", server.port, "GET", f"/v1/jobs/{job_id}"
                )
                return report, status

            report, status = await _with_server(config, second)
            assert report.status == 200
            assert report.body == body  # byte-identical across the restart
            assert status.json()["status"] == "done"

        asyncio.run(scenario())

    def test_incomplete_job_reenqueued_and_executes(self, tmp_path):
        config = journal_config(tmp_path)
        canonical = validate_request(good_doc())
        key = request_key(canonical)
        # a crash after admission: submit + start, never complete
        journal = JobJournal(config.journal_path)
        journal.submit(key, canonical["tenant"], canonical)
        journal.start(key)
        journal.close()

        async def scenario(server):
            assert server.stats.requeued_jobs == 1
            for _ in range(400):
                report = await http_request(
                    "127.0.0.1", server.port, "GET", f"/v1/jobs/{key}/report"
                )
                if report.status == 200:
                    return report
                assert report.status != 404, "recovered job was lost"
                await asyncio.sleep(0.01)
            raise AssertionError("requeued job never completed")

        report = asyncio.run(_with_server(config, scenario))
        assert report.json()["key"] == key

    def test_retired_engine_spelling_replays(self, tmp_path):
        """A job journaled by an older server under ``"engine": "compiled"``
        (an engine that no longer exists) still replays after the upgrade,
        on the default engine, to the body the spelling-free request gets."""
        config = journal_config(tmp_path)
        reference = validate_request(good_doc())
        key = request_key(reference)
        journal = JobJournal(config.journal_path)
        journal.submit(key, reference["tenant"], dict(reference, engine="compiled"))
        journal.close()

        async def scenario(server):
            assert server.stats.requeued_jobs == 1
            for _ in range(400):
                report = await http_request(
                    "127.0.0.1", server.port, "GET", f"/v1/jobs/{key}/report"
                )
                if report.status == 200:
                    return report
                assert report.status != 404, "recovered job was lost"
                await asyncio.sleep(0.01)
            raise AssertionError("requeued job never completed")

        report = asyncio.run(_with_server(config, scenario))
        assert report.body == canonical_body(
            execute_request(reference, key)["body"]
        )

    def test_crash_between_cache_write_and_complete_heals(self, tmp_path):
        config = journal_config(tmp_path)
        canonical = validate_request(good_doc())
        key = request_key(canonical)

        async def first(server):
            envelope = await server.submit(good_doc())
            return canonical_body(envelope["body"])

        body = asyncio.run(_with_server(config, first))
        # forge the crash: drop the complete record, keep submit/start —
        # the cache now holds the answer but the journal says "started"
        journal = JobJournal(str(config.journal_path) + ".forged")
        journal.submit(key, canonical["tenant"], canonical)
        journal.start(key)
        journal.close()
        import os

        os.replace(str(config.journal_path) + ".forged", config.journal_path)

        async def second(server):
            assert server.stats.recovered_jobs == 1
            assert server.stats.requeued_jobs == 0  # healed, not re-run
            report = await http_request(
                "127.0.0.1", server.port, "GET", f"/v1/jobs/{key}/report"
            )
            return report

        report = asyncio.run(_with_server(config, second))
        assert report.status == 200
        assert report.body == body
        # the healing appended a complete record
        assert scan(config.journal_path).jobs[key]["state"] == "done"

    def test_uncacheable_outcome_survives_restart(self, tmp_path):
        config = journal_config(tmp_path)
        envelope = {
            "status": 504,
            "kind": "error",
            "body": {"error": {"code": "execution-timeout", "message": "t"}},
            "cacheable": False,
        }
        journal = JobJournal(config.journal_path)
        journal.submit(KEY_A, "alice", {})
        journal.complete(KEY_A, cacheable=False, envelope=envelope)
        journal.close()

        async def scenario(server):
            return await http_request(
                "127.0.0.1", server.port, "GET", f"/v1/jobs/{KEY_A}/report"
            )

        report = asyncio.run(_with_server(config, scenario))
        assert report.status == 504
        assert report.body == canonical_body(envelope["body"])

    def test_torn_journal_tail_recovers_cleanly(self, tmp_path):
        config = journal_config(tmp_path)

        async def first(server):
            await server.submit(good_doc())

        asyncio.run(_with_server(config, first))
        with open(config.journal_path, "ab") as handle:
            handle.write(b'{"format": 1, "rec": "sub')

        async def second(server):
            # healed on startup: the file parses cleanly again and new
            # submissions append fine
            result = scan(config.journal_path)
            assert not result.torn_tail and result.dropped == 0
            await server.submit(good_doc(tenant="bob"))
            return scan(config.journal_path)

        result = asyncio.run(_with_server(config, second))
        assert not result.torn_tail

    def test_no_journal_config_changes_nothing(self, tmp_path):
        config = serve_config(tmp_path)

        async def scenario(server):
            assert server.journal is None
            envelope = await server.submit(good_doc())
            return envelope

        envelope = asyncio.run(_with_server(config, scenario))
        assert envelope["kind"] == "report"
        assert not (tmp_path / "jobs.journal").exists()
