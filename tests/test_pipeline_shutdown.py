"""Graceful-shutdown coverage for durable-ingest pipelines (ISSUE 6,
satellite 3).

The contract: a pipeline with an attached flow store never loses an
acknowledged flow on shutdown, whichever way the shutdown happens —

* a clean ``close()`` drains and seals the store (reopen finds every
  flow in segments, nothing to replay);
* an *unclean* exit (no close at all) leaves the drained tail in the
  write-ahead journal, and the next open replays it;
* SIGTERM on a live process triggers the installed handler, which
  closes the pipeline and then re-delivers the signal so the exit
  status still says "terminated by SIGTERM".
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

from repro.analytics.storage import FlowStore
from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.net.ip import ip_from_str
from repro.sniffer.pipeline import SnifferPipeline

CLIENT = ip_from_str("10.1.0.5")
WEB = ip_from_str("93.184.216.34")


def _events(flows: int):
    """One DNS insert, then ``flows`` sessions to the answer — every
    flow reaches the tagger (and so the store), odd ones unlabeled."""
    out = [DnsObservation(1.0, CLIENT, "www.example.com", [WEB])]
    for i in range(flows):
        out.append(FlowRecord(
            fid=FiveTuple(CLIENT, WEB + i % 2, 40_000 + i, 443,
                          TransportProto.TCP),
            start=1.5 + i,
            end=2.0 + i,
            protocol=Protocol.TLS,
            bytes_up=100 + i,
            bytes_down=2_000 + i,
            packets=6,
        ))
    return out


class TestGracefulClose:
    def test_close_seals_every_acknowledged_flow(self, tmp_path):
        directory = tmp_path / "store"
        pipeline = SnifferPipeline(
            clist_size=64, warmup=0.0, flow_store=str(directory)
        )
        pipeline.process_events(_events(25))
        pipeline.close()
        store = FlowStore(directory)
        assert len(store) == 25
        # Sealed means sealed: nothing was left for journal replay.
        assert store.health()["wal"]["recovered_rows"] == 0
        assert store.health()["status"] == "ok"
        assert store.fqdns() == ["www.example.com"]
        store.close()

    def test_unclosed_pipeline_recovers_through_the_journal(
        self, tmp_path
    ):
        directory = tmp_path / "store"
        pipeline = SnifferPipeline(
            clist_size=64, warmup=0.0, flow_store=str(directory)
        )
        pipeline.process_events(_events(25))
        # No close(): the process "dies" here.  The drained tail was
        # journaled when the store acknowledged it, so a clean reopen
        # replays it in full.
        pipeline.flow_store._wal.close()
        store = FlowStore(directory)
        assert len(store) == 25
        assert store.health()["wal"]["recovered_rows"] == 25
        assert store.fqdns() == ["www.example.com"]
        store.close()


_CHILD = textwrap.dedent("""
    import signal, sys, time

    from repro.net.flow import (
        DnsObservation, FiveTuple, FlowRecord, Protocol, TransportProto,
    )
    from repro.net.ip import ip_from_str
    from repro.sniffer.pipeline import SnifferPipeline

    CLIENT = ip_from_str("10.1.0.5")
    WEB = ip_from_str("93.184.216.34")

    pipeline = SnifferPipeline(
        clist_size=64, warmup=0.0, flow_store=sys.argv[1]
    )
    pipeline.install_signal_handlers()
    events = [DnsObservation(1.0, CLIENT, "www.example.com", [WEB])]
    for i in range(30):
        events.append(FlowRecord(
            fid=FiveTuple(CLIENT, WEB, 40_000 + i, 443,
                          TransportProto.TCP),
            start=1.5 + i, end=2.0 + i, protocol=Protocol.TLS,
            bytes_up=100, bytes_down=2000, packets=6,
        ))
    pipeline.process_events(events)
    print(f"READY {len(pipeline.tagged_flows)}", flush=True)
    time.sleep(60)          # SIGTERM interrupts this
""")


class TestSigterm:
    def test_sigterm_seals_the_store_and_keeps_the_exit_status(
        self, tmp_path
    ):
        directory = tmp_path / "store"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(directory)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True,
        )
        try:
            line = child.stdout.readline().strip()
            assert line == "READY 30", line
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        # The handler re-delivers the signal after closing, so the
        # process still reports death-by-SIGTERM to its supervisor.
        assert child.returncode == -signal.SIGTERM, child.stderr.read()
        store = FlowStore(directory)
        assert len(store) == 30
        # close() ran: the tail was sealed, not merely journaled.
        assert store.health()["wal"]["recovered_rows"] == 0
        assert store.fqdns() == ["www.example.com"]
        store.close()
