"""Tests for flow persistence, poisoning injection, and the sniffer CLI."""

import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analytics.persistence import (
    dump_flows,
    flow_from_dict,
    flow_to_dict,
    load_flows,
)
from repro.net.flow import (
    DnsObservation,
    FiveTuple,
    FlowRecord,
    Protocol,
    TransportProto,
)
from repro.simulation.poisoning import ATTACKER_BLOCK, inject_poisoning


def _flow(fqdn="www.example.com", cert=None, truth=None):
    return FlowRecord(
        fid=FiveTuple(101, 202, 40000, 443, TransportProto.TCP),
        start=1.5,
        end=3.25,
        protocol=Protocol.TLS,
        bytes_up=1234,
        bytes_down=56789,
        packets=42,
        fqdn=fqdn,
        cert_name=cert,
        true_fqdn=truth,
    )


class TestFlowSerialization:
    def test_roundtrip_full(self):
        flow = _flow(cert="*.example.com", truth="www.example.com")
        out = flow_from_dict(flow_to_dict(flow))
        assert out == flow

    def test_roundtrip_untagged(self):
        flow = _flow(fqdn=None)
        out = flow_from_dict(flow_to_dict(flow))
        assert out.fqdn is None

    def test_version_check(self):
        data = flow_to_dict(_flow())
        data["v"] = 99
        with pytest.raises(ValueError):
            flow_from_dict(data)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 65535),
        st.sampled_from(list(Protocol)),
        st.floats(min_value=0, max_value=1e7, allow_nan=False),
    )
    def test_property_roundtrip(self, server, port, protocol, start):
        flow = FlowRecord(
            fid=FiveTuple(7, server, 1024, port, TransportProto.UDP),
            start=start,
            protocol=protocol,
        )
        assert flow_from_dict(flow_to_dict(flow)) == flow


class TestDumpLoad:
    def test_stream_roundtrip(self):
        flows = [_flow(fqdn=f"h{i}.example.com") for i in range(5)]
        buffer = io.StringIO()
        assert dump_flows(flows, buffer) == 5
        buffer.seek(0)
        assert list(load_flows(buffer)) == flows

    def test_blank_lines_skipped(self):
        buffer = io.StringIO()
        dump_flows([_flow()], buffer)
        buffer.write("\n\n")
        buffer.seek(0)
        assert len(list(load_flows(buffer))) == 1

    def test_malformed_line_raises(self):
        buffer = io.StringIO("{not json}\n")
        with pytest.raises(ValueError, match="line 1"):
            list(load_flows(buffer))

    def test_file_is_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "flows.jsonl")
        with open(path, "w") as handle:
            assert dump_flows([_flow(), _flow(fqdn="b.example")], handle) == 2
        with open(path) as handle:
            for line in handle:
                json.loads(line)


class TestPoisoningInjection:
    def _observations(self):
        return [
            DnsObservation(float(t), 1, "bank.example.com", [500])
            for t in range(0, 1000, 100)
        ] + [
            DnsObservation(50.0, 1, "other.example.com", [600]),
        ]

    def test_rewrites_only_target_in_window(self):
        observations = self._observations()
        campaign = inject_poisoning(
            observations, "bank.example.com", start=300.0, end=600.0
        )
        assert campaign.poisoned_observations == 4  # t=300,400,500,600
        for observation in observations:
            poisoned = observation.answers[0] in ATTACKER_BLOCK
            should_be = (
                observation.fqdn == "bank.example.com"
                and 300 <= observation.timestamp <= 600
            )
            assert poisoned == should_be

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            inject_poisoning([], "x.com", start=10.0, end=5.0)

    def test_detector_catches_campaign(self):
        from repro.analytics.anomaly import MappingAnomalyDetector

        observations = self._observations()
        inject_poisoning(
            observations, "bank.example.com", start=300.0, end=600.0
        )
        detector = MappingAnomalyDetector(min_history=2, prefix_bits=16)
        alerts = [
            alert
            for observation in sorted(observations, key=lambda o: o.timestamp)
            if (alert := detector.observe(observation)) is not None
        ]
        assert alerts
        assert alerts[0].fqdn == "bank.example.com"
        assert 300 <= alerts[0].timestamp <= 600


class TestSnifferCli:
    @pytest.fixture()
    def pcap_path(self, tmp_path):
        from repro.net.pcap import write_pcap
        from repro.simulation import build_trace

        trace = build_trace("EU1-FTTH", seed=19)
        records = trace.to_packets(max_flows=60)
        path = str(tmp_path / "capture.pcap")
        write_pcap(path, records)
        return path

    def test_sniff_pcap(self, pcap_path):
        from repro.sniffer.cli import sniff_pcap

        pipeline = sniff_pcap(pcap_path, warmup=0.0)
        flows = pipeline.tagged_flows
        assert len(flows) == 60
        assert any(f.fqdn for f in flows)

    def test_cli_main(self, pcap_path, capsys):
        from repro.sniffer.cli import main

        code = main([pcap_path, "--warmup", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "flows reconstructed : 60" in output
        assert "top 10 labels:" in output

    def test_cli_missing_file(self, capsys):
        from repro.sniffer.cli import main

        assert main(["/nonexistent.pcap"]) == 1
        assert "error" in capsys.readouterr().err

    def test_negative_top_is_refused(self, pcap_path, capsys):
        from repro.sniffer.cli import main

        with pytest.raises(SystemExit) as refused:
            main([pcap_path, "--top", "-1"])
        assert refused.value.code == 2
        assert "--top" in capsys.readouterr().err

    @pytest.mark.parametrize("clist", [0, -5])
    def test_refused_clist_leaves_no_store(self, pcap_path, tmp_path,
                                           capsys, clist):
        """A pipeline refused for its Clist size opens no flow store:
        neither the library call nor the CLI leaves an empty DIR."""
        from repro.sniffer.cli import main
        from repro.sniffer.pipeline import SnifferPipeline

        target = tmp_path / "out"
        with pytest.raises(ValueError, match="clist_size"):
            SnifferPipeline(clist_size=clist, flow_store=target)
        assert not target.exists()
        code = main([pcap_path, "--clist", str(clist), "--flow-store",
                     str(target)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("top", [0, 3])
    def test_cli_summary(self, pcap_path, capsys, top):
        """The counts are ``sniff_pcap``'s; the label section lists the
        ``--top`` most common labels, and is left out when that is
        none."""
        from collections import Counter

        from repro.sniffer.cli import main, sniff_pcap

        single = sniff_pcap(pcap_path, warmup=0.0)
        code = main([pcap_path, "--warmup", "0", "--top", str(top)])
        assert code == 0
        output = capsys.readouterr().out
        labels = Counter(f.fqdn for f in single.tagged_flows if f.fqdn)
        assert f"flows reconstructed : {len(single.tagged_flows)}" in output
        assert f"flows labeled       : {sum(labels.values())}" in output
        shown = [
            f"  {count:6d}  {fqdn}"
            for fqdn, count in labels.most_common(top)
        ]
        if top:
            assert len(shown) == top
            assert output.endswith(
                "\n".join([f"top {top} labels:", *shown]) + "\n"
            )
        else:
            assert "labels:" not in output

    #: A child that, with ``import numpy`` failing first when argv[1]
    #: is ``shadow``, imports every module of the comma-separated
    #: packages of argv[2] and runs ``repro-sniff`` on the rest of argv.
    CHILD = """
import importlib, pkgutil, sys
shadow, packages, *argv = sys.argv[1:]
if shadow == "shadow":
    sys.modules["numpy"] = None
for package in packages.split(","):
    module = importlib.import_module("repro." + package)
    for info in pkgutil.iter_modules(module.__path__):
        importlib.import_module(f"repro.{package}.{info.name}")
if argv:
    from repro.sniffer.cli import main
    sys.exit(main(argv))
"""
    #: The capture side, stdlib-only.
    CAPTURE = ("net", "dns", "sniffer", "simulation")

    def _child(self, *argv):
        return subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )

    @pytest.mark.parametrize("package", CAPTURE)
    def test_capture_package_imports_with_numpy_shadowed(self, package):
        done = self._child("shadow", package)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_the_shadow_hides_numpy_from_analytics(self):
        """The shadow is real: the package that needs numpy fails."""
        done = self._child("shadow", "analytics")
        assert done.returncode != 0
        assert "numpy" in done.stderr

    def test_capture_with_numpy_shadowed_prints_the_same_stats(
        self, pcap_path
    ):
        argv = [pcap_path, "--warmup", "0"]
        packages = ",".join(self.CAPTURE)
        shadowed = self._child("shadow", packages, *argv)
        plain = self._child("plain", packages, *argv)
        assert shadowed.returncode == 0, shadowed.stderr[-2000:]
        assert plain.returncode == 0, plain.stderr[-2000:]
        assert "flows reconstructed : 60" in shadowed.stdout
        assert shadowed.stdout == plain.stdout

    def test_flow_store_with_numpy_shadowed_names_numpy(
        self, pcap_path, tmp_path
    ):
        """The flow store needs numpy: refused with one line that says
        so, before anything is written."""
        target = tmp_path / "out"
        refused = self._child(
            "shadow", "sniffer", pcap_path, "--warmup", "0",
            "--flow-store", str(target),
        )
        assert refused.returncode == 1
        assert refused.stderr.startswith("error: ")
        assert "numpy" in refused.stderr
        assert "Traceback" not in refused.stderr
        assert refused.stdout == ""
        assert not target.exists()

