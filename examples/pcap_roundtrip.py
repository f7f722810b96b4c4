#!/usr/bin/env python
"""Wire-level round trip: synthetic trace -> pcap file -> packet sniffer.

Everything else in this repository uses the fast event path; this
example proves the packet path works on genuine capture bytes: the
trace is rendered to RFC-format DNS/TCP frames inside a classic pcap
file, read back, and pushed frame by frame through the capture loop
(``SnifferPipeline.process_frames``) into the same resolver/tagger.
"""

import os
import tempfile

from repro.net.pcap import PcapReader, write_pcap
from repro.simulation import build_trace
from repro.sniffer import SnifferPipeline


def main() -> None:
    print("Building a small trace and rendering 400 flows to packets...")
    trace = build_trace("EU1-FTTH", seed=21)
    records = trace.to_packets(max_flows=400)

    path = os.path.join(tempfile.mkdtemp(), "synthetic.pcap")
    count = write_pcap(path, records)
    size_kb = os.path.getsize(path) / 1024
    print(f"  wrote {count} frames ({size_kb:.0f} KB) to {path}")

    print("Reading the pcap back and running the packet-path sniffer...")
    pipeline = SnifferPipeline(clist_size=50_000, warmup=0.0)
    with open(path, "rb") as handle:
        flows = pipeline.process_frames(PcapReader(handle).frames())

    tagged = [f for f in flows if f.fqdn]
    print(f"  reconstructed {len(flows)} TCP flows, {len(tagged)} tagged")
    print("\nFirst five labels recovered from raw bytes:")
    for flow in tagged[:5]:
        print(f"  {flow.fid} -> {flow.fqdn}")
    os.remove(path)


if __name__ == "__main__":
    main()
