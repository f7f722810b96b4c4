"""repro — a reproduction of DN-Hunter (Bermudez et al., ACM IMC 2012).

DN-Hunter passively correlates DNS responses with layer-4 flows to tag
every flow with the FQDN the client resolved, restoring traffic
visibility in a web where content owners and content hosts are decoupled
("the tangled web").  This package implements the full system —

* ``repro.net`` / ``repro.dns`` — packet and DNS substrates built from
  scratch (wire formats, caches, the PTR zone, pcap I/O);
* ``repro.sniffer`` — the real-time component: DNS resolver replica
  (Algorithm 1), flow sniffer, flow tagger, policy enforcer;
* ``repro.analytics`` — the off-line analyzer: spatial discovery,
  content discovery, service-tag extraction (Algorithms 2–4) and the
  measurement analytics behind every figure;
* ``repro.baselines`` — reverse-DNS lookup, TLS certificate inspection
  and DPI comparators;
* ``repro.simulation`` — a synthetic tangled-web internet and client
  workload that stands in for the paper's ISP traces;
* ``repro.experiments`` — one module per table/figure of the paper.

Quickstart::

    from repro.simulation import build_trace
    from repro.sniffer import SnifferPipeline

    trace = build_trace("EU1-FTTH", seed=7)
    pipeline = SnifferPipeline()
    flows = pipeline.process_trace(trace)
    print(pipeline.hit_counts_by_protocol())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
