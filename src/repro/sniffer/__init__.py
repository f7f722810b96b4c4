"""DN-Hunter's real-time sniffer component (Sec. 3 of the paper).

The pieces mirror Fig. 1 of the paper:

* :class:`~repro.sniffer.resolver.DnsResolver` — the replica of the
  clients' DNS caches built from sniffed responses (Algorithm 1);
* :class:`~repro.sniffer.dns_sniffer.DnsResponseSniffer` — decodes DNS
  responses off the wire and feeds the resolver;
* :class:`~repro.sniffer.flow_sniffer.FlowSniffer` — rebuilds layer-4
  flows from packets;
* :class:`~repro.sniffer.tagger.FlowTagger` — attaches the FQDN label to
  each flow;
* :class:`~repro.sniffer.policy.PolicyEnforcer` — applies block /
  prioritize / rate-limit rules on tagged flows (and *before* the flow
  starts, using the DNS response alone);
* :class:`~repro.sniffer.pipeline.SnifferPipeline` — wires everything
  together for both the packet path and the fast event path;
* :class:`~repro.sniffer.fanout.FanoutPipeline` — partitions the event
  stream by client IP across worker processes fed by the binary batch
  codec of :mod:`repro.sniffer.eventcodec` and merges their statistics
  (``SnifferPipeline(processes=N)`` on the event path; the packet path
  and durable ingest run in-process).
"""

from repro.sniffer.resolver import DnsResolver, ResolverStats, fuse_key
from repro.sniffer.dns_sniffer import DnsResponseSniffer
from repro.sniffer.fanout import FanoutPipeline, FanoutReport
from repro.sniffer.flow_sniffer import FlowSniffer
from repro.sniffer.tagger import FlowTagger
from repro.sniffer.policy import (
    PolicyAction,
    PolicyDecision,
    PolicyEnforcer,
    PolicyRule,
)
from repro.sniffer.pipeline import SnifferPipeline

__all__ = [
    "DnsResolver",
    "ResolverStats",
    "fuse_key",
    "DnsResponseSniffer",
    "FanoutPipeline",
    "FanoutReport",
    "FlowSniffer",
    "FlowTagger",
    "PolicyAction",
    "PolicyDecision",
    "PolicyEnforcer",
    "PolicyRule",
    "SnifferPipeline",
]
