#!/usr/bin/env python
"""The paper's motivating scenario: block Zynga, prioritize Dropbox.

Both services are encrypted and both run on Amazon EC2 — so neither DPI
signatures nor IP filters can separate them.  DN-Hunter's labels can,
and thanks to the DNS-response hook the verdict exists *before* the
first packet of the flow (pre-installed decisions cover even the TCP
handshake).
"""

from repro.baselines import DpiEngine
from repro.net.flow import Protocol
from repro.simulation import build_trace
from repro.sniffer import PolicyAction, PolicyEnforcer, PolicyRule, SnifferPipeline


def main() -> None:
    policy = PolicyEnforcer()
    policy.add_rule(PolicyRule("zynga.com", PolicyAction.BLOCK))
    policy.add_rule(PolicyRule("*.zynga.com", PolicyAction.BLOCK))
    policy.add_rule(PolicyRule("*.dropbox.com", PolicyAction.PRIORITIZE))

    print("Building EU1-ADSL2 trace and enforcing policy inline...")
    trace = build_trace("EU1-ADSL2", seed=7)
    pipeline = SnifferPipeline(clist_size=100_000, policy=policy)
    pipeline.process_trace(trace)

    blocked = pipeline.blocked_flows
    zynga_blocked = [f for f in blocked if f.fqdn and "zynga" in f.fqdn]
    preinstalled = policy.stats["preinstalled_used"]

    print(f"\n  decisions taken:        {policy.stats['decisions']}")
    print(f"  flows blocked:          {len(blocked)} "
          f"({len(zynga_blocked)} labeled zynga)")
    print(f"  flows prioritized:      {policy.stats['prioritized']}")
    print(f"  pre-installed verdicts: {policy.preinstalled_count()} "
          f"(client,server) pairs armed before any flow began; "
          f"used for {preinstalled} untagged flows")

    # Show that IP-based filtering could NOT have done this: find an
    # Amazon server carrying both blocked and allowed traffic.
    amazon_servers_blocked = {f.fid.server_ip for f in blocked}
    both = [
        f for f in pipeline.tagged_flows
        if f.fid.server_ip in amazon_servers_blocked
        and f.fqdn
        and "zynga" not in f.fqdn
    ]
    if both:
        sample = both[0]
        print(
            f"\n  shared infrastructure: server of a blocked zynga flow "
            f"also serves {sample.fqdn} (allowed) — an IP blacklist "
            f"would have broken that service."
        )

    tls_blocked = [f for f in zynga_blocked if f.protocol is Protocol.TLS]
    print(
        f"\n  {len(tls_blocked)} of the blocked zynga flows were TLS — "
        f"invisible to DPI signatures, visible to DN-Hunter."
    )
    # The comparison point: signature DPI on the first bytes of a TLS
    # ClientHello record names the protocol, never the service.
    verdict = DpiEngine().inspect_payload(b"\x16\x03\x01\x02\x00\x01")
    print(f"  DPI verdict on a TLS handshake: {verdict.signature} "
          f"(service identified: {verdict.specific})")


if __name__ == "__main__":
    main()
