"""A synthetic "tangled web" internet and ISP workload generator.

The paper's evaluation runs on packet traces from five ISP vantage
points.  Those traces are proprietary, so this package builds the
closest synthetic equivalent: a model internet in which

* content owners (Google, Facebook, Zynga, LinkedIn, ...) publish FQDNs
  whose content is hosted by CDNs and clouds (Akamai, Amazon EC2,
  EdgeCast, ...) with per-geography server pools — the "tangle";
* DNS answers carry CDN-style rotating answer lists, TTL policy, and
  diurnal pool scaling;
* clients browse with OS-level DNS caches, prefetch aggressively
  (useless resolutions), open flows after realistic first-flow delays,
  run mail/chat/P2P applications, and on 3G arrive mid-trace with warm
  caches;
* five trace profiles reproduce the qualitative structure of Tab. 1,
  plus an 18-day "live deployment" stream for Fig. 6/10/11 and Tab. 8.

Every mechanism the paper measures is generated behaviourally, so the
sniffer and analytics exercise the same code paths as on real traffic.
"""

from repro.simulation.entities import (
    Cdn,
    Deployment,
    Organization,
    Service,
)
from repro.simulation.internet import Internet, build_internet
from repro.simulation.trace import (
    Trace,
    TraceProfile,
    TRACE_PROFILES,
    build_live_deployment,
    build_trace,
)

__all__ = [
    "Cdn",
    "Deployment",
    "Organization",
    "Service",
    "Internet",
    "build_internet",
    "Trace",
    "TraceProfile",
    "TRACE_PROFILES",
    "build_trace",
    "build_live_deployment",
]
