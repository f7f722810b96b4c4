"""DNS-to-flow delay analytics (Sec. 6, Figures 12 and 13, Table 9).

* *first flow delay* — time between a DNS response and the first flow
  the client opens to any address in the answer list (Fig. 12);
* *any flow gap* — time between the response and **every** subsequent
  flow to those addresses, reflecting client cache residency (Fig. 13);
* *useless responses* — responses never followed by any flow (Tab. 9).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.net.flow import DnsObservation, FlowRecord


@dataclass
class DelayAnalysis:
    """Computed delay distributions and the useless-response fraction.

    The distributions are plain sorted tuples and every accessor is a
    ``bisect`` probe or a linear interpolation.
    """

    first_flow_delays: Sequence[float]
    any_flow_gaps: Sequence[float]
    useless_fraction: float
    total_responses: int

    def __post_init__(self) -> None:
        # The accessors bisect, so the fields must be sorted; normalize
        # here so a hand-built instance is as safe as analyze_delays's
        # (already-sorted) output.
        self.first_flow_delays = tuple(sorted(self.first_flow_delays))
        self.any_flow_gaps = tuple(sorted(self.any_flow_gaps))

    def _data(self, which: str) -> Sequence[float]:
        return (
            self.first_flow_delays if which == "first" else self.any_flow_gaps
        )

    def cdf_points(
        self, which: str = "first", points: Sequence[float] = ()
    ) -> list[tuple[float, float]]:
        """CDF samples at the given delay values (seconds)."""
        data = self._data(which)
        if not len(data):
            return [(p, 0.0) for p in points]
        return [
            (float(p), bisect_right(data, p) / len(data))
            for p in points
        ]

    def fraction_within(self, seconds: float, which: str = "first") -> float:
        """P(delay <= seconds)."""
        data = self._data(which)
        if not len(data):
            return 0.0
        return bisect_right(data, seconds) / len(data)

    def percentile(self, q: float, which: str = "first") -> float:
        """The q-quantile of the chosen delay distribution (q in [0,100])
        with linear interpolation (numpy.percentile's default)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be in [0, 100]")
        data = self._data(which)
        if not len(data):
            raise ValueError("no delay samples")
        position = (q / 100.0) * (len(data) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        fraction = position - lower
        return float(
            data[lower] + (data[upper] - data[lower]) * fraction
        )


def analyze_delays(
    observations: Iterable[DnsObservation],
    flows: Iterable[FlowRecord],
    horizon: float = float("inf"),
) -> DelayAnalysis:
    """Correlate DNS responses with subsequent flows, client by client.

    For each response, find flows from the same client to any address in
    the answer list that start after the response (within ``horizon``).
    A response with no such flow is "useless" (Tab. 9).  When several
    responses for the same (client, server) precede a flow, the flow is
    charged to the most recent one — matching the resolver's
    last-written-wins label.
    """
    # (client, server) -> sorted response timestamps
    response_times: dict[tuple[int, int], list[float]] = defaultdict(list)
    response_list: list[DnsObservation] = []
    for observation in observations:
        response_list.append(observation)
        for server in observation.answers:
            response_times[(observation.client_ip, server)].append(
                observation.timestamp
            )
    for times in response_times.values():
        times.sort()

    first_delay: dict[int, float] = {}  # response id -> first flow delay
    any_gaps: list[float] = []
    # Map each (client, server, response_ts) back to the response object id
    response_index: dict[tuple[int, int, float], int] = {}
    for rid, observation in enumerate(response_list):
        for server in observation.answers:
            response_index[
                (observation.client_ip, server, observation.timestamp)
            ] = rid

    for flow in flows:
        key = (flow.fid.client_ip, flow.fid.server_ip)
        times = response_times.get(key)
        if not times:
            continue
        position = bisect_right(times, flow.start) - 1
        if position < 0:
            continue
        response_ts = times[position]
        gap = flow.start - response_ts
        if gap > horizon:
            continue
        any_gaps.append(gap)
        rid = response_index[(key[0], key[1], response_ts)]
        if rid not in first_delay or gap < first_delay[rid]:
            first_delay[rid] = gap

    total = len(response_list)
    useless = total - len(first_delay)
    for rid, observation in enumerate(response_list):
        observation.useless = rid not in first_delay
    return DelayAnalysis(
        first_flow_delays=tuple(sorted(first_delay.values())),
        any_flow_gaps=tuple(sorted(any_gaps)),
        useless_fraction=useless / total if total else 0.0,
        total_responses=total,
    )
