"""Client routing hash (Sec. 3.1.1 scaling note).

"When the number of monitored clients increase, several load balancing
strategies can be used.  For example, two resolvers can be maintained
for odd and even fourth octet value in the client IP-address."

:func:`shard_of` is that split generalized to N partitions.  It is the
one routing hash of the repo: capture-side worker processes
(:mod:`repro.sniffer.fanout`) and flow-store shards
(:mod:`repro.analytics.shard`) both partition by it.
"""

from __future__ import annotations


def shard_of(client_ip: int, shards: int) -> int:
    """The one definition of the client routing hash (low-octet modulo).

    Shared by :class:`repro.sniffer.fanout.FanoutPipeline` (worker
    processes) and :class:`repro.analytics.shard.ShardRouter` (store
    shards) so a client's DNS responses and flows always meet in the
    same partition.
    """
    return (client_ip & 0xFF) % shards
