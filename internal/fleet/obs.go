package fleet

import "lakenav/internal/obs"

// coordMetrics is the coordinator's registry. Each Coordinator owns a
// fresh one (tests boot several per process), exported at /metrics next
// to the process-wide core registry, mirroring how navhttp does it.
type coordMetrics struct {
	reg *obs.Registry

	// Request-plane counters.
	requests *obs.Counter
	inflight *obs.Gauge
	shed     *obs.Counter

	// Fan-out accounting: sub-batches dispatched to shards, items
	// answered with a degradation error because their shard was
	// unreachable, and proxied single-item requests.
	fanout   *obs.Counter
	degraded *obs.Counter
	proxied  *obs.Counter

	// Shard-client behavior: transport retries.
	retries *obs.Counter

	// Health-plane state: shardDown counts up→down transitions (the
	// alertable event), healthy gauges the current healthy-shard count,
	// and genBumps counts observed per-shard generation advances — the
	// signal that a shard swapped organizations and its serve cache
	// invalidated itself.
	shardDown *obs.Counter
	healthy   *obs.Gauge
	genBumps  *obs.Counter
}

func newCoordMetrics() *coordMetrics {
	reg := obs.NewRegistry()
	return &coordMetrics{
		reg:       reg,
		requests:  reg.Counter("fleet.requests_total"),
		inflight:  reg.Gauge("fleet.inflight"),
		shed:      reg.Counter("fleet.shed_total"),
		fanout:    reg.Counter("fleet.fanout.subbatches_total"),
		degraded:  reg.Counter("fleet.degraded_items_total"),
		proxied:   reg.Counter("fleet.proxied_total"),
		retries:   reg.Counter("fleet.retries_total"),
		shardDown: reg.Counter("fleet.shard.down"),
		healthy:   reg.Gauge("fleet.shards.healthy"),
		genBumps:  reg.Counter("fleet.shard.gen_bumps_total"),
	}
}
