package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/store"
)

// sub returns the counter movement from b to c.
func (c counters) sub(b counters) counters {
	d := c
	sc, sb := sumCache(c.backing), sumCache(b.backing)
	d.backing = []store.CacheCounters{{Hits: sc.Hits - sb.Hits, Misses: sc.Misses - sb.Misses,
		Coalesced: sc.Coalesced - sb.Coalesced, Evictions: sc.Evictions - sb.Evictions}}
	vc, vb := sumCache(c.viewer), sumCache(b.viewer)
	d.viewer = []store.CacheCounters{{Hits: vc.Hits - vb.Hits, Misses: vc.Misses - vb.Misses}}
	d.io.Reads -= b.io.Reads
	d.io.Batches -= b.io.Batches
	d.io.MergedRuns -= b.io.MergedRuns
	d.ooc.Frames -= b.ooc.Frames
	d.ooc.DemandReads -= b.ooc.DemandReads
	d.ooc.DemandHits -= b.ooc.DemandHits
	d.ooc.PrefetchIssued -= b.ooc.PrefetchIssued
	d.ooc.PrefetchDropped -= b.ooc.PrefetchDropped
	d.ooc.PrefetchExecuted -= b.ooc.PrefetchExecuted
	d.client.Requests -= b.client.Requests
	d.client.BlocksServed -= b.client.BlocksServed
	d.client.BytesReceived -= b.client.BytesReceived
	d.client.Redirects -= b.client.Redirects
	d.server.Requests -= b.server.Requests
	d.server.ShedRequests -= b.server.ShedRequests
	d.server.BlocksOK -= b.server.BlocksOK
	d.server.CompressedBlocks -= b.server.CompressedBlocks
	d.server.PrefetchExecuted -= b.server.PrefetchExecuted
	d.server.PrefetchHits -= b.server.PrefetchHits
	d.tier.SpillWrites -= b.tier.SpillWrites
	d.tier.SpillHits -= b.tier.SpillHits
	d.tier.SpillMisses -= b.tier.SpillMisses
	d.tier.Dropped -= b.tier.Dropped
	d.wire -= b.wire
	return d
}

// durations returns the durations of the spans with the given name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func usQ(xs []int64, q float64) float64 { return float64(quantile(xs, q)) / 1e3 }

// perLayer derives the per-layer metrics from a traced window t, with u the
// untraced window of the same run for the tracing overhead.
func perLayer(t, u *window, setup setupTimes, unreconciled int64, all tally) []metric {
	d := t.after.sub(t.before)
	frames := t.tally.frames
	perFrame := func(x int64) float64 { return ratio(x, frames) }
	byID := make(map[uint64]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.id] = s
	}
	self := selfTimes(t.spans)

	// A store read is demand when a frame caused it (its ctx carries a frame
	// span) or, for server-side reads, which carry no span across the wire,
	// when it is a batch: servers batch demand reads and prefetch one block
	// at a time. Anything else is ooc or server prefetch.
	var storeSpans []span
	var demandBlocks, prefetchBlocks int64
	for _, s := range t.spans {
		if s.name != spanStore {
			continue
		}
		storeSpans = append(storeSpans, s)
		root := s
		for root.parent != 0 {
			p, ok := byID[root.parent]
			if !ok {
				break
			}
			root = p
		}
		if root.name == spanFrame || root.parent == 0 && root.id == s.id && s.batch {
			demandBlocks += int64(s.blocks)
		} else {
			prefetchBlocks += int64(s.blocks)
		}
	}
	var tierSelf []int64
	for _, s := range t.spans {
		if s.name == spanTier {
			tierSelf = append(tierSelf, self[s.id])
		}
	}
	storeDur := durations(t.spans, spanStore)
	clientDur := durations(t.spans, spanClient)
	oocDur := durations(t.spans, spanOOC)
	b, v := d.backing[0], d.viewer[0]

	return []metric{
		{"store.cache_hit_ratio", ratio(b.Hits, b.Hits+b.Misses), "ratio", 0},
		{"store.client_cache_hit_ratio", ratio(v.Hits, v.Hits+v.Misses), "ratio", 0},
		{"store.evictions_per_frame", perFrame(b.Evictions), "blocks/frame", 0},
		{"store.coalesced_per_frame", perFrame(b.Coalesced), "blocks/frame", 0},
		{"store.read_us_p50", usQ(storeDur, 0.5), "us", len(storeDur)},
		{"store.read_busy_s", float64(covered(storeSpans, math.MinInt64, math.MaxInt64)) / 1e9, "s", 0},
		{"store.blocks_read_per_frame", perFrame(d.io.Reads), "blocks/frame", 0},
		{"store.demand_blocks_read_per_frame", perFrame(demandBlocks), "blocks/frame", 0},
		{"store.prefetch_blocks_read_per_frame", perFrame(prefetchBlocks), "blocks/frame", 0},
		{"store.merged_runs_per_batch", ratio(d.io.MergedRuns, d.io.Batches), "runs/batch", 0},

		{"ooc.frame_us_p50", usQ(oocDur, 0.5), "us", len(oocDur)},
		{"ooc.frame_us_p99", usQ(oocDur, 0.99), "us", len(oocDur)},
		{"ooc.demand_hit_ratio", ratio(d.ooc.DemandHits, d.ooc.DemandHits+d.ooc.DemandReads), "ratio", 0},
		{"ooc.demand_reads_per_frame", perFrame(d.ooc.DemandReads), "blocks/frame", 0},
		{"ooc.prefetch_executed_per_frame", perFrame(d.ooc.PrefetchExecuted), "blocks/frame", 0},
		{"ooc.prefetch_drop_ratio", ratio(d.ooc.PrefetchDropped, d.ooc.PrefetchIssued+d.ooc.PrefetchDropped), "ratio", 0},

		{"blocksvc.client.read_us_p50", usQ(clientDur, 0.5), "us", len(clientDur)},
		{"blocksvc.client.read_us_p99", usQ(clientDur, 0.99), "us", len(clientDur)},
		{"blocksvc.client.requests_per_frame", perFrame(d.client.Requests), "req/frame", 0},
		{"blocksvc.client.bytes_per_frame", perFrame(d.client.BytesReceived), "B/frame", 0},
		{"blocksvc.wire.bytes_per_frame", perFrame(d.wire), "B/frame", 0},
		{"blocksvc.server.compressed_share", ratio(d.server.CompressedBlocks, d.server.BlocksOK), "ratio", 0},
		{"blocksvc.server.queue_wait_us_p99", float64(t.queueWaitP99) / 1e3, "us", 0},
		{"blocksvc.server.shed_ratio", ratio(d.server.ShedRequests, d.server.Requests+d.server.ShedRequests), "ratio", 0},
		{"blocksvc.server.prefetch_hit_ratio", ratio(d.server.PrefetchHits, d.server.BlocksOK), "ratio", 0},
		{"blocksvc.server.prefetch_useful_ratio", ratio(d.server.PrefetchHits, d.server.PrefetchExecuted), "ratio", 0},
		{"blocksvc.unreconciled_blocks", float64(unreconciled), "blocks", 0},

		{"shard.fanout_per_frame", perFrame(t.tally.fanout), "shards/frame", 0},
		{"shard.redirects", float64(d.client.Redirects), "blocks", 0},

		{"tier.read_us_p50", usQ(durations(t.spans, spanTier), 0.5), "us", len(tierSelf)},
		{"tier.self_us_p50", usQ(tierSelf, 0.5), "us", len(tierSelf)},
		{"tier.hit_ratio", ratio(d.tier.SpillHits, d.tier.SpillHits+d.tier.SpillMisses), "ratio", 0},
		{"tier.spill_writes_per_frame", perFrame(d.tier.SpillWrites), "blocks/frame", 0},
		{"tier.spill_drop_ratio", ratio(d.tier.Dropped, d.tier.SpillWrites+d.tier.Dropped), "ratio", 0},

		{"visibility.visible_set_us_p50", usQ(durations(t.spans, spanVisibility), 0.5), "us", int(frames)},
		{"visibility.blocks_per_frame", perFrame(t.tally.visible), "blocks/frame", 0},

		{"setup.materialize_s", setup.materialize.Seconds(), "s", 0},
		{"setup.entropy_s", setup.entropy.Seconds(), "s", 0},
		{"setup.visibility_s", setup.visibility.Seconds(), "s", 0},
		{"setup.warmup_s", setup.warmup.Seconds(), "s", 0},

		{"frame_p95_ms", float64(quantile(u.tally.frameNs, 0.95)) / 1e6, "ms", len(u.tally.frameNs)},
		{"frame_p99_ms", float64(quantile(u.tally.frameNs, 0.99)) / 1e6, "ms", len(u.tally.frameNs)},
		{"trace.overhead_ratio", float64(quantile(t.tally.frameNs, 0.5)) / float64(max(quantile(u.tally.frameNs, 0.5), 1)), "ratio", 0},
		{"frame_fail_ratio", ratio(all.failed, all.frames), "ratio", int(all.frames)},
	}
}

// writeSpans writes every span with its self time as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	self := selfTimes(spans)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Self   int64  `json:"self_ns"`
			Blocks int    `json:"blocks"`
		}{s.id, s.parent, s.name, s.start, s.end, self[s.id], s.blocks}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSpanSummary prints, per span name, the count and the total and self
// time, to standard error.
func printSpanSummary(workload string, spans []span) {
	type agg struct {
		n           int
		total, self int64
	}
	self := selfTimes(spans)
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += self[s.id]
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s spans: name, count, total ms, self ms\n", workload)
	for _, k := range names {
		a := by[k]
		fmt.Fprintf(os.Stderr, "  %-18s %8d %12.1f %12.1f\n", k, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
