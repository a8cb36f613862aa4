package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"repro/internal/blocksvc"
	"repro/internal/camera"
	"repro/internal/ooc"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/vec"
	"repro/internal/visibility"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockCRC is the CRC32C of a block's voxels as little-endian float32
// bytes, the encoding the bvol file checksums. main refuses big-endian
// hosts, so the in-memory bytes are that encoding.
func blockCRC(vals []float32) uint32 {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*4)
	return crc32.Checksum(b, castagnoli)
}

// tally is what one session's loop observed.
type tally struct {
	frameNs    []int64 // view update through Frame returning, per frame
	frames     int64
	failed     int64 // degraded, errored, or failing the ground-truth check
	mismatches int64 // blocks whose bytes differ from the block file's
	missing    int64 // nil slots
	visible    int64 // visible blocks over all frames
	fanout     int64 // distinct owning shards, summed over frames
	firstErr   error
}

func (t *tally) add(o *tally) {
	t.frameNs = append(t.frameNs, o.frameNs...)
	t.frames += o.frames
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.missing += o.missing
	t.visible += o.visible
	t.fanout += o.fanout
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// play runs every session's closed loop concurrently, each until it has
// played frames frames (frames > 0) or until deadline passes.
func (st *stack) play(frames int, deadline time.Time) *tally {
	tallies := make([]tally, len(st.sessions))
	var wg sync.WaitGroup
	for i, s := range st.sessions {
		wg.Add(1)
		go func(s *session, t *tally) {
			defer wg.Done()
			for n := 0; frames > 0 && n < frames || frames == 0 && time.Now().Before(deadline); n++ {
				st.frame(s, t)
			}
		}(s, &tallies[i])
	}
	wg.Wait()
	var all tally
	for i := range tallies {
		all.add(&tallies[i])
	}
	return &all
}

// frame plays one step of a session: view update, visible set, Frame, then
// the render interval, inside which the returned blocks are verified.
func (st *stack) frame(s *session, t *tally) {
	pos := s.step()
	ctx, fsp := st.tr.start(context.Background(), spanFrame)
	t0 := time.Now()
	var err error
	if s.rr != nil {
		vctx, sp := st.tr.start(ctx, spanView)
		err = s.rr.SendView(vctx, pos)
		sp.end()
	}
	_, sp := st.tr.start(ctx, spanVisibility)
	visible := visibility.VisibleSet(st.w.g, camera.Camera{Pos: pos, ViewAngle: st.w.theta})
	sp.endBlocks(len(visible), false)
	octx, sp := st.tr.start(ctx, spanOOC)
	data, rep, ferr := s.rt.Frame(octx, pos, visible)
	sp.end()
	t1 := time.Now()
	fsp.end()

	t.frameNs = append(t.frameNs, t1.Sub(t0).Nanoseconds())
	t.frames++
	t.visible += int64(len(visible))
	if err == nil {
		err = ferr
	}
	bad := err != nil || rep.Degraded
	if err == nil {
		for i, id := range visible {
			switch {
			case data[i] == nil:
				t.missing++
				bad = true
			case blockCRC(data[i]) != st.w.crcs[id]:
				t.mismatches++
				bad = true
			}
		}
	}
	if st.tr != nil && st.ring != nil {
		owners := map[int]struct{}{}
		for _, id := range visible {
			owners[st.ring.OwnerBlock(id)] = struct{}{}
		}
		t.fanout += int64(len(owners))
	}
	if bad {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("frame at %v: err=%v degraded=%v missing=%d mismatched=%d",
				pos, err, rep.Degraded, t.missing, t.mismatches)
		}
	}
	time.Sleep(time.Until(t1.Add(renderCost.FrameTime(len(visible)))))
}

// counters is every layer counter the benchmark reads, at one instant.
type counters struct {
	backing []store.CacheCounters // caches nearest storage
	viewer  []store.CacheCounters // the sessions' DRAM caches
	io      store.IOStats
	ooc     ooc.Stats
	client  blocksvc.ClientStats
	server  blocksvc.ServerStats
	tier    tier.Counters
	wire    int64
}

func (st *stack) counters() counters {
	var c counters
	for _, mc := range st.backing {
		c.backing = append(c.backing, mc.Counters())
	}
	for _, s := range st.sessions {
		c.viewer = append(c.viewer, s.cache.Counters())
		addOOC(&c.ooc, s.rt.Snapshot())
	}
	c.io = st.w.bf.IOStats()
	for _, rr := range st.rrs {
		addClient(&c.client, rr.Snapshot())
	}
	for _, s := range st.servers {
		addServer(&c.server, s.srv.Snapshot())
	}
	if st.spill != nil {
		c.tier = st.spill.Counters()
	}
	c.wire = st.wire.Load()
	return c
}

func addOOC(d *ooc.Stats, s ooc.Stats) {
	d.Frames += s.Frames
	d.DemandReads += s.DemandReads
	d.DemandHits += s.DemandHits
	d.PrefetchIssued += s.PrefetchIssued
	d.PrefetchDropped += s.PrefetchDropped
	d.PrefetchExecuted += s.PrefetchExecuted
}

func addClient(d *blocksvc.ClientStats, s blocksvc.ClientStats) {
	d.Requests += s.Requests
	d.BlocksServed += s.BlocksServed
	d.BytesReceived += s.BytesReceived
	d.Redirects += s.Redirects
}

func addServer(d *blocksvc.ServerStats, s blocksvc.ServerStats) {
	d.Requests += s.Requests
	d.ShedRequests += s.ShedRequests
	d.BlocksOK += s.BlocksOK
	d.CompressedBlocks += s.CompressedBlocks
	d.PrefetchExecuted += s.PrefetchExecuted
	d.PrefetchHits += s.PrefetchHits
}

func sumCache(cs []store.CacheCounters) store.CacheCounters {
	var t store.CacheCounters
	for _, c := range cs {
		t.Hits += c.Hits
		t.Misses += c.Misses
		t.Coalesced += c.Coalesced
		t.Evictions += c.Evictions
	}
	return t
}

// setUp assembles a workload's stack in its own directory under root and
// plays the untimed warm-up, whose frames it returns. A traced stack keeps
// only the spans recorded after warm-up.
func setUp(wl workload, itins [][]vec.V3, root string, traced, prefetch bool) (*stack, setupTimes, *tally, error) {
	var times setupTimes
	dir, err := os.MkdirTemp(root, wl.name+"-")
	if err != nil {
		return nil, times, nil, err
	}
	w, err := newWorld(dir, itins, &times)
	if err != nil {
		os.RemoveAll(dir)
		return nil, times, nil, err
	}
	st := &stack{w: w}
	if traced {
		st.tr = newTracer()
	}
	t0 := time.Now()
	if err := wl.build(st, itins, prefetch); err != nil {
		tearDown(st)
		return nil, times, nil, err
	}
	warm := st.play(warmupFrames, time.Time{})
	times.warmup = time.Since(t0)
	st.tr.reset()
	return st, times, warm, nil
}

// tearDown stops the stack, removes its files and returns its memory to
// the OS, so the next set-up in the process starts from a clean heap and
// peak RSS reflects one stack.
func tearDown(st *stack) {
	st.close()
	st.w.close()
	os.RemoveAll(st.w.dir)
	debug.FreeOSMemory()
}
