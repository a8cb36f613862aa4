package main

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/store"
)

// Span names recorded by the traced run. Each names the layer whose public
// call the span times; parents come from the span id carried in ctx.
const (
	spanFrame      = "frame"           // view update through Frame returning
	spanView       = "blocksvc.view"   // RemoteReader.SendView
	spanVisibility = "visibility"      // visibility.VisibleSet
	spanOOC        = "ooc.frame"       // ooc.Runtime.Frame
	spanStore      = "store.read"      // BlockFile reads (client or server side)
	spanClient     = "blocksvc.client" // RemoteReader reads
	spanTier       = "tier.read"       // tier.Reader reads
	spanDial       = "blocksvc.dial"   // client connection set-up
)

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent uint64
	name       string
	start, end int64
	blocks     int  // blocks the call asked for
	batch      bool // a ReadBlocks call rather than a single-block read
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// parentOf returns the id of the span ctx carries, 0 for none.
func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span under ctx's span and returns a ctx carrying the new
// span's id, so calls made with it become its children.
func (t *tracer) start(ctx context.Context, name string) (context.Context, openSpan) {
	if t == nil {
		return ctx, openSpan{}
	}
	s := span{id: t.next.Add(1), parent: parentOf(ctx), name: name,
		start: time.Since(t.epoch).Nanoseconds()}
	return context.WithValue(ctx, spanKey{}, s.id), openSpan{t: t, s: s}
}

func (o openSpan) end() { o.endBlocks(0, false) }

func (o openSpan) endBlocks(blocks int, batch bool) {
	if o.t == nil {
		return
	}
	o.s.end = time.Since(o.t.epoch).Nanoseconds()
	o.s.blocks, o.s.batch = blocks, batch
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children, which may overlap
// because a frame's demand chunks read in parallel.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(children[s.id], s.start, s.end)
	}
	return self
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// tracedReader times every read of the reader it wraps. wrapReader returns
// it combined with exactly the optional store interfaces the wrapped reader
// implements, so a MemCache above it takes the same code paths (batching,
// context cancellation, buffer recycling) it would take without it.
type tracedReader struct {
	inner store.BlockReader
	name  string
	t     *tracer
}

func (r *tracedReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	_, sp := r.t.start(context.Background(), r.name)
	vals, err := r.inner.ReadBlock(id)
	sp.endBlocks(1, false)
	return vals, err
}

type ctxReader struct{ *tracedReader }

func (r ctxReader) ReadBlockContext(ctx context.Context, id grid.BlockID) ([]float32, error) {
	ctx, sp := r.t.start(ctx, r.name)
	vals, err := r.inner.(store.ContextBlockReader).ReadBlockContext(ctx, id)
	sp.endBlocks(1, false)
	return vals, err
}

type batchReader struct{ *tracedReader }

func (r batchReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	ctx, sp := r.t.start(ctx, r.name)
	vals, errs := r.inner.(store.BatchBlockReader).ReadBlocks(ctx, ids)
	sp.endBlocks(len(ids), true)
	return vals, errs
}

type recycler struct{ *tracedReader }

func (r recycler) RecycleBlockBuf(vals []float32) {
	r.inner.(store.BlockBufRecycler).RecycleBlockBuf(vals)
}

// wrapReader wraps inner in a span-recording reader when t is non-nil and
// returns inner unchanged otherwise.
func wrapReader(inner store.BlockReader, name string, t *tracer) store.BlockReader {
	if t == nil {
		return inner
	}
	b := &tracedReader{inner: inner, name: name, t: t}
	_, c := inner.(store.ContextBlockReader)
	_, bt := inner.(store.BatchBlockReader)
	_, rc := inner.(store.BlockBufRecycler)
	C, B, R := ctxReader{b}, batchReader{b}, recycler{b}
	switch {
	case c && bt && rc:
		return struct {
			*tracedReader
			ctxReader
			batchReader
			recycler
		}{b, C, B, R}
	case c && bt:
		return struct {
			*tracedReader
			ctxReader
			batchReader
		}{b, C, B}
	case c && rc:
		return struct {
			*tracedReader
			ctxReader
			recycler
		}{b, C, R}
	case bt && rc:
		return struct {
			*tracedReader
			batchReader
			recycler
		}{b, B, R}
	case c:
		return struct {
			*tracedReader
			ctxReader
		}{b, C}
	case bt:
		return struct {
			*tracedReader
			batchReader
		}{b, B}
	case rc:
		return struct {
			*tracedReader
			recycler
		}{b, R}
	}
	return b
}

// countingConn counts the bytes a client connection moves. Read and Write
// go straight to the wrapped conn: no buffering, so the protocol's framing
// and flush points are unchanged.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// tracedDialer dials TCP addresses for a RemoteReader. With a tracer it
// records a span per dial and counts the connection's wire bytes.
func tracedDialer(t *tracer, wire *atomic.Int64) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		_, sp := t.start(ctx, spanDial)
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		sp.end()
		if err != nil || t == nil {
			return c, err
		}
		return countingConn{Conn: c, bytes: wire}, nil
	}
}
