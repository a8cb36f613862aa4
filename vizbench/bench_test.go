package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/camera"
	"repro/internal/grid"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// fakeReader implements BlockReader plus whichever optional interfaces its
// embedding type adds, counting the calls that reach it.
type fakeReader struct{ single, ctx, batch, recycled int }

func (f *fakeReader) ReadBlock(grid.BlockID) ([]float32, error) { f.single++; return []float32{1}, nil }

type ctxFake struct{ *fakeReader }

func (f ctxFake) ReadBlockContext(context.Context, grid.BlockID) ([]float32, error) {
	f.ctx++
	return []float32{1}, nil
}

type batchFake struct{ *fakeReader }

func (f batchFake) ReadBlocks(_ context.Context, ids []grid.BlockID) ([][]float32, []error) {
	f.batch++
	return make([][]float32, len(ids)), make([]error, len(ids))
}

type recycleFake struct{ *fakeReader }

func (f recycleFake) RecycleBlockBuf([]float32) { f.recycled++ }

func implements(r store.BlockReader) (c, b, rc bool) {
	_, c = r.(store.ContextBlockReader)
	_, b = r.(store.BatchBlockReader)
	_, rc = r.(store.BlockBufRecycler)
	return
}

// TestWrapReaderForwardsExactly checks every combination of optional
// reader interfaces: the wrapper implements exactly the ones the wrapped
// reader does, forwards each call, and records one span per read.
func TestWrapReaderForwardsExactly(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		f := &fakeReader{}
		var inner store.BlockReader
		switch mask {
		case 0:
			inner = f
		case 1:
			inner = ctxFake{f}
		case 2:
			inner = batchFake{f}
		case 3:
			inner = struct {
				*fakeReader
				ctxFake
				batchFake
			}{f, ctxFake{f}, batchFake{f}}
		case 4:
			inner = recycleFake{f}
		case 5:
			inner = struct {
				*fakeReader
				ctxFake
				recycleFake
			}{f, ctxFake{f}, recycleFake{f}}
		case 6:
			inner = struct {
				*fakeReader
				batchFake
				recycleFake
			}{f, batchFake{f}, recycleFake{f}}
		case 7:
			inner = struct {
				*fakeReader
				ctxFake
				batchFake
				recycleFake
			}{f, ctxFake{f}, batchFake{f}, recycleFake{f}}
		}
		tr := newTracer()
		w := wrapReader(inner, spanStore, tr)
		wc, wb, wr := implements(w)
		ic, ib, ir := implements(inner)
		if wc != ic || wb != ib || wr != ir {
			t.Fatalf("mask %d: wrapper implements ctx/batch/recycle %v/%v/%v, inner %v/%v/%v",
				mask, wc, wb, wr, ic, ib, ir)
		}
		want := fakeReader{single: 1}
		w.ReadBlock(0)
		if wc {
			w.(store.ContextBlockReader).ReadBlockContext(context.Background(), 0)
			want.ctx = 1
		}
		if wb {
			w.(store.BatchBlockReader).ReadBlocks(context.Background(), []grid.BlockID{0, 1})
			want.batch = 1
		}
		if wr {
			w.(store.BlockBufRecycler).RecycleBlockBuf(nil)
			want.recycled = 1
		}
		if *f != want {
			t.Fatalf("mask %d: calls reaching the reader %+v, want %+v", mask, *f, want)
		}
		if got := len(tr.snapshot()); got != 1+want.ctx+want.batch {
			t.Fatalf("mask %d: %d spans, want %d", mask, got, 1+want.ctx+want.batch)
		}
	}
	if f := (&fakeReader{}); wrapReader(f, spanStore, nil) != store.BlockReader(f) {
		t.Fatal("untraced wrapReader must return the reader itself")
	}
}

// TestCountingConnUnbuffered checks that each write reaches the peer whole
// and at once, and that both directions are counted.
func TestCountingConnUnbuffered(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var n atomic.Int64
	c := countingConn{Conn: a, bytes: &n}
	done := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("hello"))
		done <- err
	}()
	buf := make([]byte, 16)
	// net.Pipe is synchronous: the peer sees the bytes only if the wrapper
	// passed the write straight through.
	k, err := b.Read(buf)
	if err != nil || string(buf[:k]) != "hello" {
		t.Fatalf("peer read %q, %v", buf[:k], err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	go b.Write([]byte("ok"))
	if _, err := io.ReadFull(c, buf[:2]); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 7 {
		t.Fatalf("counted %d bytes, want 7", n.Load())
	}
}

// TestTracingIsTransparent plays the same frames of local-explore with
// prefetch off, untraced and traced, and requires identical visible-block
// and backing-read counts. One demand worker (GOMAXPROCS 1 at runtime
// creation) keeps the cache's install order, and so its evictions,
// deterministic.
func TestTracingIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes the benchmark dataset twice")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wl, _ := workloadByName("local-explore")
	itins, err := wl.itins(1)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		visible, frames, failed int64
		reads, batches          int64
		demandReads, hits       int64
	}
	run := func(traced bool) outcome {
		st, _, warm, err := setUp(wl, itins, t.TempDir(), traced, false)
		if err != nil {
			t.Fatal(err)
		}
		defer tearDown(st)
		tl := st.play(40, time.Time{})
		tl.add(warm)
		c := st.counters()
		if traced {
			checkSpansFile(t, st.tr.snapshot())
		}
		return outcome{tl.visible, tl.frames, tl.failed, c.io.Reads, c.io.Batches, c.ooc.DemandReads, c.ooc.DemandHits}
	}
	plain, traced := run(false), run(true)
	if plain != traced {
		t.Fatalf("tracing changed the work done:\n untraced %+v\n traced   %+v", plain, traced)
	}
	if plain.failed != 0 || plain.reads == 0 {
		t.Fatalf("implausible run: %+v", plain)
	}
}

// checkSpansFile writes spans the way a traced run does and reads them
// back: one line per span, every parent recorded, and self time within the
// span's duration.
func checkSpansFile(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	path := filepath.Join(t.TempDir(), "local-explore.spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	var lines []line
	ids := map[uint64]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var x line
		if err := json.Unmarshal([]byte(l), &x); err != nil {
			t.Fatalf("span line %q: %v", l, err)
		}
		lines = append(lines, x)
		ids[x.ID] = true
	}
	if len(lines) != len(spans) {
		t.Fatalf("wrote %d span lines, want %d", len(lines), len(spans))
	}
	for _, x := range lines {
		if x.Parent != 0 && !ids[x.Parent] {
			t.Fatalf("span %d: parent %d not written", x.ID, x.Parent)
		}
		if x.Self < 0 || x.Self > x.End-x.Start {
			t.Fatalf("span %d: self %d ns outside its %d ns", x.ID, x.Self, x.End-x.Start)
		}
	}
}

// TestItinerariesArePureInSeed checks that each workload's per-session
// positions, and the visible sets they produce, depend only on the seed.
func TestItinerariesArePureInSeed(t *testing.T) {
	_, g, err := geometry()
	if err != nil {
		t.Fatal(err)
	}
	theta := vec.Radians(viewAngleDeg)
	visibleSets := func(itins [][]vec.V3) [][]grid.BlockID {
		var out [][]grid.BlockID
		for _, steps := range itins {
			for _, pos := range steps[:20] {
				out = append(out, visibility.VisibleSet(g, camera.Camera{Pos: pos, ViewAngle: theta}))
			}
		}
		return out
	}
	for _, wl := range workloads {
		a, err := wl.itins(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := wl.itins(7)
		c, _ := wl.itins(8)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(visibleSets(a), visibleSets(b)) {
			t.Fatalf("%s: equal seeds gave different itineraries", wl.name)
		}
		if reflect.DeepEqual(a, c) || reflect.DeepEqual(visibleSets(a), visibleSets(c)) {
			t.Fatalf("%s: seeds 7 and 8 gave the same itineraries", wl.name)
		}
	}
}
