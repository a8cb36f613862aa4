// Command vizbench is the repository's benchmark: it assembles the serving
// stack from its public constructors — bvol store, MemCache, blocksvc
// server over loopback TCP, shard-routed RemoteReader, spill tier,
// ooc.Runtime — runs one named viewer workload for a fixed time, checks
// every returned block against the block file's checksums, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ones) as one JSON
// line. See README.md in this directory.
//
// Usage:
//
//	vizbench -workload local-explore|remote-evict|tiered-revisit|all
//	         [-seed 1] [-seconds 10] [-trace 0|1] [-workdir dir]
//	vizbench -compare old.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// setups is how many times a run assembles its stack. setup_s is their
// median; the last one (the last two in a traced run) is measured.
const setups = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: local-explore, remote-evict, tiered-revisit, or all")
		seed    = flag.Uint64("seed", 1, "itinerary seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = print per-layer metrics from a traced run instead of end-to-end ones")
		workdir = flag.String("workdir", ".bench_build/vizbench", "directory for the block files, spill tiers and, in a traced run, <workload>.spans.jsonl")
		compare = flag.Bool("compare", false, "compare two saved outputs given as arguments; refused across different hosts")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two saved outputs"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	var one uint16 = 1
	if *(*byte)(unsafe.Pointer(&one)) != 1 {
		fatal(fmt.Errorf("the ground-truth check assumes a little-endian host"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	var chosen []workload
	if *name == "all" {
		chosen = workloads
	} else if wl, ok := workloadByName(*name); ok {
		chosen = []workload{wl}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	host := fingerprint()
	hj, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hj)

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range chosen {
		fmt.Printf("# workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *trace)
		res, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", wl.name, err))
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(chosen) > 1 {
				k = wl.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vizbench:", err)
	os.Exit(2)
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one named number; samples > 0 is printed beside it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// runWorkload sets the workload up setups times, measures the last stack
// (a traced run measures an untraced stack and then a traced one, half the
// time each, and writes the traced spans to <workdir>/<workload>.spans.jsonl),
// and returns the contract result.
func runWorkload(wl workload, seed uint64, d time.Duration, traced bool, workdir string) (result, error) {
	itins, err := wl.itins(seed)
	if err != nil {
		return result{}, err
	}
	var (
		times      []setupTimes
		all        tally // every frame played, warm-up included
		untraced   *window
		tracedWin  *window
		reconciled int64
	)
	for i := 0; i < setups; i++ {
		tracing := traced && i == setups-1
		st, t, warm, err := setUp(wl, itins, workdir, tracing, true)
		if err != nil {
			return result{}, err
		}
		times = append(times, t)
		all.add(warm)
		switch {
		case !traced && i == setups-1:
			untraced = st.measure(d)
			all.add(untraced.tally)
		case traced && i == setups-2:
			untraced = st.measure(d / 2)
			all.add(untraced.tally)
		case tracing:
			tracedWin = st.measure(d / 2)
			all.add(tracedWin.tally)
			for _, s := range st.sessions {
				s.rt.Close() // drain prefetch so client and server totals settle
			}
			reconciled = st.unreconciled()
		}
		tearDown(st)
	}
	if all.firstErr != nil {
		fmt.Fprintf(os.Stderr, "vizbench: %s: first failed frame: %v\n", wl.name, all.firstErr)
	}
	res := result{
		Correct:   all.failed == 0,
		Attempted: all.frames,
		Failed:    all.failed,
		Metrics:   map[string]metricValue{},
	}
	med := medianSetup(times)
	var ms []metric
	if traced {
		ms = perLayer(tracedWin, untraced, med, reconciled, all)
		if err := writeSpans(filepath.Join(workdir, wl.name+".spans.jsonl"), tracedWin.spans); err != nil {
			return result{}, err
		}
		printSpanSummary(wl.name, tracedWin.spans)
	} else {
		ms = endToEnd(untraced, med)
	}
	for _, m := range ms {
		if m.samples > 0 {
			fmt.Printf("%-44s %14.4f %-12s n=%d\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Printf("%-44s %14.4f %s\n", m.name, m.value, m.unit)
		}
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// window is one measured interval of a stack.
type window struct {
	tally         *tally
	elapsed       time.Duration
	before, after counters
	spans         []span
	queueWaitP99  int64 // ns, largest over the servers
}

// measure plays every session for d and collects the counters and spans.
func (st *stack) measure(d time.Duration) *window {
	w := &window{before: st.counters()}
	start := time.Now()
	w.tally = st.play(0, start.Add(d))
	w.elapsed = time.Since(start)
	w.after = st.counters()
	w.spans = st.tr.snapshot()
	for _, s := range st.servers {
		if p := s.reg.Histogram("svc.queue_wait_ns", nil).Snapshot().P99; p > w.queueWaitP99 {
			w.queueWaitP99 = p
		}
	}
	return w
}

// unreconciled cross-checks the layers' own counters: blocks the clients
// received against blocks the servers answered with data, and server
// prefetch hits against prefetches executed. 0 when they agree.
func (st *stack) unreconciled() int64 {
	if len(st.servers) == 0 {
		return 0
	}
	c := st.counters()
	n := abs(c.client.BlocksServed - c.server.BlocksOK)
	if c.server.PrefetchHits > c.server.PrefetchExecuted {
		n += c.server.PrefetchHits - c.server.PrefetchExecuted
	}
	return n
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func medianSetup(ts []setupTimes) setupTimes {
	s := append([]setupTimes(nil), ts...)
	sort.Slice(s, func(i, j int) bool { return s[i].total() < s[j].total() })
	return s[len(s)/2]
}

// quantile returns the nearest-rank q-quantile of xs (unsorted, unmodified).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q * float64(len(s))))
	return s[min(max(k-1, 0), len(s)-1)]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func endToEnd(w *window, setup setupTimes) []metric {
	n := len(w.tally.frameNs)
	return []metric{
		{"frame_p50_ms", float64(quantile(w.tally.frameNs, 0.50)) / 1e6, "ms", n},
		{"frames_per_s", float64(n) / w.elapsed.Seconds(), "1/s", n},
		{"setup_s", setup.total().Seconds(), "s", setups},
		{"peak_rss_mb", peakRSSMB(), "MB", 0},
	}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// host identifies the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// savedRun is a parsed vizbench output: its host line and result line.
type savedRun struct {
	host host
	res  result
}

func readSaved(path string) (savedRun, error) {
	var s savedRun
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	found := false
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# host "); ok {
			if err := json.Unmarshal([]byte(rest), &s.host); err != nil {
				return s, fmt.Errorf("%s: host line: %w", path, err)
			}
			found = true
		}
	}
	if !found {
		return s, fmt.Errorf("%s: no host line; not a vizbench output", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		return s, fmt.Errorf("%s: result line: %w", path, err)
	}
	return s, nil
}

// compareFiles prints each metric of two saved outputs side by side. It
// refuses outputs from different hosts: their numbers are not comparable.
func compareFiles(oldPath, newPath string) int {
	a, err := readSaved(oldPath)
	if err != nil {
		fatal(err)
	}
	b, err := readSaved(newPath)
	if err != nil {
		fatal(err)
	}
	if a.host != b.host {
		fmt.Printf("refusing to compare: the results were measured on different hosts\n  %s: %+v\n  %s: %+v\n",
			oldPath, a.host, newPath, b.host)
		return 3
	}
	names := make([]string, 0, len(a.res.Metrics))
	for k := range a.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		av := a.res.Metrics[k]
		bv, ok := b.res.Metrics[k]
		if !ok {
			fmt.Printf("%-44s %14.4f %14s %s\n", k, av.Value, "-", av.Unit)
			continue
		}
		change := "n/a"
		if av.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(bv.Value-av.Value)/av.Value)
		}
		fmt.Printf("%-44s %14.4f %14.4f %-8s %s\n", k, av.Value, bv.Value, av.Unit, change)
	}
	return 0
}
