// Command perfbench is the repository's serving benchmark. One run
// generates WatDiv data from a seed, loads it through the program's own
// load path (s2rdf load, then s2rdf serve, which opens the saved store),
// checks every distinct query of the workload against an independent
// evaluator in ExtVP, VP and TT mode, and then drives the workload closed
// loop over two keep-alive HTTP connections for the measured window.
//
//	perfbench --workload lookup|analytic|hot-cache --seed N --seconds S --trace 0|1
//	perfbench compare [flags]   (see compare.go)
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload in process, through the same public functions the
// HTTP handler calls, and prints the per-layer metrics instead. The last
// line of standard output is always the JSON result object. Run it through
// run.sh from the repository root, which builds both binaries first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"s2rdf"
	"s2rdf/internal/rdf"
	"s2rdf/internal/watdiv"
)

// warmup runs the workload unmeasured before the window, after the
// correctness pass, so the server's caches and heap reach their steady
// state.
const warmup = 2 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	delay    time.Duration
	root     string
}

// bin is the s2rdf binary run.sh builds.
func (o options) bin() string { return filepath.Join(o.root, ".bench_build", "perfbench", "s2rdf") }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errWrong marks a wrong answer from the program, as opposed to a failure
// of the benchmark itself.
var errWrong = errors.New("wrong answer")

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "lookup, analytic or hot-cache")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the data, the query pools and the request sequence")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "1: traced in-process run printing per-layer metrics")
	fs.DurationVar(&o.delay, "delay", 0, "sleep inserted inside every timed request (regression injection)")
	fs.StringVar(&o.root, "root", ".", "repository checkout (run data goes under .bench_build/perfbench)")
	fs.Parse(os.Args[1:])
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var res *result
	var err error
	if o.trace == 1 {
		res, err = runTraced(ctx, o)
	} else {
		res, err = runEndToEnd(ctx, o)
	}
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errWrong) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// prepared is a run's generated input: the workload pool with expected
// answers, and the N-Triples file the program loads.
type prepared struct {
	w       *workload
	nt      string
	work    string // per-run scratch directory, removed by cleanup
	triples int
}

func (p *prepared) cleanup() { os.RemoveAll(p.work) }

// prepare generates the seed's data, builds the pools and their expected
// answers, and writes the N-Triples file. The file lists the generated
// graph with each triple once (the generator draws some edges twice, and a
// graph is a set), then probeTriples twice each. The generator output and
// the evaluator index are dropped before it returns, so they cost the
// timed part of the run neither memory nor garbage-collection work.
func prepare(o options) (*prepared, error) {
	work := filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid()))
	os.RemoveAll(work)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	p := &prepared{work: work, nt: filepath.Join(work, "data.nt")}
	triples := distinctTriples(watdiv.Generate(watdiv.Config{Scale: Scale, Seed: o.seed}).Triples)
	triples = append(append(triples, probeTriples...), probeTriples...)
	p.triples = len(triples)
	g := newGraph()
	for _, t := range triples {
		g.add(string(t.S), string(t.P), string(t.O))
	}
	g.finish()
	w, err := buildWorkload(o.workload, g, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		p.cleanup()
		return nil, err
	}
	p.w = w
	if err := writeNT(p.nt, triples); err != nil {
		p.cleanup()
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	return p, nil
}

func writeNT(path string, triples []rdf.Triple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := rdf.NewWriter(f)
	for _, t := range triples {
		if err := bw.Write(t); err != nil {
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

func runEndToEnd(ctx context.Context, o options) (*result, error) {
	p, err := prepare(o)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	w := p.w
	storeDir := filepath.Join(p.work, "store")

	// Set-up: from the N-Triples file to a store that answers queries.
	t0 := time.Now()
	loadPeak, err := runLoad(o.bin(), p.nt, storeDir)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithTimeout(ctx, time.Minute)
	srv, err := startServe(sctx, o.bin(), storeDir, w.cacheBytes)
	cancel()
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	defer srv.stop()
	pid := srv.cmd.Process.Pid

	storeBytes, err := dirBytes(storeDir)
	if err != nil {
		return nil, err
	}
	c := newHTTPClient()
	h0, err := getHealthz(c, srv.base)
	if err != nil {
		return nil, err
	}

	// Correctness of every distinct query, outside the window.
	vr, err := verify(c, srv.base, w, []string{"ExtVP", "VP", "TT"})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errWrong, err)
	}
	if w.cacheBytes > 0 && (vr.bodyBytes <= w.cacheBytes || vr.maxBody > w.cacheBytes/8) {
		return nil, fmt.Errorf("hot-cache pool holds %d result bytes (largest %d) against a %d-byte cache: want more than the cache, each within an eighth of it",
			vr.bodyBytes, vr.maxBody, w.cacheBytes)
	}

	pick := newPicker(w, o.seed)
	closedLoop(srv.base, w, pick, time.Now(), warmup, 0)

	// The server's CPU time is read at the start and the end of the window,
	// and at every second between them for the per-slot diagnostic.
	hA, err := getHealthz(c, srv.base)
	if err != nil {
		return nil, err
	}
	slots := o.seconds
	ticks := make([]int64, slots+1)
	start := time.Now()
	sampled := make(chan error, 1)
	go func() {
		var err error
		for k := 0; k <= slots; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
			t, e := cpuTicks(pid)
			if e != nil && err == nil {
				err = e
			}
			ticks[k] = t
		}
		sampled <- err
	}()
	window := time.Duration(slots) * time.Second
	lr := closedLoop(srv.base, w, pick, start, window, o.delay)
	if err := <-sampled; err != nil {
		return nil, err
	}
	hB, err := getHealthz(c, srv.base)
	if err != nil {
		return nil, err
	}
	servePeak, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	srv.stop()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = vr.requests, vr.failed
	for _, op := range lr.ops {
		res.Attempted += op.attempted
		res.Failed += op.failed
	}
	var problems []string
	problems = append(problems, lr.wrong...)
	if got := hB.served() - hA.served(); got != int64(lr.served) {
		problems = append(problems, fmt.Sprintf("/healthz counts %d answered requests over the window, the client %d", got, lr.served))
	}
	if err := checkExtVPNoLargerThanVP(storeDir); err != nil {
		problems = append(problems, err.Error())
	}
	n := len(lr.lat)
	if n == 0 {
		return nil, errors.New("no request completed inside the window")
	}
	perSlot := make([]int, slots)
	for _, e := range lr.end {
		perSlot[min(int(e/time.Second), slots-1)]++
	}
	slotCPU := make([]float64, slots)
	for k, c := range perSlot {
		slotCPU[k] = float64(ticks[k+1]-ticks[k]) * 1000 / ticksPerSecond / float64(max(c, 1))
	}
	lat := percentiles(lr.lat)
	ttfb := percentiles(lr.ttfb)
	p99 := lat(0.99)
	beyond := 0
	for _, d := range lr.lat {
		if d > p99 {
			beyond++
		}
	}
	m := res.Metrics
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["store_bytes_per_triple"] = metric{float64(storeBytes) / float64(h0.Triples), "B"}
	m["rss_peak_mb"] = metric{float64(servePeak) * 1024 / 1e6, "MB"}
	m["qps"] = metric{float64(n) / window.Seconds(), "1/s"}
	m["lat_p50_ms"] = metric{ms(lat(0.50)), "ms"}
	m["lat_p99_ms"] = metric{ms(p99), "ms"}
	m["ttfb_p50_ms"] = metric{ms(ttfb(0.50)), "ms"}
	m["cpu_ms_per_query"] = metric{float64(ticks[slots]-ticks[0]) * 1000 / ticksPerSecond / float64(n), "ms"}

	fmt.Printf("perfbench %s seed %d: scale %d, %d triples, store %d bytes\n", w.name, o.seed, Scale, h0.Triples, storeBytes)
	printPool(w)
	fmt.Printf("verified %d distinct queries and the probe in ExtVP, VP and TT mode (%d requests), %d result bytes in ExtVP mode\n",
		len(w.pool), vr.requests, vr.bodyBytes)
	for _, d := range vr.faults {
		fmt.Printf("  known fault: %s\n", d)
	}
	if w.cacheBytes > 0 {
		fmt.Printf("result cache %d bytes = %.2f of the pool's result bytes; largest result %d bytes\n",
			w.cacheBytes, float64(w.cacheBytes)/float64(vr.bodyBytes), vr.maxBody)
	}
	fmt.Printf("set-up: s2rdf load peak RSS %.1f MB; s2rdf serve peak RSS (rss_peak_mb) %.1f MB\n",
		float64(loadPeak)*1024/1e6, float64(servePeak)*1024/1e6)
	fmt.Printf("window %ds: %d latency samples, %d beyond the p99, %d served incl. the probe and the round's tail, %.1f MB read, injected delay %v\n",
		o.seconds, n, beyond, lr.served, float64(lr.bytes)/1e6, o.delay)
	printOps("window", lr.ops)
	fmt.Printf("  verify   attempted %d failed %d\n", vr.requests, vr.failed)
	fmt.Printf("  completions per 1 s slot: %v\n", perSlot)
	fmt.Printf("  server CPU ms per query per slot: %.3f\n", slotCPU)
	printMetrics(m)
	if len(problems) > 0 {
		res.Correct = false
		return res, fmt.Errorf("%w: %s", errWrong, strings.Join(problems[:min(len(problems), 5)], "; "))
	}
	return res, nil
}

// checkExtVPNoLargerThanVP opens the saved store in process and checks
// that every ExtVP table, a semi-join reduction of its VP table, has no
// more rows than that VP table.
func checkExtVPNoLargerThanVP(dir string) error {
	st, err := s2rdf.Open(dir, s2rdf.Options{})
	if err != nil {
		return fmt.Errorf("reopen store: %v", err)
	}
	return extVPNoLargerThanVP(st)
}

func extVPNoLargerThanVP(st *s2rdf.Store) error {
	ds := st.Dataset()
	for k, t := range ds.ExtVP {
		if n, vp := t.NumRows(), ds.VPRows[k.P1]; n > vp {
			return fmt.Errorf("ExtVP table %s has %d rows, its VP table %d", t.Name, n, vp)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentiles returns a nearest-rank percentile function over samples.
func percentiles(samples []time.Duration) func(q float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return func(q float64) time.Duration {
		if len(s) == 0 {
			return 0
		}
		i := int(q*float64(len(s))+0.5) - 1
		return s[min(max(i, 0), len(s)-1)]
	}
}

func printPool(w *workload) {
	var parts []string
	for _, t := range templatesOf(w.pool) {
		parts = append(parts, fmt.Sprintf("%s %d [%d..%d rows]", t.name, t.n, t.minRows, t.maxRows))
	}
	fmt.Printf("pool %d distinct queries: %s\n", len(w.pool), strings.Join(parts, ", "))
}

func printOps(kind string, ops map[string]*opCount) {
	names := make([]string, 0, len(ops))
	for k := range ops {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %s %-8s attempted %d failed %d\n", kind, k, ops[k].attempted, ops[k].failed)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
