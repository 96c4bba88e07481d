package main

// The traced run. It replays a workload's request sequence in process,
// twice: once through the HTTP handler into an in-memory recorder (no
// socket), and once through the public functions that handler calls, one
// at a time, with a span around each call. Spans are kept in memory and
// written out when the run ends; the end-to-end metrics come only from the
// untraced run.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"s2rdf"
	"s2rdf/internal/cache"
	"s2rdf/internal/core"
	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
	"s2rdf/internal/sched"
	"s2rdf/internal/sparql"
)

// span is one timed call: times are nanoseconds since the run started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out span ids; each worker keeps its own span slice, so
// recording takes no lock.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	next int64
	all  [][]span
}

type spanLog struct {
	tr    *tracer
	spans []span
}

func (t *tracer) log() *spanLog { return &spanLog{tr: t} }

func (t *tracer) ids(n int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next + 1
	t.next += n
	return id
}

// record stores a finished span and returns its duration.
func (l *spanLog) record(id, parent, req int64, name string, start time.Time) time.Duration {
	end := time.Now()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.tr.t0)), End: int64(end.Sub(l.tr.t0))})
	return end.Sub(start)
}

func (t *tracer) keep(l *spanLog) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all = append(t.all, l.spans)
}

func (t *tracer) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	for _, part := range t.all {
		for i := range part {
			if err := enc.Encode(&part[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// samples accumulates per-request observations of one layer.
type samples struct {
	mu sync.Mutex
	d  map[string][]time.Duration
	n  map[string]float64
}

func newSamples() *samples {
	return &samples{d: map[string][]time.Duration{}, n: map[string]float64{}}
}

func (s *samples) merge(d map[string][]time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range d {
		s.d[k] = append(s.d[k], v...)
	}
}

func (s *samples) p(name string, q float64) float64 {
	return float64(percentiles(s.d[name])(q)) / 1e3
}

// loop runs conns workers, each calling fn for the next request of the
// sequence until the window ends and the round under way is complete, and
// returns how many calls were made.
func loop(window time.Duration, pick *picker, fn func(worker, i int)) int {
	deadline := time.Now().Add(window)
	counts := make([]int, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := pick.next(!time.Now().Before(deadline))
				if !ok {
					return
				}
				fn(k, i)
				counts[k]++
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

func runTraced(ctx context.Context, o options) (*result, error) {
	p, err := prepare(o)
	if err != nil {
		return nil, err
	}
	defer p.cleanup()
	w := p.w
	tr := &tracer{t0: time.Now()}
	setupLog := tr.log()
	m := map[string]metric{}
	res := &result{Correct: true, Metrics: m}
	var problems []string

	// Set-up, step by step.
	start := time.Now()
	f, err := os.Open(p.nt)
	if err != nil {
		return nil, err
	}
	triples, err := rdf.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	m["rdf.parse_s"] = metric{setupLog.record(tr.ids(1), 0, 0, "rdf.parse", start).Seconds(), "s"}
	start = time.Now()
	built := s2rdf.Load(triples, s2rdf.Options{})
	m["layout.build_s"] = metric{setupLog.record(tr.ids(1), 0, 0, "layout.build", start).Seconds(), "s"}
	triples = nil
	sizes := built.Sizes()
	m["layout.extvp_tables"] = metric{float64(sizes.ExtTables), "count"}
	m["layout.extvp_rows"] = metric{float64(sizes.ExtTuples), "count"}
	storeDir := filepath.Join(p.work, "store")
	start = time.Now()
	if err := built.Save(storeDir); err != nil {
		return nil, err
	}
	m["store.save_s"] = metric{setupLog.record(tr.ids(1), 0, 0, "store.save", start).Seconds(), "s"}
	built = nil
	runtime.GC()
	start = time.Now()
	st, err := s2rdf.Open(storeDir, s2rdf.Options{})
	if err != nil {
		return nil, err
	}
	m["store.open_s"] = metric{setupLog.record(tr.ids(1), 0, 0, "store.open", start).Seconds(), "s"}
	disk, err := layout.DiskBytes(storeDir)
	if err != nil {
		return nil, err
	}
	m["store.disk_bytes"] = metric{float64(disk), "B"}
	tr.keep(setupLog)
	if err := extVPNoLargerThanVP(st); err != nil {
		problems = append(problems, err.Error())
	}

	window := time.Duration(o.seconds) * time.Second / 2
	pick := newPicker(w, o.seed)

	// Pass 1: the whole handler, into an in-memory recorder.
	h := s2rdf.NewHandler(st, s2rdf.ServerOptions{ResultCacheBytes: w.cacheBytes})
	urls := make([]string, len(w.pool)+1)
	for i := range urls {
		urls[i] = queryURL("", w.op(i).text, "")
	}
	hs := newSamples()
	var mu sync.Mutex
	handlerFailed := 0
	serve := func(log *spanLog, i int, keep bool) {
		req := httptest.NewRequest(http.MethodGet, urls[i], nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		var d time.Duration
		if keep {
			d = log.record(tr.ids(1), 0, 0, "server.handler", t0)
		}
		rows, complete := scanResult(rec.Body.Bytes())
		q := w.op(i)
		mu.Lock()
		defer mu.Unlock()
		// Failures of the warm-up requests are not counted.
		switch {
		case rec.Code != http.StatusOK || !complete:
			if keep {
				handlerFailed++
			}
		case q == &w.probe:
			if keep && rows != q.want.rows {
				handlerFailed++
			}
		case rows != q.want.rows:
			problems = append(problems, fmt.Sprintf("handler %s: %d rows, want %d", q.template, rows, q.want.rows))
		case keep:
			hs.d["server.handler"] = append(hs.d["server.handler"], d)
			hs.n["server.response_bytes"] += float64(rec.Body.Len())
			hs.n["timed"]++
		}
	}
	warm := tr.log()
	loop(time.Second, pick, func(_, i int) { serve(warm, i, false) })
	hz0, err := handlerHealthz(h)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	hlogs := []*spanLog{tr.log(), tr.log()}
	handled := loop(window, pick, func(worker, i int) { serve(hlogs[worker], i, true) })
	runtime.ReadMemStats(&ms1)
	for _, l := range hlogs {
		tr.keep(l)
	}
	hz1, err := handlerHealthz(h)
	if err != nil {
		return nil, err
	}

	// Pass 2: the same sequence through the layers, one call at a time.
	e := st.Engine(s2rdf.ModeExtVP)
	ds := st.Dataset()
	sc := sched.New(sched.Options{MaxConcurrent: runtime.GOMAXPROCS(0)})
	rc := cache.New(w.cacheBytes, 0)
	plan0, sel0 := st.CacheCounters()
	alg0 := e.Algorithm1Runs()
	cs := newSamples()
	componentFailed := 0
	var engineTotals engine.MetricsSnapshot
	var peakMem int64
	executed, expensive, yields := 0, 0, 0
	step := func(log *spanLog, i int, d map[string][]time.Duration) {
		q := w.op(i)
		if q == &w.probe {
			d = map[string][]time.Duration{} // the probe is not timed
		}
		src := q.text
		root := tr.ids(10)
		req := root
		id := root
		next := func() int64 { id++; return id }
		tReq := time.Now()
		defer func() { d["request"] = append(d["request"], log.record(root, 0, req, "request", tReq)) }()
		t := time.Now()
		norm := core.NormalizeQuery(src)
		d["core.normalize"] = append(d["core.normalize"], log.record(next(), root, req, "core.normalize", t))
		var key cache.Key
		if rc != nil {
			key = cache.Key{Store: s2rdf.DefaultStoreName, Mode: s2rdf.ModeExtVP.String(), Query: norm, Epoch: ds.StatsEpoch()}
			t = time.Now()
			ent, ok := rc.Get(key)
			d["cache.probe"] = append(d["cache.probe"], log.record(next(), root, req, "cache.probe", t))
			if ok {
				if ent.Rows != q.want.rows {
					mu.Lock()
					problems = append(problems, fmt.Sprintf("cached %s: %d rows, want %d", q.template, ent.Rows, q.want.rows))
					mu.Unlock()
				}
				return
			}
		}
		t = time.Now()
		_, perr := sparql.Parse(src)
		d["sparql.parse"] = append(d["sparql.parse"], log.record(next(), root, req, "sparql.parse", t))
		t = time.Now()
		cost, err := e.EstimateCostNorm(src, norm)
		d["core.estimate"] = append(d["core.estimate"], log.record(next(), root, req, "core.estimate", t))
		if perr != nil || err != nil {
			mu.Lock()
			componentFailed++
			mu.Unlock()
			return
		}
		class := sched.Classify(cost.Cost(), 0)
		t = time.Now()
		ticket, err := sc.Admit(ctx, class)
		log.record(next(), root, req, "sched.admit", t)
		if err != nil {
			mu.Lock()
			componentFailed++
			mu.Unlock()
			return
		}
		defer ticket.Release()
		qctx := ctx
		if class == sched.Expensive {
			qctx = engine.WithYielder(ctx, ticket)
		}
		t = time.Now()
		stream, err := e.QueryStreamNorm(qctx, src, norm)
		d["core.exec"] = append(d["core.exec"], log.record(next(), root, req, "core.exec", t))
		if err != nil {
			mu.Lock()
			componentFailed++
			mu.Unlock()
			return
		}
		t = time.Now()
		var rows []engine.Row
		for {
			batch, err := stream.NextRaw()
			if err != nil {
				mu.Lock()
				componentFailed++
				mu.Unlock()
				return
			}
			if batch == nil {
				break
			}
			rows = append(rows, batch...)
		}
		d["core.decode"] = append(d["core.decode"], log.record(next(), root, req, "core.decode", t))
		t = time.Now()
		var body []byte
		for _, row := range rows {
			for _, id := range row {
				if id != engine.Null {
					body = append(body, ds.Dict.TermJSON(id)...)
				}
			}
		}
		d["dict.encode"] = append(d["dict.encode"], log.record(next(), root, req, "dict.encode", t))
		ticket.Release()
		r := stream.Result()
		if rc != nil && class == sched.Expensive && int64(len(body)) <= rc.MaxEntry() {
			rc.Put(key, &cache.Entry{Body: body, Rows: len(rows)})
		}
		mu.Lock()
		defer mu.Unlock()
		if q == &w.probe {
			if len(rows) != q.want.rows {
				componentFailed++
			}
			return
		}
		if len(rows) != q.want.rows {
			problems = append(problems, fmt.Sprintf("%s: %d rows, want %d", q.template, len(rows), q.want.rows))
		}
		executed++
		if class == sched.Expensive {
			expensive++
		}
		yields += ticket.Yields()
		engineTotals = engineTotals.Add(r.Metrics)
		peakMem += r.PeakMemBytes
		cs.d["sched.queue_wait"] = append(cs.d["sched.queue_wait"], ticket.QueueWait())
	}
	clogs := []*spanLog{tr.log(), tr.log()}
	cdur := []map[string][]time.Duration{{}, {}}
	stepped := loop(window, pick, func(worker, i int) { step(clogs[worker], i, cdur[worker]) })
	for k := range clogs {
		tr.keep(clogs[k])
		cs.merge(cdur[k])
	}
	plan1, sel1 := st.CacheCounters()
	alg1 := e.Algorithm1Runs()

	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	perExec := func(v int64) float64 { return float64(v) / float64(max(executed, 1)) }
	us := func(v float64) metric { return metric{v, "us"} }
	m["core.normalize_us"] = us(cs.p("core.normalize", 0.5))
	m["sparql.parse_us"] = us(cs.p("sparql.parse", 0.5))
	m["core.estimate_us"] = us(cs.p("core.estimate", 0.5))
	m["core.exec_us"] = us(cs.p("core.exec", 0.5))
	m["core.decode_us"] = us(cs.p("core.decode", 0.5))
	m["dict.encode_us"] = us(cs.p("dict.encode", 0.5))
	m["cache.probe_us"] = us(cs.p("cache.probe", 0.5))
	m["server.handler_us"] = us(hs.p("server.handler", 0.5))
	m["server.response_bytes"] = metric{hs.n["server.response_bytes"] / max(hs.n["timed"], 1), "B"}
	m["core.plan_cache_hit_ratio"] = metric{ratio(plan1.Hits-plan0.Hits, plan1.Misses-plan0.Misses), "ratio"}
	m["core.selection_cache_hit_ratio"] = metric{ratio(sel1.Hits-sel0.Hits, sel1.Misses-sel0.Misses), "ratio"}
	m["core.algorithm1_runs_per_query"] = metric{perExec(alg1 - alg0), "count"}
	m["engine.rows_scanned_per_query"] = metric{perExec(engineTotals.RowsScanned), "count"}
	m["engine.rows_pruned_per_query"] = metric{perExec(engineTotals.RowsPruned), "count"}
	m["engine.rows_shuffled_per_query"] = metric{perExec(engineTotals.RowsShuffled), "count"}
	m["engine.join_comparisons_per_query"] = metric{perExec(engineTotals.JoinComparisons), "count"}
	m["engine.rows_output_per_query"] = metric{perExec(engineTotals.RowsOutput), "count"}
	m["engine.tasks_per_query"] = metric{perExec(engineTotals.Tasks), "count"}
	m["engine.peak_mem_bytes_per_query"] = metric{perExec(peakMem), "B"}
	m["sched.expensive_share"] = metric{perExec(int64(expensive)), "ratio"}
	m["sched.queue_wait_us_p50"] = us(cs.p("sched.queue_wait", 0.5))
	m["sched.queue_wait_us_p99"] = us(cs.p("sched.queue_wait", 0.99))
	m["sched.yields_per_query"] = metric{perExec(int64(yields)), "count"}
	var hits, misses, fills, evictions, coalesced int64
	if a, b := hz0.rc(), hz1.rc(); a != nil && b != nil {
		hits, misses = b.Hits-a.Hits, b.Misses-a.Misses
		fills, evictions, coalesced = b.Fills-a.Fills, b.Evictions-a.Evictions, b.Coalesced-a.Coalesced
	}
	m["cache.hit_ratio"] = metric{ratio(hits, misses), "ratio"}
	m["cache.fills"] = metric{float64(fills), "count"}
	m["cache.evictions"] = metric{float64(evictions), "count"}
	m["cache.coalesced"] = metric{float64(coalesced), "count"}
	m["process.alloc_bytes_per_query"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(handled, 1)), "B"}
	m["process.gc_cycles_per_1k_queries"] = metric{float64(ms1.NumGC-ms0.NumGC) * 1000 / float64(max(handled, 1)), "count"}
	m["trace.request_us"] = us(cs.p("request", 0.5))

	// What tracing adds per span: two clock reads and an append.
	probe := tr.log()
	const nProbe = 100000
	t0 := time.Now()
	for i := 0; i < nProbe; i++ {
		probe.record(0, 0, 0, "probe", time.Now())
	}
	spanCost := time.Since(t0) / nProbe

	spanPath := filepath.Join(o.root, ".perfbench", "spans", w.name+".jsonl")
	nspans, err := tr.write(spanPath)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	res.Attempted = handled + stepped
	res.Failed = handlerFailed + componentFailed
	fmt.Printf("perfbench %s seed %d (traced): scale %d, %d triples\n", w.name, o.seed, Scale, p.triples)
	printPool(w)
	fmt.Printf("handler pass %v: %d requests (%d failed); layer pass %v: %d requests (%d executed, %d failed)\n",
		window, handled, handlerFailed, window, stepped, executed, componentFailed)
	fmt.Printf("request p50 %.1f us through the layers, %.1f us through the handler; %d spans written to %s\n",
		cs.p("request", 0.5), hs.p("server.handler", 0.5), nspans, spanPath)
	fmt.Printf("tracing cost %v per span, up to 9 spans per request in the layer half\n", spanCost)
	printMetrics(m)
	if len(problems) > 0 {
		res.Correct = false
		return res, fmt.Errorf("%w: %s", errWrong, problems[0])
	}
	return res, nil
}

// handlerHealthz reads /healthz through the handler.
func handlerHealthz(h http.Handler) (*healthz, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/healthz status %d", rec.Code)
	}
	var hz healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}
	return &hz, nil
}

// rc returns the default store's result-cache record, nil when off.
func (h *healthz) rc() *resultCacheStats {
	return h.Stores[s2rdf.DefaultStoreName].ResultCache
}
