package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sort"
	"sync"
	"time"
)

// conns is the number of keep-alive connections, one closed-loop client
// each: the machine's two cores.
const conns = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

func queryURL(base, text, mode string) string {
	u := base + "/sparql?query=" + url.QueryEscape(text)
	if mode != "" {
		u += "&mode=" + mode
	}
	return u
}

// resultScanner counts the elements of results.bindings in a SPARQL-JSON
// document as it streams past, without decoding or keeping it, and tells
// whether the document is complete: balanced, and without the top-level
// "error" member the server appends when a stream is cut short.
type resultScanner struct {
	st                 []scanFrame
	key                []byte
	rows               int
	inStr, esc, keyStr bool
	expectKey          bool
	sawTop, sawError   bool
	bad                bool
}

type scanFrame struct {
	arr bool
	key string // the last key seen, in objects of the top two levels
}

func (s *resultScanner) Write(p []byte) (int, error) {
	for i := 0; i < len(p); i++ {
		if s.inStr {
			if !s.keyStr && !s.esc {
				for i < len(p) && p[i] != '"' && p[i] != '\\' {
					i++
				}
				if i == len(p) {
					break
				}
			}
			c := p[i]
			switch {
			case s.esc:
				s.esc = false
			case c == '\\':
				s.esc = true
			case c == '"':
				s.inStr = false
				if s.keyStr {
					k := string(s.key)
					s.st[len(s.st)-1].key = k
					if len(s.st) == 1 && k == "error" {
						s.sawError = true
					}
				}
				continue
			}
			if s.keyStr {
				s.key = append(s.key, c)
			}
			continue
		}
		switch p[i] {
		case '"':
			s.inStr = true
			s.keyStr = s.expectKey && len(s.st) > 0 && len(s.st) <= 2
			s.key = s.key[:0]
			s.expectKey = false
		case '{':
			if len(s.st) == 3 && s.st[2].arr && s.st[0].key == "results" && s.st[1].key == "bindings" {
				s.rows++
			}
			if len(s.st) == 0 {
				s.bad = s.bad || s.sawTop
				s.sawTop = true
			}
			s.st = append(s.st, scanFrame{})
			s.expectKey = true
		case '[':
			s.st = append(s.st, scanFrame{arr: true})
		case '}', ']':
			if len(s.st) == 0 {
				s.bad = true
				continue
			}
			s.st = s.st[:len(s.st)-1]
		case ',':
			if len(s.st) > 0 && !s.st[len(s.st)-1].arr {
				s.expectKey = true
			}
		}
	}
	return len(p), nil
}

func (s *resultScanner) complete() bool {
	return s.sawTop && !s.bad && !s.inStr && len(s.st) == 0 && !s.sawError
}

// scanResult scans a whole document.
func scanResult(b []byte) (rows int, complete bool) {
	var s resultScanner
	s.Write(b)
	return s.rows, s.complete()
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
	Error *string `json:"error"`
}

// fingerprintJSON decodes a response fully and fingerprints its rows the
// way graph.expect does.
func fingerprintJSON(body []byte) (answer, error) {
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return answer{}, fmt.Errorf("decode response: %w", err)
	}
	if doc.Error != nil {
		return answer{}, fmt.Errorf("response carries error member: %s", *doc.Error)
	}
	vars := append([]string(nil), doc.Head.Vars...)
	sort.Strings(vars)
	rows := make([]string, len(doc.Results.Bindings))
	var sb bytes.Buffer
	for i, b := range doc.Results.Bindings {
		sb.Reset()
		for _, v := range vars {
			sb.WriteString(v)
			sb.WriteByte('=')
			if t, ok := b[v]; ok {
				sb.WriteString(canonTerm(t.Type, t.Value, t.Datatype, t.Lang))
			}
			sb.WriteByte(0)
		}
		rows[i] = sb.String()
	}
	return fingerprint(rows), nil
}

// fetch sends GET u and reads the whole response body into body.
func fetch(ctx context.Context, c *http.Client, u string, body *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = body.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func get(c *http.Client, u string) (int, []byte, error) {
	var body bytes.Buffer
	status, err := fetch(context.Background(), c, u, &body)
	return status, body.Bytes(), err
}

// verifyResult is what the correctness pass found.
type verifyResult struct {
	requests, failed   int
	bodyBytes, maxBody int64 // total and largest ExtVP result body of the pool
	faults             []string
}

// verify runs every distinct query and the probe once per mode and compares
// the full row multiset with the evaluator's, and checks ExtVP = VP = TT on
// the way (each mode is held to the same expected answer). A wrong answer
// to a pool query is an error; a wrong answer to the probe is its known
// fault, counted in failed and described in faults.
func verify(c *http.Client, base string, w *workload, modes []string) (*verifyResult, error) {
	r := &verifyResult{}
	for _, mode := range modes {
		for i := 0; i <= len(w.pool); i++ {
			q := w.op(i)
			r.requests++
			status, body, err := get(c, queryURL(base, q.text, mode))
			if err != nil {
				return r, fmt.Errorf("%s mode=%s: %w", q.template, mode, err)
			}
			if status != http.StatusOK {
				return r, fmt.Errorf("%s mode=%s: status %d: %.200s", q.template, mode, status, body)
			}
			got, err := fingerprintJSON(body)
			if err != nil {
				return r, fmt.Errorf("%s mode=%s: %w", q.template, mode, err)
			}
			if got != q.want {
				msg := fmt.Sprintf("%s mode=%s: %d rows differ from the evaluator's %d rows (or their values do)",
					q.template, mode, got.rows, q.want.rows)
				if q == &w.probe {
					r.failed++
					r.faults = append(r.faults, msg)
					continue
				}
				return r, fmt.Errorf("%s\n%s", msg, q.text)
			}
			if mode == "ExtVP" && q != &w.probe {
				r.bodyBytes += int64(len(body))
				r.maxBody = max(r.maxBody, int64(len(body)))
			}
		}
	}
	return r, nil
}

// opCount is the attempted/failed tally of one operation type.
type opCount struct{ attempted, failed int }

// loadResult is what the closed loop measured.
type loadResult struct {
	// lat, ttfb and end (offset from the window's start) describe each pool
	// request completed inside the window; the probe is not timed.
	lat, ttfb, end []time.Duration
	served         int // 200 responses, window and tail
	ops            map[string]*opCount
	wrong          []string
	bytes          int64
}

// closedLoop drives conns clients, each with its own http.Client and so
// its own keep-alive connection, sending its next request when the
// previous response has been read to its last byte, from start until the
// window ends and then to the end of the round under way. Requests
// completed after the deadline are checked but not timed. delay is slept
// inside each request (regression injection).
func closedLoop(base string, w *workload, pick *picker, start time.Time, window, delay time.Duration) *loadResult {
	urls := make([]string, len(w.pool)+1)
	for i := range urls {
		urls[i] = queryURL(base, w.op(i).text, "")
	}
	deadline := start.Add(window)
	parts := make([]*loadResult, conns)
	var wg sync.WaitGroup
	for k := range parts {
		r := &loadResult{ops: map[string]*opCount{}}
		parts[k] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newHTTPClient()
			defer c.CloseIdleConnections()
			var first time.Time
			ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				GotFirstResponseByte: func() { first = time.Now() },
			})
			var body bytes.Buffer
			for {
				i, ok := pick.next(!time.Now().Before(deadline))
				if !ok {
					return
				}
				q := w.op(i)
				op := r.ops[q.template]
				if op == nil {
					op = &opCount{}
					r.ops[q.template] = op
				}
				op.attempted++
				t0 := time.Now()
				if delay > 0 {
					time.Sleep(delay)
				}
				// The body is read whole before it is checked, so the
				// check's client time stays out of the latency.
				body.Reset()
				status, err := fetch(ctx, c, urls[i], &body)
				t1 := time.Now()
				if err != nil || status != http.StatusOK {
					op.failed++
					continue
				}
				rows, complete := scanResult(body.Bytes())
				if !complete {
					op.failed++
					continue
				}
				r.served++
				if q == &w.probe {
					if rows != q.want.rows {
						op.failed++
					}
					continue
				}
				if rows != q.want.rows {
					r.wrong = append(r.wrong, fmt.Sprintf("%s: %d rows, want %d", q.template, rows, q.want.rows))
				}
				if !t1.After(deadline) {
					r.lat = append(r.lat, t1.Sub(t0))
					r.ttfb = append(r.ttfb, first.Sub(t0))
					r.end = append(r.end, t1.Sub(start))
					r.bytes += int64(body.Len())
				}
			}
		}()
	}
	wg.Wait()
	out := &loadResult{ops: map[string]*opCount{}}
	for _, r := range parts {
		out.lat = append(out.lat, r.lat...)
		out.ttfb = append(out.ttfb, r.ttfb...)
		out.end = append(out.end, r.end...)
		out.served += r.served
		out.wrong = append(out.wrong, r.wrong...)
		out.bytes += r.bytes
		for k, v := range r.ops {
			if out.ops[k] == nil {
				out.ops[k] = &opCount{}
			}
			out.ops[k].attempted += v.attempted
			out.ops[k].failed += v.failed
		}
	}
	return out
}

// healthz is the part of the server's /healthz document the benchmark
// reads.
type healthz struct {
	Triples int `json:"triples"`
	Stores  map[string]struct {
		Sched struct {
			Cheap     struct{ Completed int64 } `json:"cheap"`
			Expensive struct{ Completed int64 } `json:"expensive"`
		} `json:"sched"`
		ResultCache *resultCacheStats `json:"result_cache"`
	} `json:"stores"`
}

type resultCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Fills     int64 `json:"fills"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
}

// served is the server's own count of answered requests: queries that
// completed a lane, plus result-cache hits and coalesced followers.
func (h *healthz) served() int64 {
	var n int64
	for _, s := range h.Stores {
		n += s.Sched.Cheap.Completed + s.Sched.Expensive.Completed
		if rc := s.ResultCache; rc != nil {
			n += rc.Hits + rc.Coalesced
		}
	}
	return n
}

func getHealthz(c *http.Client, base string) (*healthz, error) {
	status, body, err := get(c, base+"/healthz")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/healthz status %d", status)
	}
	var h healthz
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}
	return &h, nil
}
