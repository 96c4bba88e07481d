package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"s2rdf/internal/rdf"
	"s2rdf/internal/watdiv"
)

// Scale is the WatDiv scale factor every run generates (0.89 M triples).
const Scale = 10

// Pool make-up. Lookup instances return 1..maxLookupRows rows and at most
// lookupPerTemplate instances are kept per template, so the pool (a few
// thousand queries) is far larger than the 128-entry plan cache and the
// 256-entry selection cache. Analytic queries return at least
// minAnalyticRows rows, so they stream past the 1024-row threshold. The
// hot-cache pool has exactly hotPerTemplate instances of each hot template
// (400 queries), also more than the plan and selection caches hold, so the
// requests the result cache misses also miss the plan cache and run
// Algorithm 1.
const (
	maxLookupRows     = 100
	lookupPerTemplate = 1000
	minAnalyticRows   = 1000
	minHotRows        = 100
	maxHotRows        = 600
	hotPerTemplate    = 200
	// hotCacheBytes is the hot-cache server's -result-cache-bytes: about a
	// third of the hot pool's result bytes, so the LRU must evict. Its
	// per-entry cap (an eighth, 896 KiB) exceeds every entry: maxHotRows
	// rows take about 95 KB. Every run checks both.
	hotCacheBytes = 10 << 20
	zipfS         = 1.1
)

// lookupTemplates are the Basic templates with row-returning instances on
// every seed; lookupOptional ones (0 to 14 instances, depending on the
// seed) join the pool where they return rows. F1 never returns a row (see
// CHANGES.md) and F4 rarely does, so both are left out.
var (
	lookupTemplates = []string{
		"L1", "L3", "L4", "L5",
		"S1", "S2", "S3", "S5", "S6", "S7",
		"F2", "F3", "F5", "C1",
	}
	lookupOptional = map[string]bool{"L2": true, "S4": true, "C2": true}
)

// analyticTemplates are the Basic templates whose broad form (placeholder
// left as a variable) returns at least minAnalyticRows rows, plus C3.
var analyticTemplates = []string{"L1", "L3", "L4", "S1", "S7", "F5", "C3"}

// hotTemplates are social-graph joins with a user in one position, so the
// pool has thousands of candidate keys of similar size, each an
// expensive-class query the result cache may hold: a path (the friends of
// a user's followers) and a star (the follows of a user's friends with an
// age).
var hotTemplates = []watdiv.Template{
	{Name: "follower-friends", Text: `
		SELECT ?v0 ?v2 WHERE {
			?v0 wsdbm:follows %v1% .
			?v0 wsdbm:friendOf ?v2 .
			?v2 foaf:givenName ?v3 .
		}`},
	{Name: "friend-star", Text: `
		SELECT ?v0 ?v3 WHERE {
			?v0 wsdbm:friendOf %v1% .
			?v0 foaf:age ?v2 .
			?v0 wsdbm:follows ?v3 .
		}`},
}

// The probe checks one known fault on an input that is the same on every
// seed. probeTriples are written to the data file twice each; an RDF graph
// is a set, so probeText must return one row per triple. The program keeps
// repeated triples (see CHANGES.md) and answers with every row twice, so
// the probe fails in every round and is counted in failed. It is not timed.
const (
	probeNS   = "http://example.org/perfbench/"
	probeText = "SELECT ?o WHERE { <" + probeNS + "probe> <" + probeNS + "repeated> ?o }"
)

var probeTriples = []rdf.Triple{
	{S: rdf.NewIRI(probeNS + "probe"), P: rdf.NewIRI(probeNS + "repeated"), O: rdf.NewIRI(probeNS + "o1")},
	{S: rdf.NewIRI(probeNS + "probe"), P: rdf.NewIRI(probeNS + "repeated"), O: rdf.NewIRI(probeNS + "o2")},
	{S: rdf.NewIRI(probeNS + "probe"), P: rdf.NewIRI(probeNS + "repeated"), O: rdf.NewIRI(probeNS + "o3")},
}

// query is one distinct request of a pool, with its expected answer.
type query struct {
	template string
	text     string
	want     answer
}

// workload is a named pool of distinct queries, the probe, and how
// requests pick them.
type workload struct {
	name  string
	pool  []query
	probe query
	// zipf picks queries by Zipf popularity; otherwise every round's
	// len(pool) requests are a fresh shuffle of the pool, so the template
	// mix of a run does not depend on its length.
	zipf bool
	// cacheBytes is the server's -result-cache-bytes (0: cache off).
	cacheBytes int64
}

var workloadNames = []string{"lookup", "analytic", "hot-cache"}

func basicTemplate(name string) (watdiv.Template, error) {
	for _, t := range watdiv.BasicTemplates() {
		if t.Name == name {
			return t, nil
		}
	}
	return watdiv.Template{}, fmt.Errorf("no Basic template %s", name)
}

func placeholders(q bgp) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range q.pats {
		for _, t := range p {
			if len(t) > 2 && t[0] == '%' && !seen[t] {
				seen[t] = true
				out = append(out, t[1:len(t)-1])
			}
		}
	}
	return out
}

// sample returns up to max instances of t whose row counts lie in
// [minRows, maxRows], binding the placeholder to values drawn from the
// solutions of the template's broad form (as WatDiv's query generator
// does), so every instance returns rows.
func sample(g *graph, t watdiv.Template, minRows, maxRows, max int, rng *rand.Rand) ([]query, error) {
	q, err := parseBGP(t.Text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.Name, err)
	}
	ph := placeholders(q)
	if len(ph) == 0 {
		want, err := g.expect(q)
		if err != nil || want.rows < minRows || want.rows > maxRows {
			return nil, err
		}
		return []query{{template: t.Name, text: t.Text, want: want}}, nil
	}
	if len(ph) != 1 {
		return nil, fmt.Errorf("%s: %d placeholders, want 1", t.Name, len(ph))
	}
	broad := q.bind(nil)
	slotOf := -1
	for i, v := range varOrder(broad) {
		if v == ph[0] {
			slotOf = i
		}
	}
	counts := map[uint32]int{}
	g.solve(broad, func(b []uint32) { counts[b[slotOf]]++ })
	var cand []uint32
	for v, n := range counts {
		if n >= minRows && n <= maxRows {
			cand = append(cand, v)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if len(cand) > max {
		cand = cand[:max]
	}
	out := make([]query, 0, len(cand))
	for _, v := range cand {
		term := g.terms[v]
		want, err := g.expect(q.bind(map[string]string{ph[0]: term}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name, err)
		}
		if want.rows != counts[v] {
			return nil, fmt.Errorf("%s: sampler counted %d rows for %s, evaluator %d", t.Name, counts[v], term, want.rows)
		}
		out = append(out, query{
			template: t.Name,
			text:     strings.ReplaceAll(t.Text, "%"+ph[0]+"%", term),
			want:     want,
		})
	}
	return out, nil
}

// broadForm leaves t's placeholders as variables.
func broadForm(t watdiv.Template) string {
	text := t.Text
	for v := range t.Mappings {
		text = strings.ReplaceAll(text, "%"+v+"%", "?"+v)
	}
	return text
}

// buildWorkload makes the named workload's pool from the generated graph.
func buildWorkload(name string, g *graph, rng *rand.Rand) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "lookup":
		for _, t := range watdiv.BasicTemplates() {
			n := t.Name
			if !slices.Contains(lookupTemplates, n) && !lookupOptional[n] {
				continue
			}
			qs, err := sample(g, t, 1, maxLookupRows, lookupPerTemplate, rng)
			if err != nil {
				return nil, err
			}
			if len(qs) == 0 && !lookupOptional[n] {
				return nil, fmt.Errorf("lookup: template %s has no instance with 1..%d rows", n, maxLookupRows)
			}
			w.pool = append(w.pool, qs...)
		}
	case "analytic":
		for _, n := range analyticTemplates {
			t, err := basicTemplate(n)
			if err != nil {
				return nil, err
			}
			text := broadForm(t)
			q, err := parseBGP(text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n, err)
			}
			want, err := g.expect(q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n, err)
			}
			if want.rows < minAnalyticRows {
				return nil, fmt.Errorf("analytic %s returns %d rows, want >= %d", n, want.rows, minAnalyticRows)
			}
			w.pool = append(w.pool, query{template: n, text: text, want: want})
		}
	case "hot-cache":
		for _, t := range hotTemplates {
			qs, err := sample(g, t, minHotRows, maxHotRows, hotPerTemplate, rng)
			if err != nil {
				return nil, err
			}
			if len(qs) < hotPerTemplate {
				return nil, fmt.Errorf("hot-cache: template %s has %d instances with %d..%d rows, want %d",
					t.Name, len(qs), minHotRows, maxHotRows, hotPerTemplate)
			}
			w.pool = append(w.pool, qs...)
		}
		w.pool = byPopularity(w.pool)
		w.zipf = true
		w.cacheBytes = hotCacheBytes
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	q, err := parseBGP(probeText)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	want, err := g.expect(q)
	if err != nil || want.rows != len(probeTriples) {
		return nil, fmt.Errorf("probe: evaluator finds %d rows, want %d (%v)", want.rows, len(probeTriples), err)
	}
	w.probe = query{template: "probe", text: probeText, want: want}
	return w, nil
}

// distinctTriples returns triples without repeats, in first-seen order.
func distinctTriples(triples []rdf.Triple) []rdf.Triple {
	seen := make(map[rdf.Triple]struct{}, len(triples))
	out := make([]rdf.Triple, 0, len(triples))
	for _, t := range triples {
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}

// byPopularity orders a pool by Zipf rank so that the rank-r query sits at
// the same quantile of result size on every seed: the pool is sorted by
// row count and rank r takes the query at quantile frac(0.5 + r·φ⁻¹), the
// golden-ratio sequence, which spreads ranks evenly over the sizes. Which
// queries are popular thus changes with the seed, but not how large the
// popular results are, so hit and miss costs do not swing from seed to
// seed.
func byPopularity(pool []query) []query {
	sorted := append([]query(nil), pool...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].want.rows < sorted[j].want.rows })
	n := len(sorted)
	used := make([]bool, n)
	out := make([]query, 0, n)
	for r := 0; r < n; r++ {
		_, f := math.Modf(0.5 + float64(r)*0.6180339887498949)
		i := int(f * float64(n))
		for used[i] {
			i = (i + 1) % n
		}
		used[i] = true
		out = append(out, sorted[i])
	}
	return out
}

type templateCount struct {
	name    string
	n       int
	minRows int
	maxRows int
}

// templatesOf summarizes a pool per template, in first-seen order.
func templatesOf(pool []query) []templateCount {
	var out []templateCount
	at := map[string]int{}
	for _, q := range pool {
		i, ok := at[q.template]
		if !ok {
			i = len(out)
			at[q.template] = i
			out = append(out, templateCount{name: q.template, minRows: q.want.rows, maxRows: q.want.rows})
		}
		tc := &out[i]
		tc.n++
		tc.minRows = min(tc.minRows, q.want.rows)
		tc.maxRows = max(tc.maxRows, q.want.rows)
	}
	return out
}

// picker yields the request sequence in rounds. A round is len(pool)
// requests, a fresh shuffle of the pool or Zipf draws over it, followed by
// the probe, whose index is len(pool). Every run attempts whole rounds, so
// the probe is the same share of every run's requests. It is safe for
// concurrent use.
type picker struct {
	mu   sync.Mutex
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	pos  int
}

func newPicker(w *workload, seed int64) *picker {
	p := &picker{rng: rand.New(rand.NewSource(seed)), perm: make([]int, len(w.pool))}
	for i := range p.perm {
		p.perm[i] = i
	}
	p.pos = len(p.perm) + 1
	if w.zipf && len(w.pool) > 1 {
		p.zipf = rand.NewZipf(p.rng, zipfS, 1, uint64(len(w.pool)-1))
	}
	return p
}

// next returns the index of the next request. Once stop is true it
// finishes the round under way and then reports false.
func (p *picker) next(stop bool) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pos == len(p.perm)+1 {
		if stop {
			return 0, false
		}
		p.pos = 0
		if p.zipf == nil {
			p.rng.Shuffle(len(p.perm), func(i, j int) { p.perm[i], p.perm[j] = p.perm[j], p.perm[i] })
		}
	}
	p.pos++
	switch {
	case p.pos == len(p.perm)+1:
		return len(p.perm), true
	case p.zipf != nil:
		return int(p.zipf.Uint64()), true
	}
	return p.perm[p.pos-1], true
}

// op returns the query of a picked index: a pool entry or the probe.
func (w *workload) op(i int) *query {
	if i == len(w.pool) {
		return &w.probe
	}
	return &w.pool[i]
}
