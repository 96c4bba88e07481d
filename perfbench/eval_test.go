package main

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"s2rdf/internal/rdf"
	"s2rdf/internal/ref"
	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

// smallGraph is a small WatDiv graph, small enough for the exhaustive
// internal/ref evaluator: its triples as a set, and the same triples with
// some of them listed twice.
func smallGraph(t *testing.T) (set, repeated []rdf.Triple) {
	t.Helper()
	d := watdiv.Generate(watdiv.Config{Scale: 0.05, Seed: 3})
	set = distinctTriples(d.Triples)
	rng := rand.New(rand.NewSource(3))
	for _, tr := range set {
		repeated = append(repeated, tr)
		if rng.Intn(50) == 0 {
			repeated = append(repeated, tr)
		}
	}
	if len(repeated) == len(set) {
		t.Fatal("no triple repeated")
	}
	return set, repeated
}

func refAnswer(t *testing.T, triples []rdf.Triple, text string) answer {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("sparql.Parse: %v\n%s", err, text)
	}
	vars := q.SelectVars()
	rows := make([]string, 0)
	for _, b := range ref.EvalQuery(triples, q) {
		var sb strings.Builder
		names := append([]string(nil), vars...)
		sort.Strings(names)
		for _, v := range names {
			sb.WriteString(v)
			sb.WriteByte('=')
			if term, ok := b[v]; ok {
				sb.WriteString(canonNT(string(term)))
			}
			sb.WriteByte(0)
		}
		rows = append(rows, sb.String())
	}
	return fingerprint(rows)
}

// TestEvaluatorMatchesRef cross-checks the benchmark's evaluator with the
// repository's naive reference evaluator on every template the workloads
// use, in broad form and as sampled instances. The evaluator is fed some
// triples twice and must answer as for the set (internal/ref, which keeps
// repeated triples, is given the set).
func TestEvaluatorMatchesRef(t *testing.T) {
	triples, repeated := smallGraph(t)
	g := newGraph()
	for _, tr := range repeated {
		g.add(string(tr.S), string(tr.P), string(tr.O))
	}
	g.finish()
	templates := append(watdiv.BasicTemplates(), hotTemplates...)
	nonEmpty := 0
	for _, tm := range templates {
		q, err := parseBGP(tm.Text)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		broad := q.bind(nil)
		text := tm.Text
		for _, ph := range placeholders(q) {
			text = strings.ReplaceAll(text, "%"+ph+"%", "?"+ph)
		}
		got, err := g.expect(broad)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		if want := refAnswer(t, triples, text); got != want {
			t.Errorf("%s broad: evaluator %d rows, ref %d rows (or different values)", tm.Name, got.rows, want.rows)
		}
		if got.rows > 0 {
			nonEmpty++
		}
		inst, err := sample(g, tm, 1, 1<<30, 3, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		for _, qi := range inst {
			if qi.want.rows == 0 {
				t.Errorf("%s: sampled instance returns no row", tm.Name)
			}
			if want := refAnswer(t, triples, qi.text); qi.want != want {
				t.Errorf("%s instance: evaluator %d rows, ref %d rows\n%s", tm.Name, qi.want.rows, want.rows, qi.text)
			}
		}
	}
	if nonEmpty < len(templates)/2 {
		t.Fatalf("only %d of %d templates return rows on the test graph; the cross-check is too weak", nonEmpty, len(templates))
	}
}

func TestParseBGPRejectsOutsideSubset(t *testing.T) {
	for _, text := range []string{
		`ASK { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ex:p ?o }`,
		`SELECT ?s WHERE { ?s wsdbm:likes }`,
	} {
		if _, err := parseBGP(text); err == nil {
			t.Errorf("parseBGP accepted %q", text)
		}
	}
}

func TestCanonicalTermsAgree(t *testing.T) {
	cases := []struct {
		nt                 string
		typ, val, dt, lang string
	}{
		{`<http://x/a>`, "uri", "http://x/a", "", ""},
		{`"plain"`, "literal", "plain", "http://www.w3.org/2001/XMLSchema#string", ""},
		{`"plain"`, "literal", "plain", "", ""},
		{`"5"^^<http://www.w3.org/2001/XMLSchema#integer>`, "literal", "5", "http://www.w3.org/2001/XMLSchema#integer", ""},
		{`"chat"@FR`, "literal", "chat", "", "fr"},
		{`"say \"hi\"\n"`, "literal", "say \"hi\"\n", "", ""},
		{`_:b1`, "bnode", "b1", "", ""},
	}
	for _, c := range cases {
		if a, b := canonNT(c.nt), canonTerm(c.typ, c.val, c.dt, c.lang); a != b {
			t.Errorf("%s: N-Triples side %q, JSON side %q", c.nt, a, b)
		}
	}
}

func TestScanResult(t *testing.T) {
	cases := []struct {
		doc      string
		rows     int
		complete bool
	}{
		{`{"head":{"vars":["a"]},"results":{"bindings":[]}}`, 0, true},
		{`{"head":{"vars":["a"]},"results":{"bindings":[
{"a":{"type":"literal","value":"x{\"y\"}[,"}},
{"a":{"type":"uri","value":"http://e/1"}}
]}}
`, 2, true},
		{`{"head":{"vars":["a"]},"results":{"bindings":[
{"a":{"type":"uri","value":"http://e/1"}}
]},"error":"query deadline exceeded mid-stream"}`, 1, false},
		{`{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"uri","value":"http://e/1"}}`, 1, false},
		{`{"error":"bad query"}`, 0, false},
		{`{"head":{},"boolean":true}`, 0, true},
	}
	for _, c := range cases {
		rows, complete := scanResult([]byte(c.doc))
		if rows != c.rows || complete != c.complete {
			t.Errorf("scanResult(%.50q) = %d, %v; want %d, %v", c.doc, rows, complete, c.rows, c.complete)
		}
		// Streamed in small pieces, the scanner must agree.
		var s resultScanner
		for i := 0; i < len(c.doc); i += 3 {
			s.Write([]byte(c.doc[i:min(i+3, len(c.doc))]))
		}
		if s.rows != c.rows || s.complete() != c.complete {
			t.Errorf("streamed %.50q = %d, %v; want %d, %v", c.doc, s.rows, s.complete(), c.rows, c.complete)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 7, 9.5},
		{[]float64{4.5, 1.25, 3}, 1.25, 3, 4.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(m-c.m) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestPickerWholeRounds checks that a run stopped at any point still
// attempts whole rounds, each with exactly one probe at its end.
func TestPickerWholeRounds(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		w := &workload{pool: make([]query, 5), zipf: zipf}
		for before := 0; before < 14; before++ {
			p := newPicker(w, 1)
			n, probes := 0, 0
			for stop := false; ; {
				i, ok := p.next(stop)
				if !ok {
					break
				}
				if i < 0 || i > len(w.pool) {
					t.Fatalf("index %d out of range", i)
				}
				n++
				if i == len(w.pool) {
					probes++
					if n%(len(w.pool)+1) != 0 {
						t.Fatalf("zipf=%v: probe at position %d, not at a round's end", zipf, n)
					}
				}
				stop = n >= before
			}
			if rounds := max(1, (before+len(w.pool))/(len(w.pool)+1)); n != rounds*(len(w.pool)+1) || probes != rounds {
				t.Errorf("zipf=%v, stopped after %d: %d requests with %d probes, want %d rounds", zipf, before, n, probes, rounds)
			}
		}
	}
}
