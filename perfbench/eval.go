package main

// The expected answers come from this file alone: a small parser for the
// WatDiv template subset (SELECT ?vars WHERE { s p o . ... } with prefixed
// names) and an index-backed nested-loop BGP evaluator. It deliberately
// shares no code with the program's query path (sparql, core, engine,
// layout), so a fault there cannot also hide in the expected rows.

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// namespaces are the prefixes the WatDiv templates use.
var namespaces = map[string]string{
	"wsdbm": "http://db.uwaterloo.ca/~galuc/wsdbm/",
	"sorg":  "http://schema.org/",
	"gr":    "http://purl.org/goodrelations/",
	"gn":    "http://www.geonames.org/ontology#",
	"mo":    "http://purl.org/ontology/mo/",
	"og":    "http://ogp.me/ns#",
	"rev":   "http://purl.org/stuff/rev#",
	"foaf":  "http://xmlns.com/foaf/",
	"dc":    "http://purl.org/dc/terms/",
	"rdf":   "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
}

// A bgp is a parsed SELECT over one basic graph pattern. Each pattern slot
// holds a variable ("?name"), a placeholder ("%name%") or a constant in
// N-Triples form ("<iri>").
type bgp struct {
	vars []string
	pats [][3]string
}

// parseBGP parses the template subset. Anything outside it is an error, so
// a template the evaluator cannot read is never silently mis-evaluated.
func parseBGP(text string) (bgp, error) {
	var q bgp
	f := strings.Fields(text)
	if len(f) < 4 || !strings.EqualFold(f[0], "SELECT") {
		return q, fmt.Errorf("not a SELECT: %.40q", text)
	}
	i := 1
	for ; i < len(f) && strings.HasPrefix(f[i], "?"); i++ {
		q.vars = append(q.vars, f[i][1:])
	}
	if i+1 >= len(f) || !strings.EqualFold(f[i], "WHERE") || f[i+1] != "{" || f[len(f)-1] != "}" {
		return q, fmt.Errorf("want SELECT ?v... WHERE { ... }: %.60q", text)
	}
	body := f[i+2 : len(f)-1]
	for len(body) > 0 {
		if len(body) < 3 {
			return q, fmt.Errorf("truncated pattern %q", body)
		}
		var p [3]string
		for j := 0; j < 3; j++ {
			t, err := expandTerm(body[j])
			if err != nil {
				return q, err
			}
			p[j] = t
		}
		if !strings.HasPrefix(p[1], "<") {
			return q, fmt.Errorf("predicate %q must be a constant", p[1])
		}
		q.pats = append(q.pats, p)
		body = body[3:]
		if len(body) > 0 && body[0] == "." {
			body = body[1:]
		}
	}
	if len(q.vars) == 0 || len(q.pats) == 0 {
		return q, fmt.Errorf("empty projection or pattern: %.60q", text)
	}
	return q, nil
}

func expandTerm(tok string) (string, error) {
	switch {
	case strings.HasPrefix(tok, "?"), strings.HasPrefix(tok, "<"):
		return tok, nil
	case len(tok) > 2 && tok[0] == '%' && tok[len(tok)-1] == '%':
		return tok, nil
	}
	prefix, local, ok := strings.Cut(tok, ":")
	ns, known := namespaces[prefix]
	if !ok || !known {
		return "", fmt.Errorf("unknown term %q", tok)
	}
	if prefix == "rdf" && local == "type" || tok == "a" {
		return "<" + namespaces["rdf"] + "type>", nil
	}
	return "<" + ns + local + ">", nil
}

// bind replaces placeholders by terms; placeholders missing from vals
// become variables of the same name, which is how a template's broad form
// ("its constant left as a variable") is made.
func (q bgp) bind(vals map[string]string) bgp {
	out := bgp{vars: q.vars, pats: make([][3]string, len(q.pats))}
	for i, p := range q.pats {
		for j, t := range p {
			if len(t) > 2 && t[0] == '%' {
				name := t[1 : len(t)-1]
				if v, ok := vals[name]; ok {
					t = v
				} else {
					t = "?" + name
				}
			}
			out.pats[i][j] = t
		}
	}
	return out
}

// graph is the evaluator's triple index: for every predicate, its (s, o)
// pairs sorted by subject and by object. An RDF graph is a set of triples,
// so a triple added twice is kept once.
type graph struct {
	ids   map[string]uint32
	terms []string
	preds map[uint32]*predIndex
}

type pair struct{ s, o uint32 }

type predIndex struct {
	so, os []pair
}

func newGraph() *graph {
	return &graph{ids: map[string]uint32{}, preds: map[uint32]*predIndex{}}
}

func (g *graph) intern(t string) uint32 {
	if id, ok := g.ids[t]; ok {
		return id
	}
	id := uint32(len(g.terms))
	g.ids[t] = id
	g.terms = append(g.terms, t)
	return id
}

func (g *graph) add(s, p, o string) {
	pi := g.intern(p)
	ix := g.preds[pi]
	if ix == nil {
		ix = &predIndex{}
		g.preds[pi] = ix
	}
	ix.so = append(ix.so, pair{g.intern(s), g.intern(o)})
}

// finish sorts the indexes and drops repeated triples; call once after the
// last add.
func (g *graph) finish() {
	for _, ix := range g.preds {
		sort.Slice(ix.so, func(i, j int) bool {
			a, b := ix.so[i], ix.so[j]
			return a.s < b.s || a.s == b.s && a.o < b.o
		})
		ix.so = slices.Compact(ix.so)
		ix.os = append([]pair(nil), ix.so...)
		sort.Slice(ix.os, func(i, j int) bool {
			a, b := ix.os[i], ix.os[j]
			return a.o < b.o || a.o == b.o && a.s < b.s
		})
	}
}

func bySubject(ps []pair, s uint32) []pair {
	lo := sort.Search(len(ps), func(i int) bool { return ps[i].s >= s })
	hi := lo
	for hi < len(ps) && ps[hi].s == s {
		hi++
	}
	return ps[lo:hi]
}

func byObject(ps []pair, o uint32) []pair {
	lo := sort.Search(len(ps), func(i int) bool { return ps[i].o >= o })
	hi := lo
	for hi < len(ps) && ps[hi].o == o {
		hi++
	}
	return ps[lo:hi]
}

// slot is one compiled pattern position: a variable index, or a constant.
type slot struct {
	v int // variable index, or -1 for a constant
	c uint32
}

type cpat struct {
	s, o slot
	ix   *predIndex
}

const missing = ^uint32(0)

// varOrder lists q's variables in order of first appearance; solve's
// bindings are indexed the same way.
func varOrder(q bgp) []string {
	var vars []string
	seen := map[string]bool{}
	for _, p := range q.pats {
		for _, t := range []string{p[0], p[2]} {
			if strings.HasPrefix(t, "?") && !seen[t[1:]] {
				seen[t[1:]] = true
				vars = append(vars, t[1:])
			}
		}
	}
	return vars
}

// solve calls emit once per solution, with the binding indexed like
// varOrder(q). The binding is reused across calls.
func (g *graph) solve(q bgp, emit func(binding []uint32)) {
	vars := varOrder(q)
	index := make(map[string]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	compile := func(t string) (slot, bool) {
		if strings.HasPrefix(t, "?") {
			return slot{v: index[t[1:]]}, true
		}
		id, ok := g.ids[t]
		return slot{v: -1, c: id}, ok
	}
	pats := make([]cpat, 0, len(q.pats))
	for _, p := range q.pats {
		s, okS := compile(p[0])
		o, okO := compile(p[2])
		pid, okP := g.ids[p[1]]
		if !okS || !okO || !okP || g.preds[pid] == nil {
			return // an unknown constant or predicate matches nothing
		}
		pats = append(pats, cpat{s: s, o: o, ix: g.preds[pid]})
	}
	order := planOrder(pats, len(vars))
	b := make([]uint32, len(vars))
	for i := range b {
		b[i] = missing
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			emit(b)
			return
		}
		p := pats[order[k]]
		sv, ov := p.s.c, p.o.c
		if p.s.v >= 0 {
			sv = b[p.s.v]
		}
		if p.o.v >= 0 {
			ov = b[p.o.v]
		}
		var cand []pair
		switch {
		case sv != missing:
			cand = bySubject(p.ix.so, sv)
		case ov != missing:
			cand = byObject(p.ix.os, ov)
		default:
			cand = p.ix.so
		}
		for _, t := range cand {
			if sv != missing && t.s != sv || ov != missing && t.o != ov {
				continue
			}
			setS := sv == missing
			if setS {
				b[p.s.v] = t.s
			}
			if ov == missing {
				if p.o.v == p.s.v && b[p.o.v] != t.o { // ?x p ?x
					if setS {
						b[p.s.v] = missing
					}
					continue
				}
				b[p.o.v] = t.o
				rec(k + 1)
				b[p.o.v] = missing
			} else {
				rec(k + 1)
			}
			if setS {
				b[p.s.v] = missing
			}
		}
	}
	rec(0)
}

// planOrder orders patterns greedily: most bound positions first, then
// smallest predicate, preferring patterns that share a variable with the
// ones already placed, so no step is a cross product unless the BGP is
// disconnected.
func planOrder(pats []cpat, nvars int) []int {
	bound := make([]bool, nvars)
	used := make([]bool, len(pats))
	var order []int
	for len(order) < len(pats) {
		best, bestScore, bestSize := -1, -1, 0
		for i, p := range pats {
			if used[i] {
				continue
			}
			score := 0
			for _, s := range []slot{p.s, p.o} {
				if s.v < 0 || bound[s.v] {
					score += 2
				}
			}
			size := len(p.ix.so)
			if best < 0 || score > bestScore || score == bestScore && size < bestSize {
				best, bestScore, bestSize = i, score, size
			}
		}
		used[best] = true
		order = append(order, best)
		for _, s := range []slot{pats[best].s, pats[best].o} {
			if s.v >= 0 {
				bound[s.v] = true
			}
		}
	}
	return order
}

// answer is the fingerprint of a result multiset: its row count and a hash
// of its sorted canonical rows.
type answer struct {
	rows int
	sum  [32]byte
}

// expect evaluates q and fingerprints its projected rows.
func (g *graph) expect(q bgp) (answer, error) {
	index := map[string]int{}
	for i, v := range varOrder(q) {
		index[v] = i
	}
	names := append([]string(nil), q.vars...)
	sort.Strings(names) // the row layout fingerprintJSON uses
	proj := make([]int, len(names))
	for i, v := range names {
		j, ok := index[v]
		if !ok {
			return answer{}, fmt.Errorf("projected ?%s is not in the pattern", v)
		}
		proj[i] = j
	}
	var rows []string
	g.solve(q, func(b []uint32) {
		var sb strings.Builder
		for i, j := range proj {
			sb.WriteString(names[i])
			sb.WriteByte('=')
			sb.WriteString(canonNT(g.terms[b[j]]))
			sb.WriteByte(0)
		}
		rows = append(rows, sb.String())
	})
	return fingerprint(rows), nil
}

func fingerprint(rows []string) answer {
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	a := answer{rows: len(rows)}
	copy(a.sum[:], h.Sum(nil))
	return a
}

// Canonical term forms shared by the evaluator side (N-Triples terms) and
// the response side (SPARQL-JSON objects). A literal without datatype or
// language is an xsd:string, as in RDF 1.1.
const xsdString = "http://www.w3.org/2001/XMLSchema#string"

func canonTerm(typ, value, datatype, lang string) string {
	switch typ {
	case "uri":
		return "U" + value
	case "bnode":
		return "B" + value
	}
	if lang == "" && datatype == "" {
		datatype = xsdString
	}
	return "L" + value + "\x01" + datatype + "\x01" + strings.ToLower(lang)
}

// canonNT canonicalizes a term in N-Triples surface syntax.
func canonNT(t string) string {
	switch {
	case strings.HasPrefix(t, "<"):
		return canonTerm("uri", strings.TrimSuffix(t[1:], ">"), "", "")
	case strings.HasPrefix(t, "_:"):
		return canonTerm("bnode", t[2:], "", "")
	}
	end := strings.LastIndexByte(t, '"')
	if !strings.HasPrefix(t, `"`) || end < 1 {
		return "?" + t
	}
	lex, rest := unescapeNT(t[1:end]), t[end+1:]
	switch {
	case strings.HasPrefix(rest, "^^<"):
		return canonTerm("literal", lex, strings.TrimSuffix(rest[3:], ">"), "")
	case strings.HasPrefix(rest, "@"):
		return canonTerm("literal", lex, "", rest[1:])
	}
	return canonTerm("literal", lex, "", "")
}

func unescapeNT(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			sb.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u', 'U':
			n := 4
			if s[i] == 'U' {
				n = 8
			}
			if i+n < len(s) {
				if r, err := strconv.ParseUint(s[i+1:i+1+n], 16, 32); err == nil {
					sb.WriteRune(rune(r))
					i += n
					continue
				}
			}
			sb.WriteByte('\\')
			sb.WriteByte(s[i])
		default:
			sb.WriteByte(s[i])
		}
	}
	if !utf8.ValidString(sb.String()) {
		return s
	}
	return sb.String()
}
