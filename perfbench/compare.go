package main

// The compare command runs two sets of benchmark runs of the same build,
// alternating between them, and reports for every end-to-end metric and
// workload each set's median and quartiles, the spread, and whether the
// second set agrees with the first within BENCHMARK.json's bound. The A+B
// column is the spread of both sets' runs together. With
// --delay-b the second set carries an injected per-request delay, which
// shows whether the bounds catch a regression of that size.
//
//	perfbench compare --runs 10 --workloads lookup,analytic,hot-cache
//	perfbench compare --runs 5 --workloads lookup --delay-b 120us

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) (the exclusive method) computes them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

type runRecord struct {
	Set      string  `json:"set"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *result `json:"result"`
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	wl := fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	delayB := fs.Duration("delay-b", 0, "per-request delay injected into every run of set B")
	root := fs.String("root", ".", "repository checkout")
	fs.Parse(args)

	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var records []runRecord
	run := func(set, w string, seed int64, delay time.Duration) error {
		a := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0", "--root", *root}
		if delay > 0 {
			a = append(a, "--delay", delay.String())
		}
		cmd := exec.Command(self, a...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
			return fmt.Errorf("%s %s seed %d: %v (%v)", set, w, seed, err, jerr)
		}
		records = append(records, runRecord{set, w, seed, &r})
		var parts []string
		for _, m := range spec.EndToEnd {
			parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, r.Metrics[m.Name].Value))
		}
		fmt.Printf("%s %-9s seed %-3d correct=%v attempted=%d failed=%d %s\n",
			set, w, seed, r.Correct, r.Attempted, r.Failed, strings.Join(parts, " "))
		if err != nil {
			return fmt.Errorf("%s %s seed %d: %v", set, w, seed, err)
		}
		return nil
	}
	workloads := strings.Split(*wl, ",")
	for _, w := range workloads {
		for i := 0; i < *runs; i++ {
			seedA := int64(1 + i)
			seedB := seedA + int64(*runs)
			// Alternate which set goes first, so drift in the machine's
			// load favours neither.
			order := []string{"A", "B"}
			if i%2 == 1 {
				order = []string{"B", "A"}
			}
			for _, set := range order {
				seed, delay := seedA, time.Duration(0)
				if set == "B" {
					seed, delay = seedB, *delayB
				}
				if err := run(set, w, seed, delay); err != nil {
					fmt.Fprintln(os.Stderr, "compare:", err)
					return 1
				}
			}
		}
	}

	out := filepath.Join(*root, ".perfbench", "compare-"+time.Now().UTC().Format("20060102-150405")+".json")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
		if b, err := json.MarshalIndent(records, "", " "); err == nil {
			os.WriteFile(out, b, 0o644)
		}
	}

	// Metrics a run prints that BENCHMARK.json does not list are shown
	// too, without a bound (lower taken as better).
	listed := map[string]bool{}
	for _, m := range spec.EndToEnd {
		listed[m.Name] = true
	}
	metrics := spec.EndToEnd
	var extra []string
	for k := range records[0].Result.Metrics {
		if !listed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		metrics = append(metrics, metricSpec{Name: k, Better: "lower"})
	}

	bw := bufio.NewWriter(os.Stdout)
	defer bw.Flush()
	fmt.Fprintf(bw, "\n%d runs per set, %ds windows, set B delay %v; spread = (Q3-Q1)/median; shift = worsening of B's median\n",
		*runs, spec.RunSeconds, *delayB)
	fmt.Fprintf(bw, "%-9s %-24s %11s %11s %11s %7s | %11s %11s %11s %7s | %7s | %7s %5s  %s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "spread", "B.q1", "B.median", "B.q3", "spread", "A+B", "shift", "bound", "verdict")
	exit := 0
	for _, w := range workloads {
		var failA, failB [2]int
		for _, r := range records {
			if r.Workload != w {
				continue
			}
			f := &failA
			if r.Set == "B" {
				f = &failB
			}
			f[0] += r.Result.Failed
			f[1] += r.Result.Attempted
		}
		for _, m := range metrics {
			var a, b []float64
			for _, r := range records {
				if r.Workload != w {
					continue
				}
				v := r.Result.Metrics[m.Name].Value
				if r.Set == "A" {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			shift := (bm - am) / am
			if m.Better == "higher" {
				shift = -shift
			}
			spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
			all1, allm, all3 := quartiles(append(append([]float64(nil), a...), b...))
			spreadAll := (all3 - all1) / allm
			var verdict []string
			if !listed[m.Name] {
				verdict = append(verdict, "unbounded")
			} else if shift > m.Bound {
				verdict = append(verdict, "REGRESSION")
			}
			worst := max(spreadA, spreadB, spreadAll)
			if listed[m.Name] && m.Name != "setup_s" {
				if worst > m.Bound {
					verdict = append(verdict, "SPREAD>BOUND")
				} else if worst > m.Bound/3 {
					verdict = append(verdict, "spread>bound/3")
				}
			}
			if len(verdict) == 0 {
				verdict = append(verdict, "agree")
			} else if *delayB == 0 && listed[m.Name] {
				exit = 1
			}
			fmt.Fprintf(bw, "%-9s %-24s %11.4g %11.4g %11.4g %7.3f | %11.4g %11.4g %11.4g %7.3f | %7.3f | %+7.3f %5.2f  %s\n",
				w, m.Name, a1, am, a3, spreadA, b1, bm, b3, spreadB, spreadAll, shift, m.Bound, strings.Join(verdict, ","))
		}
		// The shares must be equal exactly: cross-multiply instead of
		// comparing floating-point quotients.
		same := failA[0]*failB[1] == failB[0]*failA[1]
		if !same {
			exit = 1
		}
		fmt.Fprintf(bw, "%-9s failed share: A %d/%d, B %d/%d, equal=%v\n", w, failA[0], failA[1], failB[0], failB[1], same)
	}
	fmt.Fprintf(bw, "runs saved to %s\n", out)
	return exit
}
