package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare reads two result files written with -out (one envelope per
// line, so a file may hold many runs) and prints one row per (workload,
// metric): both medians, the ratio B/A, and for end-to-end metrics a
// verdict against the metric's bound. It exits non-zero on any `worse`.
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  either side's own spread (quartile distance over median)
//	            is wider than the bound, so the files cannot tell
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	a, err := loadRuns(args[0])
	if err == nil {
		var b runs
		if b, err = loadRuns(args[1]); err == nil {
			return printComparison(stdout, args[0], args[1], a, b)
		}
	}
	fmt.Fprintf(stderr, "bench: compare: %v\n", err)
	return 2
}

// runs holds every value a file has for each (workload, metric).
type runs map[string]map[string][]float64

func loadRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // a traced envelope carries its spans on one line
	for sc.Scan() {
		// The part of an envelope a comparison reads: not the spans.
		var env struct {
			Schema    int `json:"schema"`
			Workloads []struct {
				Name     string                 `json:"name"`
				EndToEnd map[string]metricValue `json:"end_to_end"`
				PerLayer map[string]metricValue `json:"per_layer"`
			} `json:"workloads"`
		}
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if env.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema %d, this build reads %d", path, env.Schema, schemaVersion)
		}
		for _, w := range env.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for _, set := range []map[string]metricValue{w.EndToEnd, w.PerLayer} {
				for name, v := range set {
					out[w.Name][name] = append(out[w.Name][name], v.Value)
				}
			}
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, by the same rule as Python's statistics.quantiles(n=4)
// (exclusive method); 0 with fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return ratio(q(0.75)-q(0.25), median(s))
}

func printComparison(w io.Writer, nameA, nameB string, a, b runs) int {
	fmt.Fprintf(w, "A = %s, B = %s; ratio is B/A\n", nameA, nameB)
	fmt.Fprintf(w, "%-13s %-38s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "ratio", "A iqr", "B iqr", "verdict")
	worse := 0
	for _, p := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := a[p.name][d.Name], b[p.name][d.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				sa, sb := spread(va), spread(vb)
				verdict := ""
				if d.Bound > 0 {
					loss := ratio(mb-ma, ma) // how much worse B is, as a share of A
					if d.Better == higher {
						loss = -loss
					}
					switch {
					case sa > d.Bound || sb > d.Bound:
						verdict = "unresolved"
					case loss > d.Bound:
						verdict = "worse"
						worse++
					default:
						verdict = "ok"
					}
				}
				fmt.Fprintf(w, "%-13s %-38s %14.4f %14.4f %8.4f %7.1f%% %7.1f%%  %s\n",
					p.name, d.Name, ma, mb, ratio(mb, ma), 100*sa, 100*sb, verdict)
			}
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d end-to-end metric(s) worse than the bound\n", worse)
		return 1
	}
	return 0
}
