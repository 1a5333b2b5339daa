package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// manifest is BENCHMARK.json. The command, paths and run length are fixed
// here; everything else comes from the workload and metric tables.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestLoad  `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []manifestLayer `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
	}
	for _, p := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{p.name, p.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

// TestManifest pins BENCHMARK.json to the tables and the tables to the
// limits the benchmark contract sets on that file.
func TestManifest(t *testing.T) {
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the tables in this package; run go test -run TestManifest -update", path)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, p := range workloads {
		name(p.name)
		if len(p.why) > 200 || strings.Contains(p.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", p.name, len(p.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var setup bool
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	for n := range spanMetrics {
		if !seen[n] {
			t.Errorf("span metric %q is not a per-layer metric", n)
		}
	}
}

// tiny shrinks a workload to a 32 MB device and a few hundred operations,
// keeping its shape: the fill ratios, the cache smaller than the working
// set, the wall-latency regime.
func tiny(p params) params {
	p.geo = flash.Geometry{Channels: 4, EBlocksPerChannel: 32, EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10}
	p.bufBytes, p.ckptBytes = 32<<10, 1<<20
	switch p.kind {
	case kindBatch:
		p.pages, p.warmOps, p.fullOps, p.readBack = 800, 120, 24, 40
	case kindKV:
		p.pages, p.warmOps, p.fullOps, p.cacheBytes = 2048, 4096, 450, 512<<10
	case kindChurn:
		p.bufBytes = 64 << 10
		p.pages, p.warmOps, p.fullOps = 5000, 250, 300
	}
	return p
}

var tinyNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryMetricEmitted runs each workload untraced and traced at tiny
// sizes: the run is correct, and every name BENCHMARK.json declares is
// emitted exactly once per workload, with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for _, full := range workloads {
		p := tiny(full)
		t.Run(p.name, func(t *testing.T) {
			plain, err := runWorkload(p, 1, 1, false, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(p, 1, 1, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || !traced.Correct || plain.Failed+traced.Failed != 0 || plain.Attempted == 0 {
				t.Fatalf("untraced correct=%v failed=%d attempted=%d, traced correct=%v failed=%d",
					plain.Correct, plain.Failed, plain.Attempted, traced.Correct, traced.Failed)
			}
			check := func(what string, defs []metricDef, got map[string]metricValue, nonZero bool) {
				t.Helper()
				if len(got) != len(defs) {
					t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(defs))
				}
				for _, d := range defs {
					v, ok := got[d.Name]
					switch {
					case !ok:
						t.Errorf("%s: %s not emitted", what, d.Name)
					case v.Unit != d.Unit || !tinyNameRE.MatchString(d.Name):
						t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, v.Unit, d.Unit)
					case nonZero && !(v.Value > 0):
						t.Errorf("%s: %s = %v, must never be 0", what, d.Name, v.Value)
					}
				}
			}
			check("end to end", endToEnd, plain.EndToEnd, true)
			check("per layer, traced", perLayer, traced.PerLayer, false)
			if want := len(perLayer) - len(spanMetrics); len(plain.PerLayer) != want {
				t.Errorf("untraced run printed %d per-layer metrics, want the %d that need no spans", len(plain.PerLayer), want)
			}
			if len(traced.Spans) == 0 || len(traced.SelfTimeWire) == 0 {
				t.Error("traced run kept no spans or no self-time table")
			}
			for _, row := range traced.SelfTimeWire {
				if row.Name == "op" && row.SelfMS > 0.05*row.TotalMS {
					t.Errorf("op root self time %.3f ms of %.3f ms: a call is missing its span", row.SelfMS, row.TotalMS)
				}
			}
			if p.kind == kindChurn && traced.PerLayer["gc.moved_bytes_per_user_byte"].Value == 0 {
				t.Error("churn_gc moved no bytes: garbage collection did not run")
			}
			if p.kind == kindKV {
				if hit := traced.PerLayer["readcache.hit_frac"].Value; hit <= 0 || hit >= 1 {
					t.Errorf("kv_mixed hit fraction %v: the cache must see both hits and misses", hit)
				}
			}
		})
	}
}

// TestChurnCountsRepeat: churn_gc is single-threaded, so every metric made
// of counts alone is identical across two runs of one seed, and two
// commits compare exactly.
func TestChurnCountsRepeat(t *testing.T) {
	full, _ := workloadByName("churn_gc")
	p := tiny(full)
	a, err := runWorkload(p, 7, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(p, 7, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"waf", "sim_mb_per_s"} {
		if a.EndToEnd[name] != b.EndToEnd[name] {
			t.Errorf("%s: %v then %v", name, a.EndToEnd[name].Value, b.EndToEnd[name].Value)
		}
	}
	for _, d := range perLayer {
		counts := strings.HasPrefix(d.Name, "gc.") || strings.HasPrefix(d.Name, "provision.") ||
			(strings.HasPrefix(d.Name, "flash.") && d.Name != "flash.program_us_mean") ||
			strings.HasPrefix(d.Name, "wal.") || d.Name == "core.checkpoints" || d.Name == "core.space_amp"
		if counts && a.PerLayer[d.Name] != b.PerLayer[d.Name] {
			t.Errorf("%s: %v then %v", d.Name, a.PerLayer[d.Name].Value, b.PerLayer[d.Name].Value)
		}
	}
}

// TestGeneratorsSeeded: one seed gives identical streams, two seeds differ.
func TestGeneratorsSeeded(t *testing.T) {
	stream := func(seed int64) []uint64 {
		var out []uint64
		c := newContent(newPool(seed), seed, pageLen)
		for lpid := addr.LPID(1); lpid <= 64; lpid++ {
			for ver := uint32(1); ver <= 3; ver++ {
				img := c.page(lpid, ver)
				if len(img) < 128 || len(img) > 4096 {
					t.Fatalf("page length %d outside [128, 4096]", len(img))
				}
				out = append(out, uint64(len(img)), uint64(img[0])<<8|uint64(img[len(img)-1]))
			}
		}
		z := newZipfian(1<<17, 0.99, rand.New(rand.NewSource(streamSeed(seed, 0))))
		hc := hotCold{rng: rand.New(rand.NewSource(streamSeed(seed, 1))), n: 1000}
		for i := 0; i < 256; i++ {
			out = append(out, z.next(), uint64(hc.next()))
		}
		return out
	}
	a, b, c := stream(1), stream(1), stream(2)
	same := func(x, y []uint64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("one seed gave two different streams")
	}
	if same(a, c) {
		t.Error("two seeds gave the same stream")
	}
}

// TestPageSizeMean: the page-size distribution has the paper's mean.
func TestPageSizeMean(t *testing.T) {
	var sum, hot float64
	const n = 200000
	hc := hotCold{rng: rand.New(rand.NewSource(1)), n: 1000}
	for i := uint64(0); i < n; i++ {
		sum += float64(pageLen(mix(i)))
		if hc.next() < 200 {
			hot++
		}
	}
	if mean := sum / n; mean < 1936 || mean > 1976 {
		t.Errorf("mean page size %.0f, want 1956 within 1 %%", mean)
	}
	if hot/n < 0.79 || hot/n > 0.81 {
		t.Errorf("%.3f of picks hit the hot fifth, want 0.8", hot/n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mbPerS, p50 []float64) string {
		path := filepath.Join(dir, name)
		for i := range mbPerS {
			env := envelope{Schema: schemaVersion, Workloads: []workloadResult{{Name: "batch_cpu",
				EndToEnd: map[string]metricValue{
					"flush_mb_per_s": {Value: mbPerS[i], Unit: "MB/s"},
					"flush_p50_us":   {Value: p50[i], Unit: "us"},
				}}}}
			if err := appendJSONLine(path, env); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{100, 101, 99, 100}, []float64{500, 505, 495, 500})
	same := write("b.jsonl", []float64{97, 98, 96, 97}, []float64{510, 515, 505, 510})
	slow := write("c.jsonl", []float64{60, 61, 59, 60}, []float64{500, 505, 495, 500})
	wide := write("d.jsonl", []float64{60, 100, 140, 100}, []float64{500, 505, 495, 500})

	var out bytes.Buffer
	if code := run([]string{"compare", base, same}, &out, &out); code != 0 || strings.Contains(out.String(), "worse") {
		t.Errorf("within the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", base, slow}, &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("40 %% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", base, wide}, &out, &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than the bound: exit %d\n%s", code, out.String())
	}
}
