// Command bench is the one benchmark for ELEOS: four workloads, named
// end-to-end and per-layer metrics, output checks inside the run, and a
// traced run. See README.md in this directory.
//
//	go run -C bench . [-workload name|all] [-seed N] [-seconds N] [-trace 0|1] [-out file]
//	go run -C bench . compare A.jsonl B.jsonl
//
// The last line a workload prints is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

const schemaVersion = 1

// envelope wraps every result written with -out: enough to tell what was
// measured, on what, and how much it varied inside the run.
type envelope struct {
	Schema     int              `json:"schema"`
	GitSHA     string           `json:"git_sha"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Scale      float64          `json:"scale"` // operation counts as a share of the full (30 s) counts
	Trace      bool             `json:"trace"`
	Started    string           `json:"started"`
	DurationS  float64          `json:"duration_s"`
	Workloads  []workloadResult `json:"workloads"`
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // behind a latency percentile
}

type workloadResult struct {
	Name      string `json:"name"`
	Clients   int    `json:"clients"`
	WarmOps   int    `json:"warm_ops_per_client"`
	Passes    int    `json:"passes"` // timed passes made; see plainRun and tracedRun
	TimedOps  int    `json:"timed_ops_per_client_per_pass"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Within-run spread: each pass's set-up, each segment's rates.
	SetupS          []float64 `json:"setup_s,omitempty"`
	SegmentsMBPerS  []float64 `json:"segments_mb_per_s"`
	SegmentsOpsPerS []float64 `json:"segments_ops_per_s"`

	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer"`

	// Traced runs only.
	SelfTimeWire      []selfTime  `json:"self_time_wire,omitempty"`
	SelfTimeInProcess []selfTime  `json:"self_time_in_process,omitempty"`
	Spans             []*recorder `json:"spans,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: batch_cpu, batch_device, kv_mixed, churn_gc or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "run length: operation counts are the full counts times seconds/30")
	trace := fs.Int("trace", 0, "1 runs the traced passes and reports the per-layer metrics")
	out := fs.String("out", "", "append the result envelope (and, traced, the spans) to this file as one JSON line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name|all] [-seed N] [-seconds N>=1] [-trace 0|1] [-out file]")
		return 2
	}
	selected := workloads
	if *name != "all" {
		p, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []params{p}
	}

	started := time.Now()
	env := envelope{
		Schema: schemaVersion, GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: *seed, Seconds: *seconds, Scale: float64(*seconds) / fullSeconds,
		Trace: *trace == 1, Started: started.UTC().Format(time.RFC3339),
	}
	code := 0
	for _, p := range selected {
		res, err := runWorkload(p, *seed, env.Scale, env.Trace, *out != "")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
			if res == nil {
				continue
			}
		}
		env.Workloads = append(env.Workloads, *res)
		printResult(stdout, env, *res)
	}
	env.DurationS = time.Since(started).Seconds()
	if *out != "" {
		if err := appendJSONLine(*out, env); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// gitSHA is set by run.sh from the checkout it builds; a bare `go run`
// or a checkout that is not a repository reports "unknown".
func gitSHA() string {
	if sha := os.Getenv("ELEOS_BENCH_GIT_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// setUp builds a stack from the pass's sub-seed and brings it to the state
// the timed phase measures, returning how long that took: format + fill +
// warm-up.
func setUp(p params, pool []byte, seed int64, direct, traced bool) (*pass, float64, error) {
	t0 := time.Now()
	ps, err := newPass(p, pool, seed, direct, traced)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", p.name, err)
	}
	if err := ps.setup(); err != nil {
		return nil, 0, errors.Join(err, ps.st.close())
	}
	return ps, time.Since(t0).Seconds(), nil
}

// finish runs the timed phase and the checks on a set-up pass, tears it
// down and adds its operations to the result's totals.
func (ps *pass) finish(ops int, res *workloadResult) (*phase, error) {
	ph := ps.timed(ops)
	err := ps.check(ph)
	if err == nil {
		err = ps.firstErr()
	}
	a, f := ps.totals()
	res.Attempted += a
	res.Failed += f
	err = errors.Join(err, ps.st.close())
	runtime.GC() // drop the device before the next pass builds its own
	return ph, err
}

// runWorkload measures one workload and reports whatever it measured
// before the first error.
func runWorkload(p params, seed int64, scale float64, traced, keepSpans bool) (*workloadResult, error) {
	res := &workloadResult{Name: p.name, Clients: p.clients, WarmOps: p.warmOps}
	pool := newPool(seed)
	var err error
	if traced {
		err = tracedRun(p, pool, seed, scale, keepSpans, res)
	} else {
		err = plainRun(p, pool, seed, scale, res)
	}
	res.Correct = err == nil && res.Failed == 0
	return res, err
}

// plainRun is the untraced run: every pass does a third of the operations
// and every metric is the median over the passes, except the latency
// percentiles, which are taken over the samples of all of them.
func plainRun(p params, pool []byte, seed int64, scale float64, res *workloadResult) error {
	res.TimedOps = int(math.Max(1, math.Round(float64(p.fullOps)*scale/passes)))
	var e2e, layer []map[string]float64
	var lat latencies
	var err error
	for i := 0; i < passes && err == nil; i++ {
		var ps *pass
		var secs float64
		if ps, secs, err = setUp(p, pool, streamSeed(seed, passStream+uint64(i)), false, false); err != nil {
			break
		}
		var ph *phase
		ph, err = ps.finish(res.TimedOps, res)
		res.SetupS = append(res.SetupS, secs)
		res.SegmentsMBPerS = append(res.SegmentsMBPerS, ph.mbPerS...)
		res.SegmentsOpsPerS = append(res.SegmentsOpsPerS, ph.opsPerS...)
		res.Passes++
		e2e = append(e2e, passValues(ph, secs))
		layer = append(layer, counterValues(ps, ph))
		lat.add(ps)
	}
	if len(e2e) == 0 {
		return err
	}
	e2eValues, layerValues := medians(e2e), medians(layer)
	samples := lat.fill(e2eValues, layerValues)
	res.EndToEnd = withUnits(endToEnd, e2eValues, samples)
	res.PerLayer = withUnits(perLayer, layerValues, samples)
	return err
}

// tracedRun makes three passes over one stream, the first sub-seed's, at a
// quarter of the run's operations each: untraced over the wire (the
// counter metrics, and the base the tracing overhead is taken against),
// traced over the wire, and traced in-process on an identically formatted
// device. One set-up is built and dropped first: on batch_cpu the first
// stack a process builds runs about 7 % slower than those after it, and a
// base pass on it would make tracing look like a gain.
func tracedRun(p params, pool []byte, seed int64, scale float64, keepSpans bool, res *workloadResult) error {
	res.TimedOps = int(math.Max(1, math.Round(float64(p.fullOps)*scale/traceDivisor)))
	seed = streamSeed(seed, passStream)
	ps, _, err := setUp(p, pool, seed, false, false)
	if err != nil {
		return err
	}
	if err := ps.st.close(); err != nil {
		return err
	}
	runtime.GC()

	onePass := func(direct, traced bool) (*pass, *phase, error) {
		ps, _, err := setUp(p, pool, seed, direct, traced)
		if err != nil {
			return nil, nil, err
		}
		ph, err := ps.finish(res.TimedOps, res)
		res.Passes++
		return ps, ph, err
	}
	ps, base, err := onePass(false, false)
	if err != nil {
		return err
	}
	res.SegmentsMBPerS, res.SegmentsOpsPerS = base.mbPerS, base.opsPerS
	layer := counterValues(ps, base)
	var lat latencies
	lat.add(ps)
	samples := lat.fill(nil, layer)

	ps, ph, err := onePass(false, true)
	wire := ps.recorders()
	direct := wire // churn_gc is in-process already
	if err == nil && !p.direct {
		ps, _, err = onePass(true, true)
		direct = ps.recorders()
	}
	if err == nil {
		layer["server.frontend_us_p50"] = 0
		if !p.direct {
			layer["server.frontend_us_p50"] = spanP50(wire, kClientFlush) - spanP50(direct, kCoreWriteBatch)
		}
		layer["core.direct_flush_us_p50"] = spanP50(direct, kCoreWriteBatch)
		layer["core.direct_read_us_p50"] = spanP50(direct, kCoreRead)
		layer["core.encode_ns_per_kb"] = spanNSPerKB(wire, kEncode)
		layer["core.decode_view_ns_per_kb"] = spanNSPerKB(wire, kDecodeView)
		layer["client.read_batch_us_p50"] = spanP50(wire, kClientReadBatch)
		layer["bench.trace_overhead_frac"] = 1 - ratio(ph.calls/ph.wall.Seconds(), base.calls/base.wall.Seconds())
	}
	res.PerLayer = withUnits(perLayer, layer, samples)
	res.SelfTimeWire = selfTimes(wire)
	if !p.direct {
		res.SelfTimeInProcess = selfTimes(direct)
	}
	if keepSpans {
		res.Spans = wire
		if !p.direct {
			res.Spans = append(res.Spans, direct...)
		}
	}
	return err
}

// recorders returns the span recorders of a traced pass (none for nil: a
// pass that could not be set up).
func (ps *pass) recorders() []*recorder {
	if ps == nil {
		return nil
	}
	var recs []*recorder
	for _, w := range ps.workers {
		recs = append(recs, w.rec)
	}
	return recs
}

// withUnits attaches each definition's unit to its value, and the sample
// count to the latency percentiles. A definition with no value is a bug in
// this package, so it panics.
func withUnits(defs []metricDef, values map[string]float64, samples map[string]int) map[string]metricValue {
	out := make(map[string]metricValue, len(values))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if spanMetrics[d.Name] {
				continue // untraced run, or a traced run that failed part-way
			}
			panic("bench: no value computed for metric " + d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit, Samples: samples[d.Name]}
	}
	return out
}

func printResult(w io.Writer, env envelope, res workloadResult) {
	fmt.Fprintf(w, "== %s  seed %d  %d s (scale %.3f: %d passes of %d timed ops x %d clients)  commit %s %s GOMAXPROCS %d\n",
		res.Name, env.Seed, env.Seconds, env.Scale, res.Passes, res.TimedOps, res.Clients, env.GitSHA, env.GoVersion, env.GOMAXPROCS)
	section := func(title string, defs []metricDef, values map[string]metricValue) {
		if len(values) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "    %-38s %14.4f %-6s", d.Name, v.Value, v.Unit)
			if v.Samples > 0 {
				fmt.Fprintf(w, " n=%d", v.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	section("end to end", endToEnd, res.EndToEnd)
	if len(res.SetupS) > 0 {
		fmt.Fprintf(w, "    per pass: set-up (s) %.3f; segments (MB/s) %.1f; segments (op/s) %.0f\n",
			res.SetupS, res.SegmentsMBPerS, res.SegmentsOpsPerS)
	}
	section("per layer", perLayer, res.PerLayer)
	if len(res.SelfTimeWire) > 0 {
		printSelfTimes(w, "measured", res.SelfTimeWire)
	}
	if len(res.SelfTimeInProcess) > 0 {
		printSelfTimes(w, "in-process replay", res.SelfTimeInProcess)
	}
	metrics := res.EndToEnd
	if env.Trace {
		metrics = res.PerLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for name, v := range metrics {
		last.Metrics[name] = valueUnit{v.Value, v.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}
