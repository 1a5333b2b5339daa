// Command benchrunner regenerates the paper's tables and figures (§IX)
// and prints them alongside the paper's reference numbers.
//
// Usage:
//
//	benchrunner [flags] <experiment>
//
// Experiments: fig1, fig9, table2, fig10a, fig10b, fig10c, readheavy,
// durability, ablation, concurrent, network, metricsoverhead,
// traceoverhead, chaos, ycsbnet, all. All but concurrent, network, chaos
// and the overhead pair replay single-threaded and report virtual device
// time; concurrent exercises the parallel write pipeline
// in-process and network drives it over loopback TCP through eleosd's
// front-end, both reporting wall-clock scaling. network records its rows
// to a JSON file (-netjson) so the service path joins the perf
// trajectory; metricsoverhead and traceoverhead compare the CPU-bound
// write path with the metrics registry (respectively the flight
// recorder) disabled vs enabled, record the delta (-mojson / -tojson),
// and can gate CI with -maxoverhead / -maxtraceoverhead. chaos
// executes the seeded fault-schedule
// corpus (seeds 1..-chaosseeds) from internal/chaos, records per-seed
// coverage (-chaosjson), and exits nonzero — printing the one-command
// replay — if any schedule violates an invariant. fairness runs the
// multi-tenant noisy-neighbor experiment: a quiet tenant's flush p99
// measured solo, racing rate-shaped aggressors with per-tenant QoS
// admission on, and racing the same aggressors with QoS off (the
// control arm); it records all three (-fairjson) and gates CI with
// -maxp99inflation. waf measures end-to-end write amplification per GC
// policy on a B-tree-churn arm plus one sequential arm, reconciling the
// registry's WAF against the device program ledger and the per-source
// attribution counters; it records the matrix (-wafjson) and gates CI
// with -maxwaf on the default policy's churn arm and -maxseqwaf on the
// sequential arm. ycsbnet runs the YCSB
// A/B/C mixes over loopback TCP through the read_page/read_batch wire
// path with the tiered read cache, plus an in-process concurrent-reader
// microbench with the cache off and on; it records both (-ynjson).
// Comparisons against deleted code paths (the copying request loop, the
// global-lock read path) are recorded numbers in EXPERIMENTS.md, not
// experiments.
//
// The experiments run at a laptop scale (seconds each) by default; raise
// -txns / -records / -ops to approach the paper's scale. Reported
// throughput is virtual time from the resource model (see DESIGN.md); the
// *shape* — who wins and by what factor — is the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"

	"eleos/internal/core"
	"eleos/internal/harness"
	"eleos/internal/tpcc"
)

func main() {
	var (
		txns        = flag.Int("txns", 3000, "TPC-C transactions to trace (fig9/table2)")
		records     = flag.Uint64("records", 60_000, "YCSB records (fig10*)")
		ops         = flag.Int("ops", 60_000, "YCSB operations (fig10*)")
		netBatches  = flag.Int("netbatches", 200, "batches per client (network)")
		netJSON     = flag.String("netjson", "BENCH_network.json", "JSON output file for the network experiment (empty disables)")
		moBatches   = flag.Int("mobatches", 400, "batches per writer (metricsoverhead)")
		moTrials    = flag.Int("motrials", 3, "trials per arm, best kept (metricsoverhead)")
		moJSON      = flag.String("mojson", "BENCH_metrics_overhead.json", "JSON output file for the metricsoverhead experiment (empty disables)")
		maxOverhead = flag.Float64("maxoverhead", 0, "fail if metrics overhead exceeds this percent (0 disables the gate)")
		toBatches   = flag.Int("tobatches", 400, "batches per writer (traceoverhead)")
		toTrials    = flag.Int("totrials", 3, "trials per arm, best kept (traceoverhead)")
		toJSON      = flag.String("tojson", "BENCH_trace_overhead.json", "JSON output file for the traceoverhead experiment (empty disables)")
		maxTraceOH  = flag.Float64("maxtraceoverhead", 0, "fail if trace overhead exceeds this percent (0 disables the gate)")
		chaosSeeds  = flag.Int("chaosseeds", 4, "generated schedules to execute, seeds 1..N (chaos)")
		chaosJSON   = flag.String("chaosjson", "BENCH_chaos.json", "JSON output file for the chaos experiment (empty disables)")
		ynRecords   = flag.Uint64("ynrecords", 2000, "YCSB working-set records, all preloaded (ycsbnet)")
		ynOps       = flag.Int("ynops", 4000, "operations per mix (ycsbnet)")
		ynClients   = flag.Int("ynclients", 4, "client connections (ycsbnet)")
		ynCacheMB   = flag.Int("yncachemb", 8, "server read-cache capacity in MB (ycsbnet)")
		ynReaders   = flag.Int("ynreaders", 8, "goroutines in the concurrent-reader microbench (ycsbnet)")
		ynReads     = flag.Int("ynreadsperarm", 2000, "reads per microbench arm (ycsbnet)")
		ynJSON      = flag.String("ynjson", "BENCH_ycsbnet.json", "JSON output file for the ycsbnet experiment (empty disables)")
		fairBatches = flag.Int("fairbatches", 120, "quiet-tenant batches per arm (fairness)")
		fairAggr    = flag.Int("fairaggressors", 3, "noisy-tenant connections (fairness)")
		fairJSON    = flag.String("fairjson", "BENCH_fairness.json", "JSON output file for the fairness experiment (empty disables)")
		maxP99Infl  = flag.Float64("maxp99inflation", 0, "fail if the qos arm's quiet-tenant p99 exceeds this multiple of the solo baseline (0 disables the gate)")
		wafBatches  = flag.Int("wafbatches", 1200, "batches per (policy, workload) arm (waf)")
		wafSeed     = flag.Int64("wafseed", 1, "workload RNG seed (waf)")
		wafJSON     = flag.String("wafjson", "BENCH_waf.json", "JSON output file for the waf experiment (empty disables)")
		maxWAF      = flag.Float64("maxwaf", 0, "fail if the default policy's btree-churn WAF exceeds this (0 disables the gate)")
		maxSeqWAF   = flag.Float64("maxseqwaf", 0, "fail if the sequential arm's WAF, where GC moves nothing, exceeds this (0 disables the gate)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchrunner [flags] fig1|fig9|table2|fig10a|fig10b|fig10c|readheavy|durability|ablation|concurrent|network|metricsoverhead|traceoverhead|chaos|ycsbnet|fairness|waf|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	exp := flag.Arg(0)
	scale := harness.DefaultScale()
	scale.TPCCTransactions = *txns
	scale.YCSBRecords = *records
	scale.YCSBOps = *ops
	mo := overheadFlags{batches: *moBatches, trials: *moTrials, json: *moJSON, maxPct: *maxOverhead}
	to := overheadFlags{batches: *toBatches, trials: *toTrials, json: *toJSON, maxPct: *maxTraceOH}
	ch := chaosFlags{seeds: *chaosSeeds, json: *chaosJSON}
	yn := ycsbnetFlags{records: *ynRecords, ops: *ynOps, clients: *ynClients,
		cacheBytes: int64(*ynCacheMB) << 20, readers: *ynReaders, readsPerArm: *ynReads,
		json: *ynJSON}
	fair := fairnessFlags{batches: *fairBatches, aggressors: *fairAggr, json: *fairJSON, maxInflation: *maxP99Infl}
	waf := wafFlags{batches: *wafBatches, seed: *wafSeed, json: *wafJSON, maxWAF: *maxWAF, maxSeqWAF: *maxSeqWAF}
	if err := run(exp, scale, *netBatches, *netJSON, mo, to, ch, yn, fair, waf); err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(1)
	}
}

// overheadFlags carries one overhead experiment's knobs (metricsoverhead
// and traceoverhead share the shape).
type overheadFlags struct {
	batches int
	trials  int
	json    string
	maxPct  float64 // >0: exit nonzero if overhead exceeds this percent
}

// chaosFlags carries the chaos corpus experiment's knobs. It always
// gates: any schedule violating an invariant exits nonzero with the
// replay command printed.
type chaosFlags struct {
	seeds int
	json  string
}

// ycsbnetFlags carries the ycsbnet experiment's knobs.
type ycsbnetFlags struct {
	records     uint64
	ops         int
	clients     int
	cacheBytes  int64
	readers     int
	readsPerArm int
	json        string
}

// fairnessFlags carries the fairness experiment's knobs; its gate bounds
// the quiet tenant's p99 under QoS as a multiple of its solo baseline.
type fairnessFlags struct {
	batches      int
	aggressors   int
	json         string
	maxInflation float64 // >0: exit nonzero if qos p99 / solo p99 exceeds
}

// wafFlags carries the waf experiment's knobs; its gates bound the
// default policy's btree-churn write amplification and the sequential
// arm's padding-plus-log floor.
type wafFlags struct {
	batches   int
	seed      int64
	json      string
	maxWAF    float64 // >0: exit nonzero if the gated WAF exceeds this
	maxSeqWAF float64 // >0: exit nonzero if the sequential arm's WAF exceeds this
}

func run(exp string, scale harness.Scale, netBatches int, netJSON string, mo, to overheadFlags, ch chaosFlags, yn ycsbnetFlags, fair fairnessFlags, waf wafFlags) error {
	needTrace := exp == "fig9" || exp == "table2" || exp == "all"
	var tr *tpcc.Trace
	if needTrace {
		fmt.Printf("collecting TPC-C trace (%d transactions)...\n", scale.TPCCTransactions)
		var err error
		tr, err = harness.CollectDefaultTrace(scale.TPCCTransactions)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d page writes, avg %.0f bytes (paper: 1.91 KB), %.1f MB total\n\n",
			len(tr.Writes), tr.AvgSize(), float64(tr.TotalBytes())/(1<<20))
	}
	switch exp {
	case "fig1":
		harness.PrintFig1(os.Stdout)
	case "fig9":
		rows, err := harness.RunFig9(tr, scale.BufferSizes)
		if err != nil {
			return err
		}
		harness.PrintFig9(os.Stdout, tr, rows)
	case "table2":
		res, err := harness.RunTable2(tr)
		if err != nil {
			return err
		}
		harness.PrintTable2(os.Stdout, res)
	case "fig10a", "fig10b":
		rows, err := harness.RunFig10a(scale.YCSBRecords, scale.YCSBOps, scale.CachePcts)
		if err != nil {
			return err
		}
		if exp == "fig10a" {
			harness.PrintFig10a(os.Stdout, rows)
		} else {
			harness.PrintFig10b(os.Stdout, rows)
		}
	case "fig10c":
		res, err := harness.RunFig10c(scale.YCSBRecords, scale.YCSBOps)
		if err != nil {
			return err
		}
		harness.PrintFig10c(os.Stdout, res)
	case "readheavy":
		rows, err := harness.RunReadHeavy(scale.YCSBRecords, scale.YCSBOps, scale.CachePcts)
		if err != nil {
			return err
		}
		harness.PrintReadHeavy(os.Stdout, rows)
	case "durability":
		res, err := harness.RunDurability(scale.YCSBRecords, scale.YCSBOps)
		if err != nil {
			return err
		}
		harness.PrintDurability(os.Stdout, res)
	case "ablation":
		if err := harness.PrintGCAblation(os.Stdout, 900, 1); err != nil {
			return err
		}
	case "concurrent":
		rows, err := harness.RunConcurrent([]int{1, 2, 4, 8}, 300)
		if err != nil {
			return err
		}
		harness.PrintConcurrent(os.Stdout, rows)
	case "network":
		rows, err := harness.RunNetwork([]int{1, 2, 4, 8}, netBatches)
		if err != nil {
			return err
		}
		harness.PrintNetwork(os.Stdout, rows)
		if netJSON != "" {
			if err := harness.WriteNetworkJSON(netJSON, netBatches, rows); err != nil {
				return err
			}
			fmt.Printf("rows written to %s\n", netJSON)
		}
	case "metricsoverhead":
		res, err := harness.RunMetricsOverhead(4, mo.batches, mo.trials)
		if err != nil {
			return err
		}
		harness.PrintMetricsOverhead(os.Stdout, res)
		if mo.json != "" {
			if err := harness.WriteMetricsOverheadJSON(mo.json, res); err != nil {
				return err
			}
			fmt.Printf("result written to %s\n", mo.json)
		}
		if mo.maxPct > 0 && res.OverheadPct > mo.maxPct {
			return fmt.Errorf("metrics overhead %.2f%% exceeds limit %.2f%%", res.OverheadPct, mo.maxPct)
		}
	case "traceoverhead":
		res, err := harness.RunTraceOverhead(4, to.batches, to.trials)
		if err != nil {
			return err
		}
		harness.PrintTraceOverhead(os.Stdout, res)
		if to.json != "" {
			if err := harness.WriteTraceOverheadJSON(to.json, res); err != nil {
				return err
			}
			fmt.Printf("result written to %s\n", to.json)
		}
		if to.maxPct > 0 && res.OverheadPct > to.maxPct {
			return fmt.Errorf("trace overhead %.2f%% exceeds limit %.2f%%", res.OverheadPct, to.maxPct)
		}
	case "ycsbnet":
		rows, err := harness.RunYCSBNet(yn.records, yn.ops, yn.clients, yn.cacheBytes)
		if err != nil {
			return err
		}
		sp, err := harness.RunReadSpeedup(yn.readers, yn.readsPerArm)
		if err != nil {
			return err
		}
		harness.PrintYCSBNet(os.Stdout, rows, sp)
		if yn.json != "" {
			if err := harness.WriteYCSBNetJSON(yn.json, yn.records, yn.clients, yn.cacheBytes, rows, sp); err != nil {
				return err
			}
			fmt.Printf("rows written to %s\n", yn.json)
		}
	case "fairness":
		res, err := harness.RunFairness(fair.batches, fair.aggressors)
		if err != nil {
			return err
		}
		harness.PrintFairness(os.Stdout, res)
		if fair.json != "" {
			if err := harness.WriteFairnessJSON(fair.json, res); err != nil {
				return err
			}
			fmt.Printf("result written to %s\n", fair.json)
		}
		if fair.maxInflation > 0 && res.QoSInflation > fair.maxInflation {
			return fmt.Errorf("fairness: quiet-tenant p99 inflation %.2fx under qos exceeds limit %.2fx (solo %s, qos %s)",
				res.QoSInflation, fair.maxInflation, res.SoloP99, res.QoSP99)
		}
	case "waf":
		res, err := harness.RunWAF(
			[]core.GCPolicy{core.GCMinCostDecline, core.GCGreedy, core.GCOldest},
			waf.batches, waf.seed)
		if err != nil {
			return err
		}
		harness.PrintWAF(os.Stdout, res)
		if waf.json != "" {
			if err := harness.WriteWAFJSON(waf.json, res); err != nil {
				return err
			}
			fmt.Printf("result written to %s\n", waf.json)
		}
		if waf.maxWAF > 0 && res.GatedWAF > waf.maxWAF {
			return fmt.Errorf("waf: gated write amplification %.3f exceeds limit %.3f", res.GatedWAF, waf.maxWAF)
		}
		if waf.maxSeqWAF > 0 && res.SequentialWAF > waf.maxSeqWAF {
			return fmt.Errorf("waf: sequential-arm write amplification %.3f exceeds limit %.3f", res.SequentialWAF, waf.maxSeqWAF)
		}
	case "chaos":
		rep, err := harness.RunChaos(ch.seeds, func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		})
		if err != nil {
			return err
		}
		fmt.Println()
		harness.PrintChaos(os.Stdout, rep)
		if ch.json != "" {
			if err := harness.WriteChaosJSON(ch.json, rep); err != nil {
				return err
			}
			fmt.Printf("report written to %s\n", ch.json)
		}
		if rep.Failed() {
			return fmt.Errorf("chaos: %d of %d schedules violated invariants", rep.Seeds-rep.Passed, rep.Seeds)
		}
	case "all":
		harness.PrintFig1(os.Stdout)
		fmt.Println()
		rows9, err := harness.RunFig9(tr, scale.BufferSizes)
		if err != nil {
			return err
		}
		harness.PrintFig9(os.Stdout, tr, rows9)
		fmt.Println()
		t2, err := harness.RunTable2(tr)
		if err != nil {
			return err
		}
		harness.PrintTable2(os.Stdout, t2)
		fmt.Println()
		rows10, err := harness.RunFig10a(scale.YCSBRecords, scale.YCSBOps, scale.CachePcts)
		if err != nil {
			return err
		}
		harness.PrintFig10a(os.Stdout, rows10)
		fmt.Println()
		harness.PrintFig10b(os.Stdout, rows10)
		fmt.Println()
		r10c, err := harness.RunFig10c(scale.YCSBRecords, scale.YCSBOps)
		if err != nil {
			return err
		}
		harness.PrintFig10c(os.Stdout, r10c)
		fmt.Println()
		if err := harness.PrintGCAblation(os.Stdout, 900, 1); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
