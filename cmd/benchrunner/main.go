// Command benchrunner reproduces the paper's tables and figures (§IX),
// printed alongside the paper's reference numbers, and runs the
// repository's write-amplification experiment.
//
// Usage:
//
//	benchrunner <experiment> [flags]
//
// Every experiment owns the flags it declares and no others: a flag that
// belongs to a different experiment is a usage error (exit 2), as is an
// unknown experiment; both print the experiment list.
//
// The paper experiments — fig1, fig9, table2, fig10a, fig10b, fig10c and
// the readheavy and durability extensions — replay single-threaded and
// report virtual device time from the resource model (DESIGN.md §1): the
// *shape*, who wins and by what factor, is the reproduction target. They
// run at a laptop scale (seconds each); raise -txns / -records / -ops to
// approach the paper's. `all` runs fig1 fig9 table2 fig10a fig10b fig10c in
// that order, collecting the TPC-C trace and running the Fig. 10 cache
// sweep once.
//
// waf measures end-to-end write amplification on a B-tree-churn arm and a
// sequential arm, reconciled against the device program ledger. It writes
// its result document only when -json names a path; harness's
// TestWAFGolden compares that document with the committed BENCH_waf.json,
// so `benchrunner waf -json BENCH_waf.json` is how a change that moves
// WAF records it. The seeded chaos corpus runs as a test:
// `go test ./internal/chaos -run TestChaosCorpus [-chaos.seeds=N]`.
//
// Wall-clock throughput and latency are not measured here: that is
// bench/ (BENCHMARK.json). Experiments this command used to carry are
// listed in EXPERIMENTS.md ("Retired experiments"); the multi-tenant
// fairness arms among them are replayed in virtual time by the qos
// package's TestNoisyNeighborReplay.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"eleos/internal/harness"
	"eleos/internal/tpcc"
)

func main() {
	os.Exit(run(os.Args[1:], experiments(), os.Stdout, os.Stderr))
}

// experiment is one benchrunner subcommand. It owns the flags declared
// on fs; run reads them after fs has parsed the arguments that followed
// the experiment's name.
type experiment struct {
	name  string
	usage string // one line
	fs    *flag.FlagSet
	run   func(w io.Writer) error
}

func newExperiment(name, usage string) *experiment {
	return &experiment{name: name, usage: usage, fs: flag.NewFlagSet(name, flag.ContinueOnError)}
}

// run dispatches args (the command line after the program name) and
// returns the exit code: 0, 1 when the experiment failed, 2 for a usage
// error.
func run(args []string, exps []*experiment, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		printUsage(stderr, exps)
		return 2
	}
	var e *experiment
	for _, x := range exps {
		if x.name == args[0] {
			e = x
			break
		}
	}
	if e == nil {
		fmt.Fprintf(stderr, "benchrunner: unknown experiment %q\n", args[0])
		printUsage(stderr, exps)
		return 2
	}
	// The flag package reports a bad flag itself, then calls Usage.
	e.fs.SetOutput(stderr)
	e.fs.Usage = func() {
		fmt.Fprintf(stderr, "benchrunner %s: %s; its flags:\n", e.name, e.usage)
		e.fs.PrintDefaults()
		printUsage(stderr, exps)
	}
	if err := e.fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if e.fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", e.fs.Arg(0))
		e.fs.Usage()
		return 2
	}
	if err := e.run(stdout); err != nil {
		fmt.Fprintf(stderr, "benchrunner: %v\n", err)
		return 1
	}
	return 0
}

func printUsage(w io.Writer, exps []*experiment) {
	fmt.Fprintln(w, "usage: benchrunner <experiment> [flags]")
	fmt.Fprintln(w, "experiments:")
	for _, e := range exps {
		fmt.Fprintf(w, "  %-11s %s\n", e.name, e.usage)
	}
}

// inputs carries the scale flags and keeps what more than one figure
// derives from them, so `all` collects the TPC-C trace and runs the
// Fig. 10 cache sweep once.
type inputs struct {
	scale harness.Scale
	trace *tpcc.Trace
	fig10 []harness.Fig10Row
}

func (in *inputs) tpccFlags(fs *flag.FlagSet) {
	fs.IntVar(&in.scale.TPCCTransactions, "txns", 3000, "TPC-C transactions to trace")
}

func (in *inputs) ycsbFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&in.scale.YCSBRecords, "records", 60_000, "YCSB records")
	fs.IntVar(&in.scale.YCSBOps, "ops", 60_000, "YCSB operations")
}

func (in *inputs) tpccTrace(w io.Writer) (*tpcc.Trace, error) {
	if in.trace == nil {
		fmt.Fprintf(w, "collecting TPC-C trace (%d transactions)...\n", in.scale.TPCCTransactions)
		tr, err := harness.CollectDefaultTrace(in.scale.TPCCTransactions)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %d page writes, avg %.0f bytes (paper: 1.91 KB), %.1f MB total\n\n",
			len(tr.Writes), tr.AvgSize(), float64(tr.TotalBytes())/(1<<20))
		in.trace = tr
	}
	return in.trace, nil
}

func (in *inputs) fig10Rows() ([]harness.Fig10Row, error) {
	if in.fig10 == nil {
		rows, err := harness.RunFig10a(in.scale.YCSBRecords, in.scale.YCSBOps, in.scale.CachePcts)
		if err != nil {
			return nil, err
		}
		in.fig10 = rows
	}
	return in.fig10, nil
}

// allOrder is what `all` runs: the paper's evaluation.
var allOrder = []string{"fig1", "fig9", "table2", "fig10a", "fig10b", "fig10c"}

// experiments builds the table. The figure experiments share one inputs
// value; waf keeps its flag to itself.
func experiments() []*experiment {
	in := &inputs{scale: harness.DefaultScale()}
	tpccExp := func(name, usage string, body func(io.Writer, *tpcc.Trace) error) *experiment {
		e := newExperiment(name, usage)
		in.tpccFlags(e.fs)
		e.run = func(w io.Writer) error {
			tr, err := in.tpccTrace(w)
			if err != nil {
				return err
			}
			return body(w, tr)
		}
		return e
	}
	ycsbExp := func(name, usage string, body func(io.Writer) error) *experiment {
		e := newExperiment(name, usage)
		in.ycsbFlags(e.fs)
		e.run = body
		return e
	}
	fig10Exp := func(name, usage string, show func(io.Writer, []harness.Fig10Row)) *experiment {
		return ycsbExp(name, usage, func(w io.Writer) error {
			rows, err := in.fig10Rows()
			if err != nil {
				return err
			}
			show(w, rows)
			return nil
		})
	}
	fig1 := newExperiment("fig1", "Fig. 1: cost vs performance (analytic model, no simulation)")
	fig1.run = func(w io.Writer) error {
		harness.PrintFig1(w)
		return nil
	}

	exps := []*experiment{
		fig1,
		tpccExp("fig9", "Fig. 9: TPC-C write throughput vs write-buffer size", func(w io.Writer, tr *tpcc.Trace) error {
			rows, err := harness.RunFig9(tr, in.scale.BufferSizes)
			if err != nil {
				return err
			}
			harness.PrintFig9(w, tr, rows)
			return nil
		}),
		tpccExp("table2", "Table II: high-end-CPU simulator, 1 MB buffer", func(w io.Writer, tr *tpcc.Trace) error {
			res, err := harness.RunTable2(tr)
			if err != nil {
				return err
			}
			harness.PrintTable2(w, res)
			return nil
		}),
		fig10Exp("fig10a", "Fig. 10(a): Bw-tree YCSB throughput vs cache size", harness.PrintFig10a),
		fig10Exp("fig10b", "Fig. 10(b): total data written to the SSD", harness.PrintFig10b),
		ycsbExp("fig10c", "Fig. 10(c): garbage collection at 10 % cache", func(w io.Writer) error {
			res, err := harness.RunFig10c(in.scale.YCSBRecords, in.scale.YCSBOps)
			if err != nil {
				return err
			}
			harness.PrintFig10c(w, res)
			return nil
		}),
		ycsbExp("readheavy", "extension: the 95 %-read YCSB mix the paper omits", func(w io.Writer) error {
			rows, err := harness.RunReadHeavy(in.scale.YCSBRecords, in.scale.YCSBOps, in.scale.CachePcts)
			if err != nil {
				return err
			}
			harness.PrintReadHeavy(w, rows)
			return nil
		}),
		ycsbExp("durability", "extension: host mapping durability (§I)", func(w io.Writer) error {
			res, err := harness.RunDurability(in.scale.YCSBRecords, in.scale.YCSBOps)
			if err != nil {
				return err
			}
			harness.PrintDurability(w, res)
			return nil
		}),
		wafExperiment(),
	}

	all := newExperiment("all", "fig1 fig9 table2 fig10a fig10b fig10c, in that order")
	in.tpccFlags(all.fs)
	in.ycsbFlags(all.fs)
	byName := make(map[string]*experiment, len(exps))
	for _, e := range exps {
		byName[e.name] = e
	}
	all.run = func(w io.Writer) error {
		// The trace header leads the output, ahead of Fig. 1.
		if _, err := in.tpccTrace(w); err != nil {
			return err
		}
		for i, name := range allOrder {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if err := byName[name].run(w); err != nil {
				return err
			}
		}
		return nil
	}
	return append(exps, all)
}

func wafExperiment() *experiment {
	e := newExperiment("waf", "write amplification, B-tree churn and sequential arms (BENCH_waf.json)")
	jsonPath := e.fs.String("json", "", "write the result document to this `path` (default: write nothing)")
	e.run = func(w io.Writer) error {
		res, err := harness.RunWAF(1200, 1)
		if err != nil {
			return err
		}
		harness.PrintWAF(w, res)
		if *jsonPath == "" {
			return nil
		}
		if err := harness.WriteWAFJSON(*jsonPath, res); err != nil {
			return err
		}
		fmt.Fprintf(w, "result written to %s\n", *jsonPath)
		return nil
	}
	return e
}
