// Command tracegen generates and inspects TPC-C page-write traces — the
// §IX-A3 experiment artifact replayed by Fig. 9 and Table II.
//
// Usage:
//
//	tracegen gen -out trace.bin [-txns N] [-warehouses N] [-seed N]
//	tracegen info trace.bin
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"eleos/internal/tpcc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks a malformed command line; its details are already on
// stderr when it is returned.
var errUsage = errors.New("usage")

// run dispatches args (the command line after the program name) and
// returns the exit code: 0, 1 when the subcommand failed, 2 for a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	err := errUsage
	if len(args) > 0 {
		switch args[0] {
		case "gen":
			err = gen(args[1:], stdout, stderr)
		case "info":
			err = info(args[1:], stdout)
		}
	}
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintf(stderr, "usage: tracegen gen -out FILE [-txns N] [-warehouses N] [-seed N] | tracegen info FILE\n")
		return 2
	}
	fmt.Fprintf(stderr, "tracegen: %v\n", err)
	return 1
}

func gen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output file (required)")
	txns := fs.Int("txns", 5000, "transactions to run")
	warehouses := fs.Int("warehouses", 2, "TPC-C warehouses")
	seed := fs.Int64("seed", 1, "rng seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the FlagSet has printed the error and its flags
	}
	if *out == "" || fs.NArg() > 0 {
		return errUsage
	}

	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = *warehouses
	cfg.Seed = *seed
	fmt.Fprintf(stdout, "running %d TPC-C transactions over %d warehouses...\n", *txns, *warehouses)
	tr, err := tpcc.Collect(tpcc.CollectOptions{Config: cfg, Transactions: *txns})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d page writes, avg %.0f bytes\n", *out, len(tr.Writes), tr.AvgSize())
	return nil
}

func info(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return errUsage
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := tpcc.DecodeTrace(f)
	if err != nil {
		return err
	}
	sizes := make([]int, len(tr.Writes))
	pids := map[uint64]int{}
	for i, w := range tr.Writes {
		sizes[i] = w.Size
		pids[w.PID]++
	}
	sort.Ints(sizes)
	pct := func(p int) int {
		if len(sizes) == 0 {
			return 0
		}
		return sizes[min(len(sizes)*p/100, len(sizes)-1)]
	}
	fmt.Fprintf(stdout, "page size:        %d bytes (uncompressed)\n", tr.PageBytes)
	fmt.Fprintf(stdout, "page writes:      %d (%d distinct pages)\n", len(tr.Writes), len(pids))
	fmt.Fprintf(stdout, "total:            %.2f MB compressed\n", float64(tr.TotalBytes())/(1<<20))
	fmt.Fprintf(stdout, "avg size:         %.0f bytes (paper: 1.91 KB)\n", tr.AvgSize())
	fmt.Fprintf(stdout, "size percentiles: p10=%d p50=%d p90=%d p99=%d max=%d\n",
		pct(10), pct(50), pct(90), pct(99), pct(100))
	return nil
}
