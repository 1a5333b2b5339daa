package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"eleos/internal/chaos"
)

// The chaos experiment is not a throughput benchmark: it executes the
// seeded fault-schedule corpus from internal/chaos and reports coverage —
// how many schedules ran, which fault kinds they composed, how many
// injected faults actually fired, and whether the full invariant set held
// on every one. Recording the numbers (BENCH_chaos.json) keeps the
// robustness trajectory visible (DESIGN.md §8).

// ChaosRow is one executed schedule's summary.
type ChaosRow struct {
	Seed          int64
	Writers       int
	Batches       int // per writer
	Pages         int // unique pages per batch (plus one churn page)
	FaultKinds    int // distinct fault types composed (of 4)
	ProgramFaults int64
	EraseFaults   int64
	Kills         int
	Recoveries    int
	Acked         int64
	MediaAborts   int64
	VerifiedReads int64
	Elapsed       time.Duration
	Violations    []string // empty = passed
}

// ChaosReport aggregates a corpus run.
type ChaosReport struct {
	Rows []ChaosRow

	Seeds         int
	Passed        int
	ProgramFaults int64
	EraseFaults   int64
	Kills         int
	Recoveries    int
	Acked         int64
	VerifiedReads int64
	KindCoverage  [5]int // KindCoverage[k] = schedules composing exactly k fault kinds
	Elapsed       time.Duration
}

// Failed reports whether any schedule in the corpus violated an invariant.
func (r ChaosReport) Failed() bool { return r.Passed != r.Seeds }

// RunChaos generates and executes schedules for seeds 1..seeds, collecting
// per-schedule coverage and the aggregate. Every run uses the same
// generator as the CI smoke corpus, so `benchrunner chaos -seeds N` is
// exactly the long-run test surface with a recorded report.
func RunChaos(seeds int, logf func(format string, args ...any)) (ChaosReport, error) {
	if seeds < 1 {
		return ChaosReport{}, fmt.Errorf("chaos: need at least one seed, got %d", seeds)
	}
	var rep ChaosReport
	start := time.Now()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := chaos.Generate(seed)
		t0 := time.Now()
		res := chaos.Run(s, chaos.Options{})
		row := ChaosRow{
			Seed:          seed,
			Writers:       s.Writers,
			Batches:       s.Batches,
			Pages:         s.Pages,
			FaultKinds:    s.FaultKinds(),
			ProgramFaults: res.FiredProgramFaults,
			EraseFaults:   res.FiredEraseFaults,
			Kills:         res.Kills,
			Recoveries:    res.Recoveries,
			Acked:         res.Acked,
			MediaAborts:   res.MediaAborts,
			VerifiedReads: res.VerifiedReads,
			Elapsed:       time.Since(t0),
			Violations:    res.Violations,
		}
		rep.Rows = append(rep.Rows, row)
		rep.Seeds++
		if !res.Failed() {
			rep.Passed++
		} else if logf != nil {
			logf("seed %d FAILED:\n  %s\nreplay: go test ./internal/chaos -run TestChaosReplay -chaos.seed=%d",
				seed, strings.Join(res.Violations, "\n  "), seed)
		}
		rep.ProgramFaults += res.FiredProgramFaults
		rep.EraseFaults += res.FiredEraseFaults
		rep.Kills += res.Kills
		rep.Recoveries += res.Recoveries
		rep.Acked += res.Acked
		rep.VerifiedReads += res.VerifiedReads
		rep.KindCoverage[s.FaultKinds()]++
		if logf != nil {
			logf("seed %d: %dw×%db kinds=%d pfault=%d efault=%d kills=%d recov=%d acked=%d reads=%d (%.1fs)",
				seed, s.Writers, s.Batches, s.FaultKinds(), res.FiredProgramFaults,
				res.FiredEraseFaults, res.Kills, res.Recoveries, res.Acked, res.VerifiedReads, row.Elapsed.Seconds())
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// PrintChaos renders the corpus table and coverage summary.
func PrintChaos(w io.Writer, rep ChaosReport) {
	fmt.Fprintln(w, "Chaos corpus (seeded fault schedules, full invariant check per schedule)")
	fmt.Fprintf(w, "%6s %8s %8s %6s %7s %7s %6s %6s %7s %8s %7s\n",
		"seed", "writers", "batches", "kinds", "pfault", "efault", "kills", "recov", "acked", "elapsed", "result")
	for _, r := range rep.Rows {
		result := "pass"
		if len(r.Violations) > 0 {
			result = "FAIL"
		}
		fmt.Fprintf(w, "%6d %8d %8d %6d %7d %7d %6d %6d %7d %7.1fs %7s\n",
			r.Seed, r.Writers, r.Batches, r.FaultKinds, r.ProgramFaults,
			r.EraseFaults, r.Kills, r.Recoveries, r.Acked, r.Elapsed.Seconds(), result)
	}
	fmt.Fprintf(w, "\n%d/%d schedules passed in %.1fs; fired %d program faults, %d erase faults, %d connection kills, %d crash-recover loops; %d batches acked, %d reader-verified reads\n",
		rep.Passed, rep.Seeds, rep.Elapsed.Seconds(),
		rep.ProgramFaults, rep.EraseFaults, rep.Kills, rep.Recoveries, rep.Acked, rep.VerifiedReads)
	fmt.Fprintf(w, "fault-kind mix:")
	for k := 1; k <= 4; k++ {
		fmt.Fprintf(w, " %d-kind=%d", k, rep.KindCoverage[k])
	}
	fmt.Fprintln(w)
	if rep.Failed() {
		fmt.Fprintln(w, "replay any failing seed: go test ./internal/chaos -run TestChaosReplay -chaos.seed=N")
	}
}

// chaosJSONRow flattens a ChaosRow with stable, unit-explicit fields.
type chaosJSONRow struct {
	Seed          int64    `json:"seed"`
	Writers       int      `json:"writers"`
	Batches       int      `json:"batches_per_writer"`
	Pages         int      `json:"pages_per_batch"`
	FaultKinds    int      `json:"fault_kinds"`
	ProgramFaults int64    `json:"program_faults_fired"`
	EraseFaults   int64    `json:"erase_faults_fired"`
	Kills         int      `json:"connection_kills"`
	Recoveries    int      `json:"crash_recoveries"`
	Acked         int64    `json:"batches_acked"`
	MediaAborts   int64    `json:"media_aborts_observed"`
	VerifiedReads int64    `json:"reader_verified_reads"`
	ElapsedMS     float64  `json:"elapsed_ms"`
	Violations    []string `json:"violations,omitempty"`
}

// WriteChaosJSON emits the corpus report as BENCH_chaos.json so the
// robustness surface joins the recorded experiment trajectory.
func WriteChaosJSON(path string, rep ChaosReport) error {
	doc := struct {
		Experiment    string         `json:"experiment"`
		Seeds         int            `json:"seeds"`
		Passed        int            `json:"passed"`
		ProgramFaults int64          `json:"program_faults_fired"`
		EraseFaults   int64          `json:"erase_faults_fired"`
		Kills         int            `json:"connection_kills"`
		Recoveries    int            `json:"crash_recoveries"`
		Acked         int64          `json:"batches_acked"`
		VerifiedReads int64          `json:"reader_verified_reads"`
		ElapsedMS     float64        `json:"elapsed_ms"`
		Rows          []chaosJSONRow `json:"rows"`
	}{
		Experiment:    "chaos",
		Seeds:         rep.Seeds,
		Passed:        rep.Passed,
		ProgramFaults: rep.ProgramFaults,
		EraseFaults:   rep.EraseFaults,
		Kills:         rep.Kills,
		Recoveries:    rep.Recoveries,
		Acked:         rep.Acked,
		VerifiedReads: rep.VerifiedReads,
		ElapsedMS:     float64(rep.Elapsed.Microseconds()) / 1000,
	}
	for _, r := range rep.Rows {
		doc.Rows = append(doc.Rows, chaosJSONRow{
			Seed:          r.Seed,
			Writers:       r.Writers,
			Batches:       r.Batches,
			Pages:         r.Pages,
			FaultKinds:    r.FaultKinds,
			ProgramFaults: r.ProgramFaults,
			EraseFaults:   r.EraseFaults,
			Kills:         r.Kills,
			Recoveries:    r.Recoveries,
			Acked:         r.Acked,
			MediaAborts:   r.MediaAborts,
			VerifiedReads: r.VerifiedReads,
			ElapsedMS:     float64(r.Elapsed.Microseconds()) / 1000,
			Violations:    r.Violations,
		})
	}
	return writeJSON(path, doc)
}
