package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/health"
)

// The waf experiment measures end-to-end write amplification the way the
// telemetry pipeline reports it: WAF = flash.programmed_bytes /
// core.write.bytes_accepted out of the metrics registry, reconciled
// exactly against the device's own program ledger and the per-source
// attribution counters. Two workload arms:
//
//   - sequential: cyclic ascending overwrites of a bounded keyspace —
//     pages die in exactly the order they were written, so reclaimed
//     EBLOCKs are all dead and GC relocates nothing. The WAF floor is
//     set by stripe padding plus checkpoint/WAL metadata.
//   - btree-churn: uniformly random updates of the same keyspace at the
//     same volume — the B-tree page-churn case the paper targets, where
//     every reclaimed EBLOCK still holds valid pages and victim
//     selection decides how many ride along.
//
// Both arms write the same bytes over the same keyspace on the same
// capacity-constrained device; only the update order differs, so the
// WAF delta is pure GC relocation cost.
//
// The churn arm moves with GC victim selection, hot/cold separation and
// attribution; the sequential floor, where GC moves nothing, with stripe
// padding and log and checkpoint bytes. The workload is deterministic, so
// TestWAFGolden holds the result document to BENCH_waf.json byte for byte.

// WAFArm is one workload's run with its reconciled accounting.
type WAFArm struct {
	Workload string `json:"workload"` // "sequential" | "btree-churn"

	UserBytes  int64   `json:"user_bytes"`  // core.write.bytes_accepted
	FlashBytes int64   `json:"flash_bytes"` // flash.programmed_bytes == device BytesWritten
	WAF        float64 `json:"waf"`         // FlashBytes / UserBytes

	// Per-source split of FlashBytes (user/gc/checkpoint/wal/recovery).
	SourceBytes  map[string]int64 `json:"source_bytes"`
	GCMovedMB    float64          `json:"gc_moved_mb"`
	EBlocksFreed int64            `json:"eblocks_freed"`
	Erases       int64            `json:"erases"`
}

// WAFResult holds both arms: Arms[0] is sequential, Arms[1] btree-churn.
type WAFResult struct {
	Batches int
	Arms    []WAFArm
}

// wafGeometry is deliberately small: enough churn pressure to force
// steady-state GC in seconds. The keyspace in runWAFArm keeps 37.5 % of
// it live.
func wafGeometry() flash.Geometry {
	return flash.Geometry{
		Channels: 4, EBlocksPerChannel: 32,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
}

// runWAFArm executes one workload on a fresh device and reconciles the
// three accounting views before reporting.
func runWAFArm(workload string, batches int, seed int64) (WAFArm, error) {
	arm := WAFArm{Workload: workload}
	dev, err := flash.NewDevice(wafGeometry(), flash.Latency{})
	if err != nil {
		return arm, err
	}
	cfg := core.DefaultConfig()
	cfg.GCFreeFraction = 0.12
	cfg.GCMaxRounds = 64
	cfg.AutoCheckpointLogBytes = 2 << 20
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		return arm, err
	}

	rng := rand.New(rand.NewSource(seed))
	const (
		pageBytes = 2048
		perBatch  = 16
		keyspace  = 6000 // 12 MB live on 32 MB: every churn victim holds valid pages
	)
	payload := make([]byte, pageBytes)
	next := 0
	for b := 0; b < batches; b++ {
		var batch []core.LPage
		for k := 0; k < perBatch; k++ {
			var lpid addr.LPID
			if workload == "sequential" {
				lpid = addr.LPID(1 + next%keyspace)
				next++
			} else {
				lpid = addr.LPID(1 + rng.Intn(keyspace))
			}
			rng.Read(payload[:16])
			batch = append(batch, core.LPage{LPID: lpid, Data: payload})
		}
		if err := ctl.WriteBatch(0, 0, batch); err != nil {
			return arm, fmt.Errorf("%s batch %d: %w", workload, b, err)
		}
	}

	snap := ctl.MetricsSnapshot()
	d := dev.Stats()
	s := ctl.Stats()
	arm.UserBytes = snap.Counter("core.write.bytes_accepted")
	arm.FlashBytes = snap.Counter("flash.programmed_bytes")
	arm.SourceBytes = health.SourceBytes(snap)
	arm.GCMovedMB = float64(s.GCBytesMoved) / (1 << 20)
	arm.EBlocksFreed = s.GCEBlocksFreed
	arm.Erases = d.EraseAttempts

	// Reconcile: the registry counter, the device ledger, and the summed
	// source attribution must agree to the byte. The telemetry being
	// gated is only trustworthy if they do.
	if arm.FlashBytes != d.BytesWritten {
		return arm, fmt.Errorf("%s: flash.programmed_bytes %d != device ledger %d",
			workload, arm.FlashBytes, d.BytesWritten)
	}
	var srcSum int64
	for _, v := range arm.SourceBytes {
		srcSum += v
	}
	if srcSum != arm.FlashBytes {
		return arm, fmt.Errorf("%s: source attribution sums to %d, programmed %d",
			workload, srcSum, arm.FlashBytes)
	}
	if arm.UserBytes <= 0 {
		return arm, fmt.Errorf("%s: no accepted bytes recorded", workload)
	}
	arm.WAF = float64(arm.FlashBytes) / float64(arm.UserBytes)
	return arm, nil
}

// RunWAF executes the sequential arm, then the btree-churn arm.
func RunWAF(batches int, seed int64) (WAFResult, error) {
	res := WAFResult{Batches: batches}
	for _, workload := range []string{"sequential", "btree-churn"} {
		arm, err := runWAFArm(workload, batches, seed)
		if err != nil {
			return res, err
		}
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}

// PrintWAF renders the matrix with the per-source split that makes a WAF
// regression diagnosable at a glance.
func PrintWAF(w io.Writer, res WAFResult) {
	fmt.Fprintf(w, "WAF — write amplification by workload (%d batches/arm)\n\n", res.Batches)
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s %10s %8s %8s\n",
		"workload", "waf", "user MB", "flash MB", "gc MB", "ckpt MB", "freed", "erases")
	for _, a := range res.Arms {
		fmt.Fprintf(w, "%-12s %8.3f %10.1f %10.1f %10.1f %10.1f %8d %8d\n",
			a.Workload, a.WAF,
			float64(a.UserBytes)/(1<<20), float64(a.FlashBytes)/(1<<20),
			float64(a.SourceBytes["gc"])/(1<<20), float64(a.SourceBytes["checkpoint"])/(1<<20),
			a.EBlocksFreed, a.Erases)
	}
}

// WriteWAFJSON writes the result document, BENCH_waf.json's format.
func WriteWAFJSON(path string, res WAFResult) error {
	doc := struct {
		Experiment    string   `json:"experiment"`
		Batches       int      `json:"batches_per_arm"`
		GatedWAF      float64  `json:"gated_waf"`
		SequentialWAF float64  `json:"sequential_waf"`
		Arms          []WAFArm `json:"arms"`
	}{
		Experiment:    "waf",
		Batches:       res.Batches,
		GatedWAF:      res.Arms[1].WAF,
		SequentialWAF: res.Arms[0].WAF,
		Arms:          res.Arms,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
