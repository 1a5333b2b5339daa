package harness

import (
	"fmt"
	"io"
	"math/rand"

	"eleos/internal/addr"
	"eleos/internal/core"
	"eleos/internal/flash"
	gcpolicy "eleos/internal/gc"
)

// GCAblationOptions configures the design-choice ablations DESIGN.md calls
// out: the GC victim-selection policy (§VI-A) and the number of open GC
// EBLOCKs used for hot/cold separation (§VI-B).
type GCAblationOptions struct {
	Policy    gcpolicy.Policy // nil: the controller's default
	GCBuckets int
	// Batches of hot/cold skewed updates to run.
	Batches int
	Seed    int64
}

// GCAblationResult measures the cost of the chosen policy.
type GCAblationResult struct {
	Policy       gcpolicy.Policy
	GCBuckets    int
	LogicalBytes int64   // bytes the host asked to store
	FlashBytes   int64   // bytes physically programmed
	WriteAmp     float64 // FlashBytes / LogicalBytes
	GCPagesMoved int64
	GCBytesMoved int64
	EBlocksFreed int64
}

// RunGCAblation churns a skewed hot/cold update mix over a
// capacity-constrained device and reports write amplification — the
// metric the victim-selection and hot/cold-separation choices exist to
// minimise.
func RunGCAblation(o GCAblationOptions) (*GCAblationResult, error) {
	if o.Batches <= 0 {
		o.Batches = 800
	}
	if o.GCBuckets <= 0 {
		o.GCBuckets = 3
	}
	geo := flash.Geometry{
		Channels: 4, EBlocksPerChannel: 32,
		EBlockBytes: 256 << 10, WBlockBytes: 16 << 10, RBlockBytes: 4 << 10,
	}
	dev, err := flash.NewDevice(geo, flash.Latency{})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.GCPolicy = o.Policy
	cfg.Provision.GCBuckets = o.GCBuckets
	cfg.GCFreeFraction = 0.12
	// Oldest-first must be allowed to cycle through live cold EBLOCKs
	// (zero net gain per round) before reaching garbage-rich ones — the
	// very pathology §VI-A describes.
	cfg.GCMaxRounds = 64
	cfg.AutoCheckpointLogBytes = 2 << 20
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		return nil, err
	}

	// Three temperature classes (§VI-A's E1/E2 example, §VI-B's ages):
	// hot pages churn every batch, warm pages are rewritten occasionally,
	// and cold pages drip in once and then live forever. The cold data is
	// what GC keeps relocating; keeping it out of the warm/hot destination
	// EBLOCKs (bucket separation) and not collecting it prematurely
	// (victim selection) are what the design choices buy.
	rng := rand.New(rand.NewSource(o.Seed + 11))
	const (
		hotPages  = 50
		warmPages = 250
		coldPages = 1000
		pageBytes = 2048
		perBatch  = 16
	)
	payload := make([]byte, pageBytes)
	coldCursor := 0
	for b := 0; b < o.Batches; b++ {
		var batch []core.LPage
		for k := 0; k < perBatch; k++ {
			var lpid addr.LPID
			switch {
			case k == 0 && b%2 == 0:
				lpid = addr.LPID(10_000 + coldCursor%coldPages) // cold drip
				coldCursor++
			case k < 4:
				lpid = addr.LPID(5_000 + rng.Intn(warmPages)) // warm
			default:
				lpid = addr.LPID(1 + rng.Intn(hotPages)) // hot churn
			}
			rng.Read(payload[:16])
			batch = append(batch, core.LPage{LPID: lpid, Data: payload})
		}
		if err := ctl.WriteBatch(0, 0, batch); err != nil {
			return nil, fmt.Errorf("ablation batch %d: %w", b, err)
		}
	}
	s := ctl.Stats()
	d := dev.Stats()
	res := &GCAblationResult{
		Policy:       o.Policy,
		GCBuckets:    o.GCBuckets,
		LogicalBytes: s.BytesStored,
		FlashBytes:   d.BytesWritten,
		GCPagesMoved: s.GCPagesMoved,
		GCBytesMoved: s.GCBytesMoved,
		EBlocksFreed: s.GCEBlocksFreed,
	}
	if res.LogicalBytes > 0 {
		res.WriteAmp = float64(res.FlashBytes) / float64(res.LogicalBytes)
	}
	return res, nil
}

// PrintGCAblation renders the two ablations DESIGN.md calls out.
func PrintGCAblation(w io.Writer, batches int, seed int64) error {
	fmt.Fprintf(w, "Ablation — GC victim selection (§VI-A) under skewed hot/cold churn\n\n")
	fmt.Fprintf(w, "%-18s %10s %14s %14s %10s\n", "policy", "write-amp", "pages moved", "bytes moved", "erases")
	for _, p := range []gcpolicy.Policy{gcpolicy.MinCostDecline{}, gcpolicy.Greedy{}, gcpolicy.Oldest{}} {
		res, err := RunGCAblation(GCAblationOptions{Policy: p, GCBuckets: 3, Batches: batches, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s %10.3f %14d %13.1fM %10d\n",
			res.Policy.Name(), res.WriteAmp, res.GCPagesMoved, float64(res.GCBytesMoved)/(1<<20), res.EBlocksFreed)
	}
	fmt.Fprintf(w, "\nAblation — hot/cold separation (§VI-B): open GC EBLOCKs per channel\n\n")
	fmt.Fprintf(w, "%-18s %10s %14s %14s\n", "gc buckets", "write-amp", "pages moved", "bytes moved")
	for _, buckets := range []int{1, 2, 3} {
		res, err := RunGCAblation(GCAblationOptions{GCBuckets: buckets, Batches: batches, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18d %10.3f %14d %13.1fM\n",
			res.GCBuckets, res.WriteAmp, res.GCPagesMoved, float64(res.GCBytesMoved)/(1<<20))
	}
	return nil
}
