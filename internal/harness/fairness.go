package harness

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/qos"
	"eleos/internal/server"
)

// The fairness experiment measures what per-tenant QoS admission buys a
// well-behaved tenant under a noisy neighbor (DESIGN.md §10). Three arms
// over loopback TCP, each on a fresh device:
//
//   - solo:  the quiet tenant alone — the baseline its latency is judged
//     against.
//   - qos:   the quiet tenant racing aggressor connections that stream
//     large batches under one "noisy" tenant tag, with the server's
//     per-tenant admission enabled: the noisy tenant is rate-shaped and
//     budget-capped, the quiet tenant is unlimited.
//   - noqos: the identical mixed load with admission disabled — the
//     control arm showing the interference QoS removes.
//
// The headline number is the quiet tenant's p99 flush latency per arm;
// the CI gate bounds qos-arm p99 as a multiple of solo p99. The NAND
// emulates channel occupancy in real time (wall scale 1), so the noisy
// tenant really does queue the device the way a tenant does in
// production — without QoS the quiet tenant's flushes sit behind tens of
// 64 KB programs, with QoS the noisy tenant waits at the door instead.

// FairnessResult holds the three arms' quiet-tenant latency profiles.
type FairnessResult struct {
	QuietBatches int
	Aggressors   int

	SoloP50, SoloP95, SoloP99    time.Duration
	QoSP50, QoSP95, QoSP99       time.Duration
	NoQoSP50, NoQoSP95, NoQoSP99 time.Duration

	// P99 inflation of each contended arm over solo.
	QoSInflation   float64
	NoQoSInflation float64

	// NoisyThrottled counts the qos arm's admission throttle events —
	// nonzero proves the brake actually engaged.
	NoisyThrottled int64
	// NoisyAdmitted is the qos arm's noisy-tenant admitted bytes.
	NoisyAdmitted int64
}

const (
	fairQuietTenant = "quiet"
	fairNoisyTenant = "noisy"

	fairQuietPages     = 2
	fairQuietPageBytes = 1536
	fairNoisyPages     = 16
	fairNoisyPageBytes = 4096

	// Noisy-tenant limits for the qos arm: ~2 MB/s sustained across all
	// aggressor connections (the bucket is per tenant, not per
	// connection) with a budget of four batches in flight.
	fairNoisyRate   = 2 << 20
	fairNoisyBurst  = 128 << 10
	fairNoisyBudget = 256 << 10
)

// RunFairness executes the three arms and derives the inflation ratios.
func RunFairness(quietBatches, aggressors int) (FairnessResult, error) {
	res := FairnessResult{QuietBatches: quietBatches, Aggressors: aggressors}

	solo, _, err := runFairnessArm(quietBatches, 0, false)
	if err != nil {
		return res, fmt.Errorf("solo arm: %w", err)
	}
	res.SoloP50, res.SoloP95, res.SoloP99 = latProfile(solo)

	withQoS, noisy, err := runFairnessArm(quietBatches, aggressors, true)
	if err != nil {
		return res, fmt.Errorf("qos arm: %w", err)
	}
	res.QoSP50, res.QoSP95, res.QoSP99 = latProfile(withQoS)
	res.NoisyThrottled = noisy.ThrottledCount
	res.NoisyAdmitted = noisy.AdmittedBytes

	without, _, err := runFairnessArm(quietBatches, aggressors, false)
	if err != nil {
		return res, fmt.Errorf("noqos arm: %w", err)
	}
	res.NoQoSP50, res.NoQoSP95, res.NoQoSP99 = latProfile(without)

	if res.SoloP99 > 0 {
		res.QoSInflation = float64(res.QoSP99) / float64(res.SoloP99)
		res.NoQoSInflation = float64(res.NoQoSP99) / float64(res.SoloP99)
	}
	return res, nil
}

func latProfile(lats []time.Duration) (p50, p95, p99 time.Duration) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return percentile(lats, 50), percentile(lats, 95), percentile(lats, 99)
}

// percentile returns the p-th percentile of sorted durations
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// runFairnessArm serves a fresh device over loopback TCP and returns the
// quiet tenant's per-flush latencies, plus the noisy tenant's admission
// stats when QoS ran.
func runFairnessArm(quietBatches, aggressors int, enableQoS bool) ([]time.Duration, qos.TenantStats, error) {
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 64,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	dev := flash.MustNewDevice(geo, flash.TypicalNANDLatency())
	dev.SetWallLatencyScale(1)
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = 16 << 20
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		return nil, qos.TenantStats{}, err
	}
	scfg := server.Config{MaxConns: aggressors + 4}
	if enableQoS {
		scfg.QoS = qos.Config{
			Enabled: true,
			Tenants: map[string]qos.Limits{
				fairNoisyTenant: {
					RateBytesPerSec:  fairNoisyRate,
					BurstBytes:       fairNoisyBurst,
					MaxInflightBytes: fairNoisyBudget,
				},
			},
		}
	}
	srv := server.New(ctl, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, qos.TenantStats{}, err
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	}()

	// Aggressors: closed-loop large-batch writers under the noisy tenant,
	// running until the quiet tenant finishes its batches.
	var stop atomic.Bool
	noisyData := make([]byte, fairNoisyPageBytes)
	errs := make(chan error, aggressors+1)
	var wg sync.WaitGroup
	for a := 0; a < aggressors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			cl, err := client.Dial(ln.Addr().String(), client.Options{Seed: int64(a + 100)})
			if err != nil {
				errs <- fmt.Errorf("aggressor %d: %w", a, err)
				return
			}
			defer cl.Close()
			sess, err := cl.NewSessionTenant(fairNoisyTenant, 0)
			if err != nil {
				errs <- fmt.Errorf("aggressor %d: %w", a, err)
				return
			}
			base := uint64(a+1) * 10_000_000
			batch := make([]core.LPage, fairNoisyPages)
			for i := 0; !stop.Load(); i++ {
				for j := range batch {
					lpid := base + uint64((i*fairNoisyPages+j)%4000)
					batch[j] = core.LPage{LPID: addr.LPID(lpid), Data: noisyData}
				}
				if err := sess.Flush(batch); err != nil {
					if !stop.Load() {
						errs <- fmt.Errorf("aggressor %d: %w", a, err)
					}
					return
				}
			}
		}(a)
	}

	// Quiet tenant: one connection, small paced batches, at the highest
	// priority (head of its own tenant queue; it shares no budget with
	// the noisy tenant, so under QoS its only contention is real device
	// time).
	lats := make([]time.Duration, 0, quietBatches)
	quietData := make([]byte, fairQuietPageBytes)
	func() {
		defer stop.Store(true)
		cl, err := client.Dial(ln.Addr().String(), client.Options{Seed: 1})
		if err != nil {
			errs <- fmt.Errorf("quiet: %w", err)
			return
		}
		defer cl.Close()
		sess, err := cl.NewSessionTenant(fairQuietTenant, 200)
		if err != nil {
			errs <- fmt.Errorf("quiet: %w", err)
			return
		}
		batch := make([]core.LPage, fairQuietPages)
		for i := 0; i < quietBatches; i++ {
			for j := range batch {
				batch[j] = core.LPage{LPID: addr.LPID(uint64(1_000_000 + (i*fairQuietPages+j)%500)), Data: quietData}
			}
			t0 := time.Now()
			if err := sess.Flush(batch); err != nil {
				errs <- fmt.Errorf("quiet batch %d: %w", i, err)
				return
			}
			lats = append(lats, time.Since(t0))
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, qos.TenantStats{}, err
	}

	var noisy qos.TenantStats
	if enableQoS {
		noisy = srv.QoSStats()[fairNoisyTenant]
	}
	return lats, noisy, nil
}

// PrintFairness renders the three-arm comparison.
func PrintFairness(w io.Writer, r FairnessResult) {
	fmt.Fprintln(w, "Multi-tenant fairness (loopback TCP, quiet tenant vs noisy neighbor, wall clock)")
	fmt.Fprintf(w, "quiet: %d batches of %d×%dB   noisy: %d aggressors, %d×%dB batches, qos rate %d B/s budget %d B\n",
		r.QuietBatches, fairQuietPages, fairQuietPageBytes,
		r.Aggressors, fairNoisyPages, fairNoisyPageBytes, int64(fairNoisyRate), int64(fairNoisyBudget))
	fmt.Fprintf(w, "%10s %10s %10s %10s %12s\n", "arm", "p50", "p95", "p99", "p99 vs solo")
	row := func(name string, p50, p95, p99 time.Duration, inf float64) {
		rel := "—"
		if inf > 0 {
			rel = fmt.Sprintf("%.2fx", inf)
		}
		fmt.Fprintf(w, "%10s %10s %10s %10s %12s\n", name,
			p50.Round(10*time.Microsecond), p95.Round(10*time.Microsecond),
			p99.Round(10*time.Microsecond), rel)
	}
	row("solo", r.SoloP50, r.SoloP95, r.SoloP99, 0)
	row("qos", r.QoSP50, r.QoSP95, r.QoSP99, r.QoSInflation)
	row("no-qos", r.NoQoSP50, r.NoQoSP95, r.NoQoSP99, r.NoQoSInflation)
	fmt.Fprintf(w, "noisy tenant under qos: %d bytes admitted, throttled %d times\n",
		r.NoisyAdmitted, r.NoisyThrottled)
}

// WriteFairnessJSON records the result as BENCH_fairness.json for the
// perf trajectory (and the EXPERIMENTS.md fairness section).
func WriteFairnessJSON(path string, r FairnessResult) error {
	doc := struct {
		Experiment     string  `json:"experiment"`
		Transport      string  `json:"transport"`
		QuietBatches   int     `json:"quiet_batches"`
		Aggressors     int     `json:"aggressors"`
		NoisyRateBPS   int64   `json:"noisy_rate_bytes_per_sec"`
		NoisyBudget    int64   `json:"noisy_budget_bytes"`
		SoloP50Micros  int64   `json:"solo_p50_us"`
		SoloP95Micros  int64   `json:"solo_p95_us"`
		SoloP99Micros  int64   `json:"solo_p99_us"`
		QoSP50Micros   int64   `json:"qos_p50_us"`
		QoSP95Micros   int64   `json:"qos_p95_us"`
		QoSP99Micros   int64   `json:"qos_p99_us"`
		NoQoSP50us     int64   `json:"noqos_p50_us"`
		NoQoSP95us     int64   `json:"noqos_p95_us"`
		NoQoSP99us     int64   `json:"noqos_p99_us"`
		QoSInflation   float64 `json:"qos_p99_inflation"`
		NoQoSInflation float64 `json:"noqos_p99_inflation"`
		NoisyThrottled int64   `json:"noisy_throttled"`
		NoisyAdmitted  int64   `json:"noisy_admitted_bytes"`
	}{
		Experiment:     "fairness",
		Transport:      "tcp-loopback",
		QuietBatches:   r.QuietBatches,
		Aggressors:     r.Aggressors,
		NoisyRateBPS:   fairNoisyRate,
		NoisyBudget:    fairNoisyBudget,
		SoloP50Micros:  r.SoloP50.Microseconds(),
		SoloP95Micros:  r.SoloP95.Microseconds(),
		SoloP99Micros:  r.SoloP99.Microseconds(),
		QoSP50Micros:   r.QoSP50.Microseconds(),
		QoSP95Micros:   r.QoSP95.Microseconds(),
		QoSP99Micros:   r.QoSP99.Microseconds(),
		NoQoSP50us:     r.NoQoSP50.Microseconds(),
		NoQoSP95us:     r.NoQoSP95.Microseconds(),
		NoQoSP99us:     r.NoQoSP99.Microseconds(),
		QoSInflation:   r.QoSInflation,
		NoQoSInflation: r.NoQoSInflation,
		NoisyThrottled: r.NoisyThrottled,
		NoisyAdmitted:  r.NoisyAdmitted,
	}
	return writeJSON(path, doc)
}
