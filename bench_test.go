package eleos_test

// Benchmarks regenerating the paper's evaluation (§IX): one benchmark per
// table and figure. Each reports the paper's own metrics (pages/sec,
// MB/sec, ops/sec) as custom benchmark outputs in *virtual* time — the
// deterministic resource model described in DESIGN.md — alongside the
// usual wall-clock ns/op of running the simulation itself.
//
// Run: go test -bench=. -benchmem

import (
	"sync"
	"testing"

	"eleos/internal/flash"
	gcpolicy "eleos/internal/gc"
	"eleos/internal/harness"
	"eleos/internal/nvme"
	"eleos/internal/tpcc"
)

var (
	benchTraceOnce sync.Once
	benchTrace     *tpcc.Trace
	benchTraceErr  error
)

func traceForBench(b *testing.B) *tpcc.Trace {
	b.Helper()
	benchTraceOnce.Do(func() {
		benchTrace, benchTraceErr = harness.CollectDefaultTrace(3000)
	})
	if benchTraceErr != nil {
		b.Fatal(benchTraceErr)
	}
	return benchTrace
}

// BenchmarkFig1CostModel regenerates the Fig. 1 cost/performance curves.
func BenchmarkFig1CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mem, ssd, red, x1, x2 := harness.RunFig1()
		if len(mem) == 0 || len(ssd) == 0 || len(red) == 0 || x2 <= x1 {
			b.Fatal("fig1 model broken")
		}
	}
}

// BenchmarkFig9TPCCWriteThroughput regenerates Fig. 9: TPC-C write
// throughput versus write-buffer size on the STT100 profile, one
// sub-benchmark per (interface, buffer size).
func BenchmarkFig9TPCCWriteThroughput(b *testing.B) {
	tr := traceForBench(b)
	lat := flash.TypicalNANDLatency()
	for _, size := range []int{256 << 10, 1 << 20, 4 << 20} {
		for _, iface := range harness.Interfaces {
			name := iface.String() + "/" + fmtSize(size)
			b.Run(name, func(b *testing.B) {
				var last *harness.ReplayResult
				for i := 0; i < b.N; i++ {
					res, err := harness.ReplayTPCC(harness.ReplayOptions{
						Trace: tr, Interface: iface, BufferBytes: size,
						Profile: nvme.STT100(), Latency: lat,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.PagesPerSec, "pages/sec")
				b.ReportMetric(last.MBPerSec, "MB/sec")
			})
		}
	}
}

// BenchmarkTable2HighEndCPU regenerates Table II: the same replay with a
// 1 MB buffer on the high-end-CPU profile.
func BenchmarkTable2HighEndCPU(b *testing.B) {
	tr := traceForBench(b)
	for _, iface := range harness.Interfaces {
		b.Run(iface.String(), func(b *testing.B) {
			var last *harness.ReplayResult
			for i := 0; i < b.N; i++ {
				res, err := harness.ReplayTPCC(harness.ReplayOptions{
					Trace: tr, Interface: iface, BufferBytes: 1 << 20,
					Profile: nvme.HighEnd(), Latency: flash.Latency{},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.PagesPerSec, "pages/sec")
			b.ReportMetric(last.MBPerSec, "MB/sec")
		})
	}
}

// BenchmarkFig10aBwTreeYCSB regenerates Fig. 10(a): Bw-tree YCSB
// throughput by cache size, GC quiet.
func BenchmarkFig10aBwTreeYCSB(b *testing.B) {
	for _, pct := range []int{10, 50, 100} {
		for _, iface := range harness.Interfaces {
			b.Run(iface.String()+"/cache"+itoa(pct), func(b *testing.B) {
				var last *harness.YCSBResult
				for i := 0; i < b.N; i++ {
					res, err := harness.RunYCSB(harness.YCSBOptions{
						Interface: iface, Records: 20_000, Ops: 20_000, CachePct: pct,
						Profile: nvme.STT100(), Latency: flash.TypicalNANDLatency(), Seed: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.OpsPerSec, "ops/sec")
			})
		}
	}
}

// BenchmarkFig10bDataWritten regenerates Fig. 10(b): total data written to
// the SSD at the 10% cache point.
func BenchmarkFig10bDataWritten(b *testing.B) {
	for _, iface := range harness.Interfaces {
		b.Run(iface.String(), func(b *testing.B) {
			var last *harness.YCSBResult
			for i := 0; i < b.N; i++ {
				res, err := harness.RunYCSB(harness.YCSBOptions{
					Interface: iface, Records: 20_000, Ops: 20_000, CachePct: 10,
					Profile: nvme.STT100(), Latency: flash.TypicalNANDLatency(), Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.BytesWritten)/(1<<20), "MB-written")
		})
	}
}

// BenchmarkFig10cGarbageCollection regenerates Fig. 10(c): throughput with
// GC enabled at 10% cache.
func BenchmarkFig10cGarbageCollection(b *testing.B) {
	for _, iface := range harness.Interfaces {
		for _, gc := range []bool{false, true} {
			name := iface.String() + "/gc-off"
			if gc {
				name = iface.String() + "/gc-on"
			}
			b.Run(name, func(b *testing.B) {
				var last *harness.YCSBResult
				for i := 0; i < b.N; i++ {
					res, err := harness.RunYCSB(harness.YCSBOptions{
						Interface: iface, Records: 20_000, Ops: 25_000, CachePct: 10,
						Profile: nvme.STT100(), Latency: flash.TypicalNANDLatency(),
						GCEnabled: gc, Seed: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.OpsPerSec, "ops/sec")
				b.ReportMetric(float64(last.GCWork), "gc-pages-moved")
			})
		}
	}
}

// BenchmarkAblationGCPolicy compares the paper's minimum-cost-decline
// victim selection (§VI-A) against greedy and oldest-first under skewed
// hot/cold churn, reporting write amplification and GC data movement.
func BenchmarkAblationGCPolicy(b *testing.B) {
	for _, p := range []gcpolicy.Policy{gcpolicy.MinCostDecline{}, gcpolicy.Greedy{}, gcpolicy.Oldest{}} {
		b.Run(p.Name(), func(b *testing.B) {
			var last *harness.GCAblationResult
			for i := 0; i < b.N; i++ {
				res, err := harness.RunGCAblation(harness.GCAblationOptions{
					Policy: p, GCBuckets: 3, Batches: 900, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.WriteAmp, "write-amp")
			b.ReportMetric(float64(last.GCBytesMoved)/(1<<20), "MB-moved")
		})
	}
}

// BenchmarkAblationHotColdBuckets compares 1 vs 3 open GC EBLOCKs per
// channel (§VI-B's cold/hot separation).
func BenchmarkAblationHotColdBuckets(b *testing.B) {
	for _, buckets := range []int{1, 3} {
		b.Run("buckets"+itoa(buckets), func(b *testing.B) {
			var last *harness.GCAblationResult
			for i := 0; i < b.N; i++ {
				res, err := harness.RunGCAblation(harness.GCAblationOptions{
					GCBuckets: buckets, Batches: 900, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.WriteAmp, "write-amp")
			b.ReportMetric(float64(last.GCBytesMoved)/(1<<20), "MB-moved")
		})
	}
}

func fmtSize(n int) string {
	if n >= 1<<20 {
		return itoa(n>>20) + "MB"
	}
	return itoa(n>>10) + "KB"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
