package harness

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"eleos/internal/flash"
	"eleos/internal/nvme"
	"eleos/internal/tpcc"
)

var (
	traceOnce sync.Once
	traceVal  *tpcc.Trace
	traceErr  error
)

func testTrace(t *testing.T) *tpcc.Trace {
	t.Helper()
	traceOnce.Do(func() {
		cfg := tpcc.Config{Warehouses: 1, DistrictsPerWH: 4, CustomersPerDistrict: 100, ItemsPerWarehouse: 300, Seed: 1}
		traceVal, traceErr = tpcc.Collect(tpcc.CollectOptions{
			Config: cfg, Transactions: 2500, CacheBytes: 128 << 10,
		})
	})
	if traceErr != nil {
		t.Fatal(traceErr)
	}
	return traceVal
}

// TestCollectDefaultTraceDeterministic pins the input of Fig. 9 and
// Table II: the trace benchrunner collects is the same write for write
// on every collection, so the figures' Batch columns can be compared
// byte for byte across runs and builds.
func TestCollectDefaultTraceDeterministic(t *testing.T) {
	a, err := CollectDefaultTrace(400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectDefaultTrace(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Writes) == 0 || !slices.Equal(a.Writes, b.Writes) || a.PageBytes != b.PageBytes {
		t.Fatalf("two collections differ: %d vs %d writes", len(a.Writes), len(b.Writes))
	}
}

func TestReplayAllInterfaces(t *testing.T) {
	tr := testTrace(t)
	for _, iface := range Interfaces {
		res, err := ReplayTPCC(ReplayOptions{
			Trace: tr, Interface: iface, BufferBytes: 256 << 10,
			Profile: nvme.STT100(), Latency: flash.TypicalNANDLatency(),
		})
		if err != nil {
			t.Fatalf("%v: %v", iface, err)
		}
		if res.PagesPerSec <= 0 || res.Elapsed <= 0 {
			t.Fatalf("%v: empty result %+v", iface, res)
		}
		if res.Pages != len(tr.Writes) {
			t.Fatalf("%v: replayed %d of %d pages", iface, res.Pages, len(tr.Writes))
		}
	}
}

func TestFig9Shape(t *testing.T) {
	tr := testTrace(t)
	rows, err := RunFig9(tr, []int{128 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		b, fp, vp := r.Results[Block], r.Results[BatchFP], r.Results[BatchVP]
		// Batching beats block-at-a-time.
		if fp.PagesPerSec <= b.PagesPerSec {
			t.Fatalf("buffer %d: FP (%.0f) should beat Block (%.0f)", r.BufferBytes, fp.PagesPerSec, b.PagesPerSec)
		}
		// Variable pages beat fixed pages (less data written per page).
		if vp.PagesPerSec <= fp.PagesPerSec {
			t.Fatalf("buffer %d: VP (%.0f) should beat FP (%.0f)", r.BufferBytes, vp.PagesPerSec, fp.PagesPerSec)
		}
		// The paper finds VP ~2x FP; accept a broad band.
		if ra := vp.PagesPerSec / fp.PagesPerSec; ra < 1.3 || ra > 3.5 {
			t.Fatalf("buffer %d: VP/FP ratio %.2f outside the paper's ~2x ballpark", r.BufferBytes, ra)
		}
	}
	// Larger buffers help the batch interface.
	if rows[1].Results[BatchVP].PagesPerSec < rows[0].Results[BatchVP].PagesPerSec {
		t.Fatal("VP throughput should not fall with a larger buffer")
	}
	var buf bytes.Buffer
	PrintFig9(&buf, tr, rows)
	if !strings.Contains(buf.String(), "Fig. 9") {
		t.Fatal("print output malformed")
	}
}

func TestTable2Shape(t *testing.T) {
	tr := testTrace(t)
	res, err := RunTable2(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, fp, vp := res.Results[Block], res.Results[BatchFP], res.Results[BatchVP]
	// Paper: batch ~4.8-8.5x block in pages/sec; VP ~1.76x FP.
	if r := fp.PagesPerSec / b.PagesPerSec; r < 2.5 || r > 20 {
		t.Fatalf("FP/Block ratio %.1f outside Table II ballpark", r)
	}
	if r := vp.PagesPerSec / fp.PagesPerSec; r < 1.3 || r > 3 {
		t.Fatalf("VP/FP ratio %.1f outside Table II ballpark", r)
	}
	// FP moves more bytes for the same pages (padding), so its bandwidth
	// should be at least VP's.
	if fp.MBPerSec < vp.MBPerSec*0.8 {
		t.Fatalf("FP bandwidth (%.0f) suspiciously below VP (%.0f)", fp.MBPerSec, vp.MBPerSec)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, res)
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("print output malformed")
	}
}

func TestYCSBRunBasic(t *testing.T) {
	for _, iface := range Interfaces {
		res, err := RunYCSB(YCSBOptions{
			Interface: iface, Records: 3000, Ops: 4000, CachePct: 25,
			Profile: nvme.STT100(), Latency: flash.TypicalNANDLatency(), Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", iface, err)
		}
		if res.OpsPerSec <= 0 || res.BytesWritten <= 0 {
			t.Fatalf("%v: empty result %+v", iface, res)
		}
	}
}

func TestFig10aShape(t *testing.T) {
	rows, err := RunFig10a(6000, 8000, []int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	for _, iface := range Interfaces {
		// Bigger cache, higher throughput.
		if large.Results[iface].OpsPerSec <= small.Results[iface].OpsPerSec {
			t.Fatalf("%v: throughput should grow with cache", iface)
		}
	}
	// Batch outperforms Block at the small cache (the write-heavy regime).
	if small.Results[BatchVP].OpsPerSec <= small.Results[Block].OpsPerSec {
		t.Fatalf("VP (%.0f) should beat Block (%.0f) at 10%% cache",
			small.Results[BatchVP].OpsPerSec, small.Results[Block].OpsPerSec)
	}
	// Fig 10(b): VP writes meaningfully less than FP.
	vpB := small.Results[BatchVP].BytesWritten
	fpB := small.Results[BatchFP].BytesWritten
	if vpB >= fpB {
		t.Fatalf("VP bytes (%d) should be below FP (%d)", vpB, fpB)
	}
	saving := 1 - float64(vpB)/float64(fpB)
	if saving < 0.10 || saving > 0.60 {
		t.Fatalf("VP saving %.0f%% outside the paper's ~30%% ballpark", saving*100)
	}
	var buf bytes.Buffer
	PrintFig10a(&buf, rows)
	PrintFig10b(&buf, rows)
	if !strings.Contains(buf.String(), "Fig. 10(a)") || !strings.Contains(buf.String(), "Fig. 10(b)") {
		t.Fatal("print output malformed")
	}
}

func TestFig10cShape(t *testing.T) {
	res, err := RunFig10c(6000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	declines := map[Interface]float64{}
	for _, iface := range Interfaces {
		off, on := res.Off[iface], res.On[iface]
		if off.OpsPerSec <= 0 || on.OpsPerSec <= 0 {
			t.Fatalf("%v: empty results", iface)
		}
		declines[iface] = 1 - on.OpsPerSec/off.OpsPerSec
	}
	// The paper's key result: Block suffers far more from GC than VP.
	if declines[Block] <= declines[BatchVP] {
		t.Fatalf("Block decline (%.1f%%) should exceed VP (%.1f%%)",
			declines[Block]*100, declines[BatchVP]*100)
	}
	var buf bytes.Buffer
	PrintFig10c(&buf, res)
	if !strings.Contains(buf.String(), "Fig. 10(c)") {
		t.Fatal("print output malformed")
	}
}

func TestFig1Print(t *testing.T) {
	var buf bytes.Buffer
	PrintFig1(&buf)
	out := buf.String()
	if !strings.Contains(out, "crossover") || !strings.Contains(out, "Fig. 1(c)") {
		t.Fatalf("fig1 output malformed:\n%s", out)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := ReplayTPCC(ReplayOptions{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := RunYCSB(YCSBOptions{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestDurabilityExtension(t *testing.T) {
	res, err := RunDurability(5000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockDurable.OpsPerSec <= 0 || res.BatchVP.OpsPerSec <= 0 {
		t.Fatal("empty results")
	}
	// Durable host mapping can only cost throughput, never gain it.
	if res.BlockDurable.OpsPerSec > res.BlockNoDurability.OpsPerSec*1.01 {
		t.Fatalf("durable mapping faster than volatile: %.0f vs %.0f",
			res.BlockDurable.OpsPerSec, res.BlockNoDurability.OpsPerSec)
	}
	var buf bytes.Buffer
	PrintDurability(&buf, res)
	if !strings.Contains(buf.String(), "durability") {
		t.Fatal("print malformed")
	}
}
