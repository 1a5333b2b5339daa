package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if r.Gauge("g") != g {
		t.Fatal("Gauge not get-or-create")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBounds())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	// Nil handles must be safe to record into.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	h.ObserveDuration(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments returned nonzero values")
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hv := snap.Histogram("h")
	if hv == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if hv.Count != 5 {
		t.Fatalf("count = %d, want 5", hv.Count)
	}
	if hv.Sum != 1+10+11+100+5000 {
		t.Fatalf("sum = %d", hv.Sum)
	}
	want := []int64{2, 2, 0, 1} // (<=10)x2, (<=100)x2, (<=1000)x0, overflow x1
	for i, b := range hv.Buckets {
		if b != want[i] {
			t.Fatalf("buckets = %v, want %v", hv.Buckets, want)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	r := New()
	h := r.Histogram("h", []int64{100, 200, 300, 400})
	// 100 uniform observations into (100,200]: quantiles interpolate there.
	for i := 0; i < 100; i++ {
		h.Observe(150)
	}
	hv := r.Snapshot().Histogram("h")
	if hv.P50 < 100 || hv.P50 > 200 {
		t.Fatalf("p50 = %v, want within (100,200]", hv.P50)
	}
	if hv.P99 < hv.P50 {
		t.Fatalf("p99 %v < p50 %v", hv.P99, hv.P50)
	}
	// Overflow-only observations clamp to the last bound.
	h2 := r.Histogram("h2", []int64{10})
	h2.Observe(99999)
	hv2 := r.Snapshot().Histogram("h2")
	if hv2.P99 != 10 {
		t.Fatalf("overflow quantile = %v, want clamp to 10", hv2.P99)
	}
	// Empty histogram: all quantiles zero.
	r.Histogram("h3", []int64{10})
	hv3 := r.Snapshot().Histogram("h3")
	if hv3.P50 != 0 || hv3.P95 != 0 || hv3.P99 != 0 {
		t.Fatalf("empty histogram quantiles nonzero: %+v", hv3)
	}
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(1000, 2, 4)
	want := []int64{1000, 2000, 4000, 8000}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", b, want)
		}
	}
	db := DurationBounds()
	if len(db) != 24 || db[0] != 1000 {
		t.Fatalf("DurationBounds = %v", db)
	}
	for i := 1; i < len(db); i++ {
		if db[i] <= db[i-1] {
			t.Fatalf("DurationBounds not ascending at %d: %v", i, db)
		}
	}
}

func TestSnapshotSortedAndLookups(t *testing.T) {
	r := New()
	r.Counter("z").Inc()
	r.Counter("a").Add(2)
	r.Gauge("m").Set(9)
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[1].Name != "z" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if snap.Counter("a") != 2 || snap.Counter("z") != 1 || snap.Counter("missing") != 0 {
		t.Fatalf("counter lookups wrong: %+v", snap.Counters)
	}
	if snap.Gauge("m") != 9 || snap.Gauge("missing") != 0 {
		t.Fatalf("gauge lookups wrong: %+v", snap.Gauges)
	}
	if snap.Histogram("missing") != nil {
		t.Fatal("missing histogram lookup not nil")
	}
}

// TestSplitLabeled splits at the last dot, so a label keeps its own dots.
func TestSplitLabeled(t *testing.T) {
	for _, tc := range []struct {
		name, prefix, label, field string
		ok                         bool
	}{
		{"qos.team.a.throttled", "qos.", "team.a", "throttled", true},
		{"flash.src.gc.bytes", "flash.src.", "gc", "bytes", true},
		{"health.erase_hist.12", "health.", "erase_hist", "12", true},
		{"qos.throttled", "qos.", "", "", false}, // no label
		{"qos.t.", "qos.", "", "", false},        // no field
		{"write.tenant.t.bytes", "qos.", "", "", false},
	} {
		label, field, ok := SplitLabeled(tc.name, tc.prefix)
		if label != tc.label || field != tc.field || ok != tc.ok {
			t.Errorf("SplitLabeled(%q, %q) = %q, %q, %v", tc.name, tc.prefix, label, field, ok)
		}
	}
}

// TestRegistryRaceHammer is the registry's concurrency contract test: N
// goroutines record into shared instruments while M readers snapshot.
// Under -race this doubles as the data-race proof; the assertions check
// that concurrently-taken counter snapshots are monotonic, histogram
// counts equal the bucket sum, and quantiles stay within the observed
// value range.
func TestRegistryRaceHammer(t *testing.T) {
	const (
		writers       = 8
		readers       = 4
		perWriter     = 5000
		histLow, hHi  = int64(1), int64(1 << 20)
		snapsPerReads = 200
	)
	r := New()
	c := r.Counter("hammer.count")
	g := r.Gauge("hammer.gauge")
	h := r.Histogram("hammer.lat", SizeBounds())

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(histLow + rng.Int63n(hHi))
				g.Add(-1)
			}
		}(int64(w + 1))
	}

	type obs struct {
		count int64
		hv    HistogramValue
	}
	readerObs := make([][]obs, readers)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			<-start
			for i := 0; i < snapsPerReads; i++ {
				snap := r.Snapshot()
				o := obs{count: snap.Counter("hammer.count")}
				if hv := snap.Histogram("hammer.lat"); hv != nil {
					o.hv = *hv
				}
				readerObs[idx] = append(readerObs[idx], o)
			}
		}(rd)
	}
	close(start)
	wg.Wait()

	for idx, seq := range readerObs {
		var prev int64 = -1
		for i, o := range seq {
			if o.count < prev {
				t.Fatalf("reader %d: counter went backwards at snapshot %d: %d -> %d", idx, i, prev, o.count)
			}
			prev = o.count
			var bsum int64
			for _, b := range o.hv.Buckets {
				bsum += b
			}
			if o.hv.Count != bsum {
				t.Fatalf("reader %d: histogram count %d != bucket sum %d", idx, o.hv.Count, bsum)
			}
			if o.hv.Count > 0 {
				for _, q := range []float64{o.hv.P50, o.hv.P95, o.hv.P99} {
					if q < 0 || q > float64(o.hv.Bounds[len(o.hv.Bounds)-1]) {
						t.Fatalf("reader %d: quantile %v outside bounds", idx, q)
					}
				}
				if o.hv.P50 > o.hv.P95+1e-9 || o.hv.P95 > o.hv.P99+1e-9 {
					t.Fatalf("reader %d: quantiles not ordered: p50=%v p95=%v p99=%v", idx, o.hv.P50, o.hv.P95, o.hv.P99)
				}
			}
		}
	}

	final := r.Snapshot()
	if got := final.Counter("hammer.count"); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
	if got := final.Gauge("hammer.gauge"); got != 0 {
		t.Fatalf("final gauge = %d, want 0", got)
	}
	hv := final.Histogram("hammer.lat")
	if hv.Count != writers*perWriter {
		t.Fatalf("final histogram count = %d, want %d", hv.Count, writers*perWriter)
	}
}

// TestRecordAllocFree is the registry's cost gate: it has no off switch,
// so every hot path pays its recordings, and a recording must never
// allocate. The benchmarks below report the ns/op; only the allocation
// count is gated.
func TestRecordAllocFree(t *testing.T) {
	r := New()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h", DurationBounds())
	if n := testing.AllocsPerRun(200, func() {
		c.Add(3)
		g.Set(7)
		h.Observe(900_000)
	}); n != 0 {
		t.Fatalf("recording allocates: %v allocs/op", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := New()
	c := r.Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("bench", DurationBounds())
	b.RunParallel(func(pb *testing.PB) {
		var v int64 = 900
		for pb.Next() {
			h.Observe(v)
			v = (v * 7) % (1 << 30)
		}
	})
}
