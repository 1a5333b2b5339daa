package health

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"eleos/internal/metrics"
)

// TestEraseBucket pins the power-of-two bucketing incl. the open-ended
// last bucket.
func TestEraseBucket(t *testing.T) {
	for _, tc := range []struct {
		count int64
		want  int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 13, 14}, {1 << 14, 15}, {1 << 40, 15},
	} {
		if got := EraseBucket(tc.count); got != tc.want {
			t.Errorf("EraseBucket(%d) = %d, want %d", tc.count, got, tc.want)
		}
	}
}

// TestUtilBucket pins the decile mapping with clamping at both ends.
func TestUtilBucket(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		want int
	}{
		{-0.1, 0}, {0, 0}, {0.05, 0}, {0.1, 1}, {0.55, 5}, {0.999, 9}, {1, 9}, {1.5, 9},
	} {
		if got := UtilBucket(tc.frac); got != tc.want {
			t.Errorf("UtilBucket(%v) = %d, want %d", tc.frac, got, tc.want)
		}
	}
}

// TestGaugesRoundTripFull drives every field through the name table:
// the table names each field of the census once, AddGauges then
// FromSnapshot gives the census back, the gauges keep the snapshot in
// name order beside an instrument of the registry, and every name is
// distinct.
func TestGaugesRoundTripFull(t *testing.T) {
	var h DeviceHealth
	gs := h.gauges()
	fields := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(h)) {
		if f.Type.Kind() == reflect.Array {
			fields += f.Type.Len()
		} else {
			fields++
		}
	}
	if len(gs) != fields {
		t.Fatalf("the name table has %d gauges, the census %d fields", len(gs), fields)
	}
	for i, g := range gs {
		*g.v = int64(i*1000 + 7)
	}
	reg := metrics.New()
	reg.Gauge("read.cached_bytes").Set(5)
	snap := reg.Snapshot()
	h.AddGauges(&snap)
	if len(snap.Gauges) != len(gs)+1 {
		t.Fatalf("%d gauges, want %d census gauges and one instrument", len(snap.Gauges), len(gs))
	}
	if !slices.IsSortedFunc(snap.Gauges, func(a, b metrics.GaugeValue) int { return strings.Compare(a.Name, b.Name) }) {
		t.Fatalf("gauges out of name order: %v", snap.Gauges)
	}
	if got := FromSnapshot(snap); got != h {
		t.Fatalf("round trip diverged:\n%+v\n%+v", got, h)
	}
	if snap.Gauge("read.cached_bytes") != 5 || snap.Gauge("health.bytes.dead") != h.DeadBytes ||
		snap.Gauge("health.eblocks.log") != h.LogEBlocks {
		t.Fatalf("lookup by name: %v", snap.Gauges)
	}
	if got := FromSnapshot(metrics.Snapshot{}); got != (DeviceHealth{}) {
		t.Fatalf("empty snapshot decodes to %+v, want the zero census", got)
	}
}

// TestCompute checks the delta math: rates over the interval, counter
// resets clamped to zero, and the labeled throttle sum.
func TestCompute(t *testing.T) {
	mk := func(user, flash, reads, hits, misses, thrA, thrB int64) metrics.Snapshot {
		reg := metrics.New()
		reg.Counter("core.write.bytes_accepted").Add(user)
		reg.Counter("flash.programmed_bytes").Add(flash)
		reg.Counter("core.write.bytes_stored").Add(user)
		reg.Counter("flash.src.user.bytes").Add(flash)
		reg.Counter("core.write.batches").Add(user / 1000)
		reg.Counter("read.reads").Add(reads)
		reg.Counter("read.cache_hits").Add(hits)
		reg.Counter("read.cache_misses").Add(misses)
		reg.Counter("core.gc.bytes_moved").Add(flash / 4)
		reg.Counter("core.gc.bytes_read").Add(flash * 3 / 8)
		reg.Counter("core.gc.eblocks_freed").Add(flash / (1 << 20))
		reg.Counter("qos.a.throttled").Add(thrA)
		reg.Counter("qos.b.c.throttled").Add(thrB) // dotted tenant
		return reg.Snapshot()
	}
	prev := mk(1<<20, 2<<20, 100, 50, 50, 3, 1)
	cur := mk(3<<20, 6<<20, 300, 200, 100, 5, 4)
	r := Compute(prev, cur, 2*time.Second)

	if r.UserBytes != 2<<20 || r.FlashBytes != 4<<20 {
		t.Fatalf("deltas: user %d flash %d", r.UserBytes, r.FlashBytes)
	}
	if r.WAF != 2 {
		t.Fatalf("WAF = %v, want 2", r.WAF)
	}
	// Δstored 2 MB in Δ4 MB of user-source programs.
	if r.PadFrac != 0.5 {
		t.Fatalf("PadFrac = %v, want 0.5", r.PadFrac)
	}
	if r.UserMBps != 1 || r.FlashMBps != 2 {
		t.Fatalf("rates: %v user MB/s, %v flash MB/s", r.UserMBps, r.FlashMBps)
	}
	if r.ReadsPS != 100 {
		t.Fatalf("ReadsPS = %v", r.ReadsPS)
	}
	// Δhits 150, Δmisses 50 → 75%.
	if r.CacheHitRate != 0.75 {
		t.Fatalf("CacheHitRate = %v", r.CacheHitRate)
	}
	// Δmoved 1 MB out of Δ4 reclaimed EBLOCKs, for Δ1.5 MB of media reads.
	if r.GCMovedBytes != 1<<20 || r.GCEfficiency != 1<<18 || r.GCReadAmp != 1.5 {
		t.Fatalf("gc: moved %d, %v per EBLOCK, read amp %v", r.GCMovedBytes, r.GCEfficiency, r.GCReadAmp)
	}
	// Δthrottled (2 + 3) over 2s.
	if r.ThrottledPS != 2.5 {
		t.Fatalf("ThrottledPS = %v", r.ThrottledPS)
	}

	// A counter reset (cur < prev, e.g. recovery swapped registries)
	// clamps to zero instead of going negative.
	r = Compute(cur, prev, time.Second)
	if r.UserBytes != 0 || r.FlashBytes != 0 || r.WAF != 0 || r.PadFrac != 0 || r.GCReadAmp != 0 {
		t.Fatalf("reset not clamped: %+v", r)
	}
}

// TestSourceBytesAndTenants checks the labeled-counter views, including
// a tenant name that itself contains a dot — the reason labels split at
// the last dot.
func TestSourceBytesAndTenants(t *testing.T) {
	reg := metrics.New()
	reg.Counter("flash.src.user.bytes").Add(100)
	reg.Counter("flash.src.gc.bytes").Add(40)
	reg.Counter("flash.src.gc.wblocks").Add(2) // not a bytes field: excluded
	reg.Counter("qos.team.a.admitted_bytes").Add(7)
	reg.Counter("qos.team.a.throttled").Add(3)
	reg.Counter("write.tenant.team.a.bytes").Add(5)
	reg.Counter("write.tenant.team.a.pages").Add(2)
	reg.Counter("qos.plain.admitted_bytes").Add(9)
	reg.Gauge("qos.plain.inflight_bytes").Set(11)
	snap := reg.Snapshot()

	src := SourceBytes(snap)
	if src["user"] != 100 || src["gc"] != 40 || len(src) != 2 {
		t.Fatalf("SourceBytes = %v", src)
	}

	rows := Tenants(snap)
	if len(rows) != 2 {
		t.Fatalf("Tenants = %+v", rows)
	}
	// Sorted by name: "plain" before "team.a".
	if rows[0].Tenant != "plain" || rows[0].AdmittedBytes != 9 || rows[0].InflightBytes != 11 {
		t.Fatalf("plain row = %+v", rows[0])
	}
	ta := rows[1]
	if ta.Tenant != "team.a" || ta.AdmittedBytes != 7 || ta.Throttled != 3 ||
		ta.WriteBytes != 5 || ta.WritePages != 2 {
		t.Fatalf("team.a row = %+v", ta)
	}
}
