package server_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/health"
	"eleos/internal/metrics"
	"eleos/internal/server"
)

// pageData builds deterministic page content of the given size.
func pageData(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// quiesce polls the controller's registry until two consecutive
// snapshots are identical — no in-flight recording is mutating it.
func quiesce(t *testing.T, ctl *core.Controller) metrics.Snapshot {
	t.Helper()
	prev := ctl.MetricsSnapshot()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		next := ctl.MetricsSnapshot()
		if reflect.DeepEqual(prev, next) {
			return next
		}
		prev = next
	}
	t.Fatal("registry did not quiesce")
	return metrics.Snapshot{}
}

// TestStatsFullRoundTripTCP is the acceptance test for the stats_full
// wire path: the snapshot a client decodes over loopback TCP equals the
// server-side registry snapshot field-for-field. The fetch itself is a
// request, so the server-side reference is the quiesced before-snapshot
// adjusted by exactly what the server counts before building the reply:
// one request and its 5-byte frame (bytes_out and the request latency
// are recorded only after the reply is written, so they are absent from
// the snapshot the reply carries).
func TestStatsFullRoundTripTCP(t *testing.T) {
	ctl, _, _, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Generate traffic on every layer: session + ordered batches (core,
	// wal, flash, server) and a checkpoint.
	sess, err := cl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		batch := []core.LPage{
			{LPID: addr.LPID(uint64(i%7) + 1), Data: pageData(i, 1500)},
			{LPID: addr.LPID(uint64(i%5) + 10), Data: pageData(i, 700)},
		}
		if err := sess.Flush(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	want := quiesce(t, ctl)
	got, err := cl.StatsFull()
	if err != nil {
		t.Fatal(err)
	}

	// Fold the fetch's own footprint into the expectation.
	for i := range want.Counters {
		switch want.Counters[i].Name {
		case "server.requests":
			want.Counters[i].Value++
		case "server.bytes_in":
			want.Counters[i].Value += 5 // empty stats_full request frame
		}
	}
	if !reflect.DeepEqual(got, want) {
		for _, diff := range snapshotDiff(want, got) {
			t.Error(diff)
		}
		t.Fatal("client-decoded snapshot differs from server-side registry snapshot")
	}

	// Sanity: the snapshot actually covers all four layers.
	for _, name := range []string{"core.write.batches", "wal.page_writes", "flash.programs", "server.batches"} {
		if got.Counter(name) == 0 {
			t.Fatalf("counter %s = 0 after traffic", name)
		}
	}
	if hv := got.Histogram("server.request_ns"); hv == nil || hv.Count == 0 {
		t.Fatalf("server.request_ns missing or empty: %+v", hv)
	}
	if hv := got.Histogram("core.write.init_ns"); hv == nil || hv.Count != got.Counter("core.write.batches") {
		t.Fatalf("core.write.init_ns = %+v, want one observation per batch", hv)
	}

	// The health census rides the same snapshot as health.* gauges; it
	// must describe the device consistently with itself and with the
	// counters.
	h := health.FromSnapshot(got)
	if h.EBlocksTotal == 0 {
		t.Fatal("health census is empty")
	}
	if sum := h.FreeEBlocks + h.OpenEBlocks + h.UsedEBlocks + h.BadEBlocks + h.ReservedEBlocks; sum != h.EBlocksTotal {
		t.Fatalf("EBLOCK states sum to %d, total is %d", sum, h.EBlocksTotal)
	}
	var hist int64
	for _, n := range h.EraseHist {
		hist += n
	}
	if hist != h.EBlocksTotal {
		t.Fatalf("erase histogram covers %d EBLOCKs of %d", hist, h.EBlocksTotal)
	}
	if h.ValidBytes <= 0 {
		t.Fatalf("ValidBytes = %d after writing data", h.ValidBytes)
	}
	// The controller attributed physical programs by source; the census
	// and the counters came from one server, so the per-source split must
	// cover every program exactly.
	var srcBytes int64
	for _, v := range health.SourceBytes(got) {
		srcBytes += v
	}
	if fp := got.Counter("flash.programmed_bytes"); srcBytes != fp {
		t.Fatalf("per-source bytes sum to %d, flash.programmed_bytes = %d", srcBytes, fp)
	}
}

// snapshotDiff renders per-field differences for debugging.
func snapshotDiff(want, got metrics.Snapshot) []string {
	var out []string
	cs := map[string][2]int64{}
	for _, c := range want.Counters {
		cs[c.Name] = [2]int64{c.Value, 0}
	}
	for _, c := range got.Counters {
		v := cs[c.Name]
		v[1] = c.Value
		cs[c.Name] = v
	}
	for name, v := range cs {
		if v[0] != v[1] {
			out = append(out, fmt.Sprintf("counter %s: want %d, got %d", name, v[0], v[1]))
		}
	}
	gs := map[string][2]int64{}
	for _, g := range want.Gauges {
		gs[g.Name] = [2]int64{g.Value, 0}
	}
	for _, g := range got.Gauges {
		v := gs[g.Name]
		v[1] = g.Value
		gs[g.Name] = v
	}
	for name, v := range gs {
		if v[0] != v[1] {
			out = append(out, fmt.Sprintf("gauge %s: want %d, got %d", name, v[0], v[1]))
		}
	}
	for _, h := range want.Histograms {
		g := got.Histogram(h.Name)
		if g == nil {
			out = append(out, fmt.Sprintf("histogram %s missing", h.Name))
			continue
		}
		if !reflect.DeepEqual(h, *g) {
			out = append(out, fmt.Sprintf("histogram %s: want count=%d sum=%d, got count=%d sum=%d", h.Name, h.Count, h.Sum, g.Count, g.Sum))
		}
	}
	return out
}
