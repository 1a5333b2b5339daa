package server_test

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/health"
	"eleos/internal/metrics"
	"eleos/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exposition format byte-for-byte
// against testdata/prometheus.golden: HELP/TYPE headers, the
// tenant/source/channel label extraction (including a tenant tag that
// itself contains a dot), histogram buckets and the health census.
// Regenerate with: go test ./internal/server -run Golden -update
func TestWritePrometheusGolden(t *testing.T) {
	reg := metrics.New()
	reg.Counter("core.write.batches").Add(12)
	reg.Counter("core.write.bytes_accepted").Add(48_000)
	reg.Counter("flash.programmed_bytes").Add(96_000)
	reg.Counter("flash.src.user.bytes").Add(64_000)
	reg.Counter("flash.src.user.wblocks").Add(2)
	reg.Counter("flash.src.gc.bytes").Add(32_000)
	reg.Counter("flash.src.gc.wblocks").Add(1)
	reg.Counter("qos.default.admitted_bytes").Add(1000)
	reg.Counter("qos.default.throttled").Add(0)
	reg.Counter("qos.team.a.admitted_bytes").Add(2000) // tenant tag with a dot
	reg.Counter("qos.team.a.throttled").Add(3)
	reg.Counter("write.tenant.default.bytes").Add(900)
	reg.Counter("write.tenant.team.a.pages").Add(7)
	reg.Gauge("server.active_conns").Set(2)
	reg.Gauge("qos.team.a.inflight_bytes").Set(512)
	reg.Gauge("flash.chan0.queue_depth").Set(3)
	h := reg.Histogram("server.request_ns", []int64{1000, 1_000_000})
	h.Observe(500)
	h.Observe(2000)
	h.Observe(5_000_000)

	snap := reg.Snapshot()
	health.DeviceHealth{
		EBlocksTotal: 64, FreeEBlocks: 40, OpenEBlocks: 6, UsedEBlocks: 16, ReservedEBlocks: 2, LogEBlocks: 3,
		EraseTotal: 90, EraseMax: 4, EraseHist: [health.EraseHistBuckets]int64{10, 30, 20, 4},
		FreeBytes: 40 << 18, ValidBytes: 15 << 18, DeadBytes: 7 << 18,
		UtilHist: [health.UtilHistBuckets]int64{3, 0, 0, 0, 5, 0, 0, 0, 0, 8},
	}.AddGauges(&snap)
	var sb strings.Builder
	server.WritePrometheus(&sb, snap)
	got := sb.String()

	goldenPath := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden file (regenerate with -update if intentional)")
		gl := strings.Split(string(want), "\n")
		ol := strings.Split(got, "\n")
		for i := 0; i < len(gl) || i < len(ol); i++ {
			var g, o string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(ol) {
				o = ol[i]
			}
			if g != o {
				t.Errorf("line %d:\n  golden: %s\n  got:    %s", i+1, g, o)
			}
		}
	}
}

// TestMetricsScrapeCarriesCensus scrapes /metrics through the debug
// handler after a flush: every census field is a gauge family equal to
// ctl.DeviceHealth(), and no info family is left: a snapshot has no
// labels to put in one.
func TestMetricsScrapeCarriesCensus(t *testing.T) {
	ctl, _, srv, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Flush(0, 0, []core.LPage{{LPID: 5, Data: pageData(1, 900)}}); err != nil {
		t.Fatal(err)
	}
	quiesce(t, ctl)

	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	var census metrics.Snapshot
	ctl.DeviceHealth().AddGauges(&census)
	if census.Gauge("health.eblocks.total") == 0 || census.Gauge("health.bytes.valid") == 0 {
		t.Fatalf("census after a flush is empty: %v", census.Gauges)
	}
	for _, g := range census.Gauges {
		fam, labels := "eleos_"+strings.ReplaceAll(g.Name, ".", "_"), ""
		if hist, bucket, ok := metrics.SplitLabeled(g.Name, "health."); ok && strings.HasSuffix(hist, "_hist") {
			fam, labels = "eleos_health_"+hist, fmt.Sprintf("{bucket=%q}", bucket)
		}
		for _, want := range []string{"# TYPE " + fam + " gauge\n", fmt.Sprintf("\n%s%s %d\n", fam, labels, g.Value)} {
			if !strings.Contains(out, want) {
				t.Errorf("/metrics missing %q", strings.TrimSpace(want))
			}
		}
	}
	// Each census histogram is one family: one TYPE line, one sample per
	// bucket, in bucket order.
	for fam, buckets := range map[string]int{"eleos_health_erase_hist": 16, "eleos_health_util_hist": 10} {
		if n := strings.Count(out, "# TYPE "+fam+" "); n != 1 {
			t.Errorf("%s has %d TYPE lines, want 1", fam, n)
		}
		if n := strings.Count(out, "\n"+fam+"{bucket="); n != buckets {
			t.Errorf("%s has %d samples, want %d", fam, n, buckets)
		}
		prev := -1
		for i := range buckets {
			at := strings.Index(out, fmt.Sprintf("\n%s{bucket=\"%d\"}", fam, i))
			if at < prev {
				t.Errorf("%s: bucket %d comes before bucket %d", fam, i, i-1)
			}
			prev = at
		}
	}
	if strings.Contains(out, "_info") {
		t.Error("/metrics still carries an info family")
	}
}
