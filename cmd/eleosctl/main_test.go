package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/health"
	"eleos/internal/metrics"
	"eleos/internal/server"
	"eleos/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureSnapshot builds a fully deterministic snapshot covering every
// shape the renderer handles: counters, a negative gauge, the census
// gauges, and histograms with both duration and size bounds (including
// an overflow observation beyond the last bucket bound).
func fixtureSnapshot() metrics.Snapshot {
	reg := metrics.New()
	reg.Counter("core.write.batches").Add(128)
	reg.Counter("core.write.pages").Add(512)
	reg.Counter("flash.programs").Add(300)
	reg.Counter("wal.appends").Add(900)
	reg.Counter("read.reads").Add(2048)
	reg.Counter("read.cache_hits").Add(1500)
	reg.Counter("read.flash_loads").Add(548)
	reg.Gauge("server.active_conns").Set(3)
	reg.Gauge("flash.chan0.queue_depth").Set(-1)
	reg.Gauge("read.cached_bytes").Set(262144)
	rh := reg.Histogram("read.ns", metrics.DurationBounds())
	for _, v := range []int64{800, 1200, 4500, 250_000} {
		rh.Observe(v)
	}
	h := reg.Histogram("core.write.init_ns", metrics.DurationBounds())
	for _, v := range []int64{1500, 2100, 9000, 60_000, 1 << 45} {
		h.Observe(v)
	}
	g := reg.Histogram("wal.group_commit_records", metrics.SizeBounds())
	for _, v := range []int64{1, 2, 2, 7, 31} {
		g.Observe(v)
	}
	snap := reg.Snapshot()
	fixtureHealth().AddGauges(&snap)
	return snap
}

// fixtureHealth is a census with every section populated.
func fixtureHealth() health.DeviceHealth {
	return health.DeviceHealth{
		EBlocksTotal: 64, FreeEBlocks: 32, OpenEBlocks: 4,
		UsedEBlocks: 26, BadEBlocks: 1, ReservedEBlocks: 1, LogEBlocks: 3,
		EraseTotal: 128, EraseMin: 0, EraseMax: 9,
		EraseHist: [health.EraseHistBuckets]int64{10, 20, 30, 4},
		FreeBytes: 64 << 20, ValidBytes: 48 << 20, DeadBytes: 16 << 20,
		UtilHist: [health.UtilHistBuckets]int64{1, 0, 2, 0, 0, 5, 0, 0, 3, 15},
	}
}

// TestStatsJSONGolden pins the `eleosctl stats -json` schema: the JSON
// encoding of metrics.Snapshot documented in DESIGN.md §7. A diff here
// means the wire-visible schema changed and the docs (and any consumers)
// must change with it.
func TestStatsJSONGolden(t *testing.T) {
	got, err := marshalSnapshot(fixtureSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stats_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/eleosctl -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stats -json output diverged from %s\n got: %s\nwant: %s\n(run `go test ./cmd/eleosctl -update` if the change is intentional)", golden, got, want)
	}
}

// fixtureDump builds a deterministic flight-recorder dump covering every
// rendering shape: a full traced batch (spans + instants), a server
// request span, background GC and WAL events, and a dropped count.
func fixtureDump() trace.Dump {
	return trace.Dump{
		EpochUnixNano: 1_700_000_000_000_000_000,
		Dropped:       3,
		Events: []trace.Event{
			{Seq: 4, Kind: trace.KConnOpen, TS: 500, SID: 1},
			{Seq: 5, Kind: trace.KBatchStart, TS: 1_000, TraceID: 42, SID: 7, WSN: 9, Arg1: 3},
			{Seq: 6, Kind: trace.KClaim, TS: 1_000, Dur: 2_500, TraceID: 42, SID: 7, WSN: 9},
			{Seq: 7, Kind: trace.KInit, TS: 3_500, Dur: 10_000, TraceID: 42, SID: 7, WSN: 9},
			{Seq: 8, Kind: trace.KFlashProgram, TS: 14_000, Dur: 90_000, Arg1: 2, Arg2: 17},
			{Seq: 9, Kind: trace.KProgramWait, TS: 13_500, Dur: 95_000, TraceID: 42, SID: 7, WSN: 9},
			{Seq: 10, Kind: trace.KWalForce, TS: 110_000, Dur: 40_000, Arg1: 1, Arg2: 5},
			{Seq: 11, Kind: trace.KForceWait, TS: 108_500, Dur: 43_000, TraceID: 42, SID: 7, WSN: 9},
			{Seq: 12, Kind: trace.KInstall, TS: 151_500, Dur: 4_000, TraceID: 42, SID: 7, WSN: 9},
			{Seq: 13, Kind: trace.KBatchEnd, TS: 155_500, TraceID: 42, SID: 7, WSN: 9},
			{Seq: 14, Kind: trace.KRequest, TS: 900, Dur: 155_000, SID: 1, Arg1: 3, Arg2: 4096},
			{Seq: 15, Kind: trace.KGC, TS: 200_000, Dur: 1_000_000, Arg1: 1, Arg2: 33},
			{Seq: 16, Kind: trace.KConnClose, TS: 1_300_000, SID: 1},
		},
	}
}

// TestTraceChromeGolden pins the Chrome trace_event rendering byte for
// byte: what `eleosctl trace -chrome out.json` writes is what
// chrome://tracing loads, so a diff here is a consumer-visible format
// change.
func TestTraceChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := renderTrace(&buf, fixtureDump(), "-"); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("unexpected chrome document: %+v", doc)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/eleosctl -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chrome trace output diverged from %s\n got: %s\nwant: %s\n(run `go test ./cmd/eleosctl -update` if the change is intentional)", golden, got, want)
	}
}

// TestTraceTimelineRender smoke-checks the default text rendering and the
// -chrome FILE path.
func TestTraceTimelineRender(t *testing.T) {
	var buf bytes.Buffer
	if err := renderTrace(&buf, fixtureDump(), ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace 42", "claim", "program_wait", "install", "batch_end", "untraced"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}

	file := filepath.Join(t.TempDir(), "out.json")
	buf.Reset()
	if err := renderTrace(&buf, fixtureDump(), file); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote 13 trace events (3 dropped)") {
		t.Fatalf("unexpected status line: %q", buf.String())
	}
	onDisk, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var chromeBuf bytes.Buffer
	if err := renderTrace(&chromeBuf, fixtureDump(), "-"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, chromeBuf.Bytes()) {
		t.Fatal("-chrome FILE and -chrome - renderings differ")
	}
}

// TestPrintMetricsTable smoke-checks the human-readable rendering: every
// instrument appears, histograms carry quantiles, and an empty snapshot
// prints nothing.
func TestPrintMetricsTable(t *testing.T) {
	var buf bytes.Buffer
	printMetrics(&buf, fixtureSnapshot())
	out := buf.String()
	for _, want := range []string{
		"metrics:",
		"core.write.batches", "128",
		"server.active_conns", "(gauge)",
		"core.write.init_ns", "wal.group_commit_records",
		"p50", "p95", "p99",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	printMetrics(&buf, metrics.Snapshot{})
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot should render nothing, got %q", buf.String())
	}
}

// topFixture builds a pair of stats_full snapshots 1s apart with known
// deltas so renderTop's rate math is pinned exactly: 1 MB/s user,
// 2 MB/s flash (WAF 2.00), 1.25 MB of user-source programs for the 1 MB
// stored (pad 20.0%), 10 batches/s, and one reclaimed EBLOCK whose 1 MB of
// survivors took 1.75 MB of media reads to move.
func topFixture() (prev, cur metrics.Snapshot) {
	build := func(user, flash, batches, moved, freed int64) metrics.Snapshot {
		reg := metrics.New()
		reg.Counter("core.write.bytes_accepted").Add(user)
		reg.Counter("flash.programmed_bytes").Add(flash)
		reg.Counter("core.write.bytes_stored").Add(user)
		reg.Counter("flash.src.user.bytes").Add(user * 5 / 4)
		reg.Counter("core.write.batches").Add(batches)
		reg.Counter("core.write.pages").Add(batches * 4)
		reg.Counter("core.gc.bytes_moved").Add(moved)
		reg.Counter("core.gc.bytes_read").Add(moved * 7 / 4)
		reg.Counter("core.gc.eblocks_freed").Add(freed)
		reg.Counter("read.reads").Add(batches)
		reg.Counter("read.cache_hits").Add(batches - 20)
		reg.Counter("read.cache_misses").Add(20)
		reg.Counter("qos.default.admitted_bytes").Add(user)
		reg.Counter("qos.default.throttled").Add(freed) // any delta > 0
		reg.Counter("write.tenant.default.bytes").Add(user)
		reg.Counter("write.tenant.default.pages").Add(batches * 4)
		snap := reg.Snapshot()
		fixtureHealth().AddGauges(&snap)
		return snap
	}
	prev = build(5<<20, 10<<20, 100, 1<<20, 2)
	cur = build(6<<20, 12<<20, 110, 2<<20, 3)
	return prev, cur
}

// TestRenderTop pins one dashboard frame end to end: the rate lines
// derived from the payload deltas, the health census, and the tenant
// table all render from a pure function with no server.
func TestRenderTop(t *testing.T) {
	prev, cur := topFixture()
	out := renderTop("10.0.0.1:9420", prev, cur, time.Second)
	for _, want := range []string{
		"eleos top — 10.0.0.1:9420   interval=1s\n",
		"WAF  2.00",       // 2 MB flash / 1 MB user
		"pad 20.0%",       // 1 - 1 MB stored / 1.25 MB user-source programs
		"1.00 MB/s user",  // Δ1 MB over 1s
		"2.00 MB/s flash", // Δ2 MB over 1s
		"10 batches/s",    // Δ10 over 1s
		"1 eblocks freed", // Δ1
		"1.0 MB moved",    // Δ1 MB GC traffic
		"read amp 1.8×",   // Δ1.75 MB transferred to move it
		"throttled/s",     // nonzero throttle delta renders the qos line
		"space:  free 64.0 MB  valid 48.0 MB  dead 16.0 MB",
		"eblocks: 64 total  32 free  4 open  26 used  1 bad  1 reserved  3 log",
		"erases min 0 / avg 2.0 / max 9 (total 128)",
		"0:10 1:20 2-3:30 4-7:4",
		"valid-utilization deciles: 1 0 2 0 0 5 0 0 3 15",
		"TENANT",
		"default",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTop missing %q:\n%s", want, out)
		}
	}
}

// TestRenderStats pins the renderer both `stats` modes share: one
// stats_full snapshot renders the health census, the tenant table and the
// metrics table, and -json is that snapshot as JSON.
func TestRenderStats(t *testing.T) {
	_, snap := topFixture()
	snap.Gauges = append(snap.Gauges, metrics.GaugeValue{Name: "server.active_conns", Value: 3})
	var buf bytes.Buffer
	if err := renderStats(&buf, snap, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"space:  free 64.0 MB", "TENANT", "metrics:", "core.write.batches", "server.active_conns"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("renderStats missing %q:\n%s", want, buf.String())
		}
	}
	// The census prints once, as printHealth renders it: no raw health.* rows.
	if strings.Contains(buf.String(), "health.") {
		t.Errorf("renderStats repeats the census as gauge rows:\n%s", buf.String())
	}
	buf.Reset()
	if err := renderStats(&buf, snap, true); err != nil {
		t.Fatal(err)
	}
	if want, _ := marshalSnapshot(snap); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("renderStats -json is not the snapshot's JSON:\n%s", buf.String())
	}
}

// TestPrintHealthEmpty checks the zero-value census renders nothing, so
// local `stats` against a fresh image stays quiet.
func TestPrintHealthEmpty(t *testing.T) {
	var buf bytes.Buffer
	printHealth(&buf, metrics.Snapshot{})
	if buf.Len() != 0 {
		t.Fatalf("empty health should render nothing, got %q", buf.String())
	}
	printTenants(&buf, metrics.Snapshot{})
	if buf.Len() != 0 {
		t.Fatalf("empty tenant table should render nothing, got %q", buf.String())
	}
}

// TestFmtBytes pins the unit thresholds.
func TestFmtBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{0, "0 B"}, {1023, "1023 B"}, {1024, "1.0 KB"},
		{5 << 20, "5.0 MB"}, {3 << 30, "3.0 GB"},
	} {
		if got := fmtBytes(tc.n); got != tc.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// TestHasAddrFlag pins network-mode detection for the stats command.
func TestHasAddrFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{nil, false},
		{[]string{"-json"}, false},
		{[]string{"-addr", "x:1"}, true},
		{[]string{"-addr=x:1"}, true},
		{[]string{"--addr", "x:1"}, true},
		{[]string{"-json", "--addr=x:1"}, true},
	} {
		if got := hasAddrFlag(tc.args); got != tc.want {
			t.Errorf("hasAddrFlag(%v) = %v, want %v", tc.args, got, tc.want)
		}
	}
}

// TestTopConfigValidate: top's flags parse into one value and Validate
// names the flag it rejects; period applies the 1s default and the
// [10ms, 60s] clamp.
func TestTopConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		wantErr    string // substring of the Validate error; "" = valid
		wantPeriod time.Duration
	}{
		{"defaults", nil, "", time.Second},
		{"interval 0 selects the default", []string{"-interval", "0"}, "", time.Second},
		{"interval in range", []string{"-interval", "250ms"}, "", 250 * time.Millisecond},
		{"interval below the floor clamps up", []string{"-interval", "1ms"}, "", 10 * time.Millisecond},
		{"interval above the ceiling clamps down", []string{"-interval", "2h"}, "", time.Minute},
		{"all four flags", []string{"-addr", "x:1", "-interval", "100ms", "-n", "2", "-plain"}, "", 100 * time.Millisecond},
		{"interval negative", []string{"-interval", "-1s"}, "-interval", 0},
		{"n negative", []string{"-n", "-1"}, "-n", 0},
		{"stray argument drops the flags after it", []string{"-plain", "true", "-n", "2"}, `"true"`, 0},
	} {
		cfg, err := parseTopFlags(tc.args, io.Discard)
		if err != nil {
			t.Errorf("%s: parse: %v", tc.name, err)
			continue
		}
		err = cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: valid flags rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		case tc.wantErr == "" && cfg.period() != tc.wantPeriod:
			t.Errorf("%s: period %v, want %v", tc.name, cfg.period(), tc.wantPeriod)
		}
	}
	for _, bad := range [][]string{{"-no-such-flag"}, {"-n", "many"}, {"-interval", "5"}} {
		if _, err := parseTopFlags(bad, io.Discard); err == nil {
			t.Errorf("parseTopFlags(%q) accepted", bad)
		}
	}
	var ue usageError
	if err := runTop(context.Background(), io.Discard, []string{"-n", "-1"}); !errors.As(err, &ue) {
		t.Errorf("runTop with -n -1 = %v, want a usage error", err)
	}
}

// TestFillAndGCConfigValidate: fill's and gc's flags parse into one value
// each, Validate names the flag it rejects — gc's against the device's
// channel count — and the commands turn a rejection into a usage error
// before they write or collect anything.
func TestFillAndGCConfigValidate(t *testing.T) {
	const channels = 4
	for _, tc := range []struct {
		name    string
		cmd     string
		args    []string
		wantErr string // substring of the Validate error; "" = valid
	}{
		{"fill defaults", "fill", nil, ""},
		{"fill all three flags", "fill", []string{"-pages", "0", "-size", "1", "-seed", "7"}, ""},
		{"fill pages negative", "fill", []string{"-pages", "-1"}, "-pages"},
		{"fill size zero", "fill", []string{"-size", "0"}, "-size"},
		{"fill size negative", "fill", []string{"-size", "-5"}, "-size"},
		{"fill stray argument", "fill", []string{"-pages", "3", "x", "-size", "0"}, `"x"`},
		{"gc defaults to all channels", "gc", nil, ""},
		{"gc first channel", "gc", []string{"-channel", "0"}, ""},
		{"gc last channel", "gc", []string{"-channel", "3"}, ""},
		{"gc channel past the device", "gc", []string{"-channel", "4"}, "-channel"},
		{"gc channel far past the device", "gc", []string{"-channel", "99"}, "-channel"},
		{"gc channel below -1", "gc", []string{"-channel", "-5"}, "-channel"},
		{"gc stray argument", "gc", []string{"2"}, `"2"`},
	} {
		var err error
		if tc.cmd == "fill" {
			var cfg fillConfig
			if cfg, err = parseFillFlags(tc.args, io.Discard); err == nil {
				err = cfg.Validate()
			}
		} else {
			var cfg gcConfig
			if cfg, err = parseGCFlags(tc.args, io.Discard); err == nil {
				err = cfg.Validate(channels)
			}
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: valid flags rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}

	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	ctl, err := core.Format(dev, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := ctl.Stats()
	var ue usageError
	if err := doGC(ctl, []string{"-channel", "99"}); !errors.As(err, &ue) {
		t.Errorf("gc -channel 99 = %v, want a usage error", err)
	}
	if err := doFill(ctl, []string{"-size", "0"}); !errors.As(err, &ue) {
		t.Errorf("fill -size 0 = %v, want a usage error", err)
	}
	if err := doGC(ctl, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("gc -h = %v, want flag.ErrHelp (exit 0)", err)
	}
	if after := ctl.Stats(); after.GCRounds != before.GCRounds || after.BatchesWritten != before.BatchesWritten {
		t.Errorf("rejected commands ran: %d GC rounds, %d batches", after.GCRounds-before.GCRounds, after.BatchesWritten-before.BatchesWritten)
	}
}

// TestBadFlagsAreUsageErrors: every command's FlagSet hands a flag it
// cannot parse back to run as a usage error (exit 2), and -h as
// flag.ErrHelp (exit 0), instead of exiting inside the parse; the image
// commands leave the image as it was.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	if err := run(img, []string{"format", "-channels", "2", "-eblocks", "8"}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"format", "-channels", "many"},
		{"format", "-no-such-flag"},
		{"trace", "-chrome"},
		{"trace", "-no-such-flag"},
		{"get", "-raw=maybe", "1"},
		{"get", "-no-such-flag", "1"},
		{"swrite", "-sid", "x", "-wsn", "1", "1=a"},
		{"swrite", "-no-such-flag"},
		{"session-status", "-sid", "-1"},
		{"session-status", "-no-such-flag"},
		{"stats", "-json=2"},
		{"stats", "-no-such-flag"},
		{"stats", "-addr", "127.0.0.1:1", "-json=2"},
		{"stats", "-addr", "127.0.0.1:1", "-no-such-flag"},
	} {
		var ue usageError
		if err := run(img, args); !errors.As(err, &ue) || errors.Is(err, flag.ErrHelp) {
			t.Errorf("%q = %v, want a usage error", args, err)
		}
		if err := run(img, []string{args[0], "-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h = %v, want flag.ErrHelp (exit 0)", args[0], err)
		}
	}
	// An argument mistake that is not a flag exits 2 as well.
	for _, args := range [][]string{
		{"get"},
		{"get", "x"},
		{"get", "-raw", "1", "2"},
		{"write"},
		{"write", "1"},
		{"write", "x=a"},
		{"read"},
		{"read", "x"},
		{"swrite", "1=a"},
		{"swrite", "-sid", "1", "-wsn", "1"},
		{"swrite", "-sid", "1", "-wsn", "1", "1"},
		{"swrite", "-sid", "1", "-wsn", "1", "x=a"},
		{"nosuch"},
	} {
		var ue usageError
		if err := run(img, args); !errors.As(err, &ue) {
			t.Errorf("%q = %v, want a usage error", args, err)
		}
	}
	if after, err := os.ReadFile(img); err != nil || !bytes.Equal(after, before) {
		t.Errorf("rejected commands changed the image (%v)", err)
	}
	// An unknown command is named as such before any image is loaded.
	var ue usageError
	if err := run(filepath.Join(t.TempDir(), "missing.img"), []string{"nosuch"}); !errors.As(err, &ue) {
		t.Errorf("nosuch on a missing image = %v, want a usage error", err)
	}
}

// frameRecorder is the writer runTop renders into: with -plain each frame
// is one Write. onFrame runs after each, with the count so far.
type frameRecorder struct {
	frames  []string
	onFrame func(n int)
}

func (f *frameRecorder) Write(p []byte) (int, error) {
	f.frames = append(f.frames, string(p))
	if f.onFrame != nil {
		f.onFrame(len(f.frames))
	}
	return len(p), nil
}

// startTopServer serves a fresh in-memory controller on loopback.
func startTopServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	dev := flash.MustNewDevice(flash.Geometry{
		Channels: 2, EBlocksPerChannel: 16,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}, flash.Latency{})
	ctl, err := core.Format(dev, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ctl, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = drain(srv) })
	return srv, ln.Addr().String()
}

func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// TestTopLoopback runs top against an in-process eleosd: -n 3 renders
// exactly three frames, each naming the server, and a server drained
// after the first frame ends top with an error instead of a hang.
func TestTopLoopback(t *testing.T) {
	_, addr := startTopServer(t)
	var out frameRecorder
	if err := runTop(context.Background(), &out, []string{"-addr", addr, "-n", "3", "-plain", "-interval", "10ms"}); err != nil {
		t.Fatal(err)
	}
	if len(out.frames) != 3 {
		t.Fatalf("rendered %d frames, want 3", len(out.frames))
	}
	for i, f := range out.frames {
		if !strings.HasPrefix(f, "eleos top — "+addr) {
			t.Errorf("frame %d does not name %s:\n%s", i, addr, f)
		}
	}

	srv, addr := startTopServer(t)
	out = frameRecorder{onFrame: func(n int) {
		if n == 1 {
			if err := drain(srv); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
	}}
	done := make(chan error, 1)
	go func() {
		done <- runTop(context.Background(), &out, []string{"-addr", addr, "-plain", "-interval", "10ms"})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("top returned nil after its server drained")
		}
		if len(out.frames) != 1 {
			t.Fatalf("rendered %d frames, want 1 before the drain", len(out.frames))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("top still running 10s after its server drained")
	}
}
