package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eleos/internal/health"
	"eleos/internal/metrics"
)

func sampleSnapshot() metrics.Snapshot {
	reg := metrics.New()
	reg.Counter("wal.appends").Add(42)
	reg.Counter("core.write.batches").Add(7)
	reg.Gauge("server.inflight_bytes").Set(1 << 20)
	reg.Gauge("flash.chan0.queue_depth").Set(-3) // gauges may go negative on skew
	h := reg.Histogram("core.write.init_ns", metrics.DurationBounds())
	for _, v := range []int64{900, 1500, 3000, 1 << 40} {
		h.Observe(v)
	}
	reg.Histogram("wal.group_commit_records", metrics.SizeBounds()).Observe(12)
	snap := reg.Snapshot()
	sampleHealth().AddGauges(&snap)
	return snap
}

func sampleHealth() health.DeviceHealth {
	var h health.DeviceHealth
	h.EBlocksTotal = 64
	h.FreeEBlocks = 40
	h.OpenEBlocks = 4
	h.UsedEBlocks = 17
	h.BadEBlocks = 1
	h.ReservedEBlocks = 2
	h.EraseTotal = 90
	h.EraseMin = 0
	h.EraseMax = 9
	h.EraseHist[0] = 30
	h.EraseHist[4] = 34
	h.FreeBytes = 40 << 20
	h.ValidBytes = 12 << 20
	h.DeadBytes = 5 << 20
	h.UtilHist[3] = 9
	h.UtilHist[9] = 8
	return h
}

// binaryStatsBody is a stats_full body in the binary layout the JSON body
// replaced (little-endian: magic "ELMS" | version | counters | gauges |
// histograms), holding one of each; version 3 appends its empty labels
// section and its fixed 304-byte health block.
func binaryStatsBody(version byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x454C4D53)
	b = append(b, version)
	b = le.AppendUint32(b, 1) // counters
	b = le.AppendUint16(b, 1)
	b = append(b, 'c')
	b = le.AppendUint64(b, 7)
	b = le.AppendUint32(b, 1) // gauges
	b = le.AppendUint16(b, 1)
	b = append(b, 'g')
	b = le.AppendUint64(b, 3)
	b = le.AppendUint32(b, 1) // histograms: name, sum, one bound, two buckets
	b = le.AppendUint16(b, 1)
	b = append(b, 'h')
	b = le.AppendUint64(b, 10)
	b = le.AppendUint16(b, 1)
	for _, v := range []uint64{16, 1, 0} {
		b = le.AppendUint64(b, v)
	}
	if version == 3 {
		b = append(b, make([]byte, 4+304)...)
	}
	return b
}

func decodeStatsOK(t *testing.T, body string) metrics.Snapshot {
	t.Helper()
	s, err := DecodeStatsFull([]byte(body))
	if err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return s
}

func rejectStats(t *testing.T, what string, body []byte) {
	t.Helper()
	if _, err := DecodeStatsFull(body); !errors.Is(err, ErrBadStats) {
		t.Fatalf("%s: %v, want ErrBadStats", what, err)
	}
}

func TestStatsFullRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	got, err := DecodeStatsFull(EncodeStatsFull(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
}

// TestStatsFullCensusRoundTrip: the census crosses the wire as ordinary
// gauges and reads back whole through health's name table.
func TestStatsFullCensusRoundTrip(t *testing.T) {
	got, err := DecodeStatsFull(EncodeStatsFull(sampleSnapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if h := health.FromSnapshot(got); h != sampleHealth() {
		t.Fatalf("census round trip:\n got %+v\nwant %+v", h, sampleHealth())
	}
}

func TestStatsFullEmptySnapshot(t *testing.T) {
	got, err := DecodeStatsFull(EncodeStatsFull(metrics.Snapshot{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != nil || got.Gauges != nil || got.Histograms != nil {
		t.Fatalf("empty sections must decode as nil slices: %+v", got)
	}
}

// TestDecodeStatsFullIgnoresUnknownKeys: a newer sender may add a section
// or a histogram field; an older decoder skips what it does not know and
// returns the snapshot it would have without them.
func TestDecodeStatsFullIgnoresUnknownKeys(t *testing.T) {
	plain := `{"counters":[{"name":"c","value":1}],"gauges":null,` +
		`"histograms":[{"name":"h","sum":5,"bounds":[4],"buckets":[1,1]}]}`
	extended := `{"counters":[{"name":"c","value":1}],"gauges":null,` +
		`"histograms":[{"name":"h","sum":5,"bounds":[4],"buckets":[1,1],"exemplars":[{"v":3}]}],` +
		`"sections":{"new":[1,2,3]}}`
	want := decodeStatsOK(t, plain)
	if got := decodeStatsOK(t, extended); !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown keys changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
	if want.Histograms[0].Count != 2 {
		t.Fatalf("count %d, want 2", want.Histograms[0].Count)
	}
}

// TestDecodeStatsFullRejectsOldVersions: every binary body from before
// the JSON form, v3 with its labels section and health block included,
// fails with the sentinel rather than decoding to something.
func TestDecodeStatsFullRejectsOldVersions(t *testing.T) {
	for _, v := range []byte{1, 2, 3, 4} {
		rejectStats(t, fmt.Sprintf("binary v%d body", v), binaryStatsBody(v))
	}
}

// TestDecodeStatsFullForgedHistogramCount: Count and the quantiles are
// derived, never trusted from the wire.
func TestDecodeStatsFullForgedHistogramCount(t *testing.T) {
	honest := decodeStatsOK(t, `{"histograms":[{"name":"h","bounds":[10,20],"buckets":[3,1,0]}]}`)
	forged := decodeStatsOK(t, `{"histograms":[{"name":"h","count":999,"p50":1,"p95":2,"p99":12345,`+
		`"bounds":[10,20],"buckets":[3,1,0]}]}`)
	if !reflect.DeepEqual(forged, honest) {
		t.Fatalf("forged derived fields survived:\n got %+v\nwant %+v", forged, honest)
	}
	if h := honest.Histograms[0]; h.Count != 4 || h.P99 <= 10 || h.P99 > 20 {
		t.Fatalf("recomputed count %d p99 %v", h.Count, h.P99)
	}
}

// TestDecodeStatsFullForgedCounterCount: a counter's value must be an
// int64; anything else fails with the sentinel.
func TestDecodeStatsFullForgedCounterCount(t *testing.T) {
	for _, v := range []string{"1e30", "1.5", `"7"`, "9223372036854775808", "{}"} {
		rejectStats(t, "counter value "+v, []byte(`{"counters":[{"name":"c","value":`+v+`}]}`))
	}
}

// TestDecodeStatsFullForgedBoundsCount: a histogram needs exactly one
// bucket more than it has bounds.
func TestDecodeStatsFullForgedBoundsCount(t *testing.T) {
	for _, h := range []string{
		`{"name":"h","bounds":[1,2],"buckets":[0,0]}`,
		`{"name":"h","bounds":[1],"buckets":[0,0,0]}`,
		`{"name":"h","bounds":[1]}`,
		`{"name":"h"}`,
	} {
		rejectStats(t, h, []byte(`{"histograms":[`+h+`]}`))
	}
}

// TestDecodeStatsFullForgedNameLen: a name that is not a string, or whose
// string runs past the end of the body, fails with the sentinel.
func TestDecodeStatsFullForgedNameLen(t *testing.T) {
	rejectStats(t, "numeric name", []byte(`{"gauges":[{"name":12,"value":1}]}`))
	rejectStats(t, "unterminated name", []byte(`{"gauges":[{"name":"`+strings.Repeat("x", 4096)))
}

func TestDecodeStatsFullTruncated(t *testing.T) {
	full := EncodeStatsFull(sampleSnapshot())
	// Every proper prefix of a JSON object is unterminated.
	for n := 0; n < len(full); n++ {
		if _, err := DecodeStatsFull(full[:n]); !errors.Is(err, ErrBadStats) {
			t.Fatalf("truncation at %d/%d: %v", n, len(full), err)
		}
	}
}

func TestDecodeStatsFullTrailingBytes(t *testing.T) {
	full := EncodeStatsFull(sampleSnapshot())
	rejectStats(t, "trailing byte", append(full, 0))
	rejectStats(t, "second value", append(full, "{}"...))
}

// TestDecodeStatsFullBadMagicVersion: a body that opens with the binary
// magic fails whatever its version byte, and so does any JSON value that
// is not an object.
func TestDecodeStatsFullBadMagicVersion(t *testing.T) {
	b := binaryStatsBody(4)
	for v := 0; v < 256; v++ {
		b[4] = byte(v)
		rejectStats(t, "binary magic", b)
	}
	for _, body := range []string{`[]`, `7`, `"stats"`, `true`} {
		rejectStats(t, body, []byte(body))
	}
}
