package netproto

import (
	"encoding/binary"
	"errors"
	"reflect"
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

// v3Body is a faithful empty version-3 body: the v4 sections, then v3's
// empty labels section and its fixed 304-byte health block of zeros.
func v3Body() []byte {
	b := EncodeStatsFull(metrics.Snapshot{})
	b[4] = 3
	return append(b, make([]byte, 4+304)...)
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

func TestDecodeStatsFullRejectsOldVersions(t *testing.T) {
	// Older bodies are rejected outright rather than defaulted: a
	// defaulted section would give one snapshot two valid encodings and
	// break canonicality.
	full := EncodeStatsFull(metrics.Snapshot{})
	for _, v := range []byte{1, 2, 3} {
		b := append([]byte(nil), full...)
		b[4] = v
		if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
			t.Fatalf("v%d body: %v, want ErrBadStats", v, err)
		}
	}
	if _, err := DecodeStatsFull(v3Body()); !errors.Is(err, ErrBadStats) {
		t.Fatalf("faithful v3 body: %v, want ErrBadStats", err)
	}
}

func TestDecodeStatsFullForgedHistogramCount(t *testing.T) {
	full := EncodeStatsFull(metrics.Snapshot{})
	// Overwrite the nHists word (the body's last) with a giant count; the
	// remaining bytes cannot hold it.
	b := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(b[len(b)-4:], 1<<31)
	if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
		t.Fatalf("forged histogram count: %v, want ErrBadStats", err)
	}
}

func TestDecodeStatsFullForgedCounterCount(t *testing.T) {
	// A forged counter count must be rejected before it can size an
	// allocation: claim 2^31 counters in a tiny buffer.
	b := binary.LittleEndian.AppendUint32(nil, statsMagic)
	b = append(b, statsVersion)
	b = binary.LittleEndian.AppendUint32(b, 1<<31)
	if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
		t.Fatalf("forged count: %v, want ErrBadStats", err)
	}
}

func TestDecodeStatsFullForgedBoundsCount(t *testing.T) {
	// One histogram claiming 65535 bounds in a short buffer.
	b := binary.LittleEndian.AppendUint32(nil, statsMagic)
	b = append(b, statsVersion)
	b = binary.LittleEndian.AppendUint32(b, 0) // counters
	b = binary.LittleEndian.AppendUint32(b, 0) // gauges
	b = binary.LittleEndian.AppendUint32(b, 1) // histograms
	b = binary.LittleEndian.AppendUint16(b, 1) // name len
	b = append(b, 'h')
	b = binary.LittleEndian.AppendUint64(b, 0)      // sum
	b = binary.LittleEndian.AppendUint16(b, 0xFFFF) // forged nBounds
	if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
		t.Fatalf("forged bounds: %v, want ErrBadStats", err)
	}
}

func TestDecodeStatsFullForgedNameLen(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, statsMagic)
	b = append(b, statsVersion)
	b = binary.LittleEndian.AppendUint32(b, 1)      // one counter...
	b = binary.LittleEndian.AppendUint16(b, 0xFFFF) // ...whose name overruns
	b = append(b, make([]byte, 8)...)
	if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
		t.Fatalf("forged name len: %v, want ErrBadStats", err)
	}
}

func TestDecodeStatsFullTruncated(t *testing.T) {
	full := EncodeStatsFull(sampleSnapshot())
	// Every proper prefix must fail cleanly, never panic: truncation
	// always cuts into an entry some section count declared.
	for n := 0; n < len(full); n++ {
		if _, err := DecodeStatsFull(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", n, len(full))
		}
	}
}

func TestDecodeStatsFullTrailingBytes(t *testing.T) {
	full := EncodeStatsFull(sampleSnapshot())
	if _, err := DecodeStatsFull(append(full, 0)); !errors.Is(err, ErrBadStats) {
		t.Fatalf("trailing byte: %v, want ErrBadStats", err)
	}
}

func TestDecodeStatsFullBadMagicVersion(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 0xDEADBEEF)
	b = append(b, statsVersion)
	if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
		t.Fatalf("bad magic: %v", err)
	}
	b = binary.LittleEndian.AppendUint32(nil, statsMagic)
	b = append(b, 99)
	if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
		t.Fatalf("bad version: %v", err)
	}
}
