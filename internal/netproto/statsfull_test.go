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
	snap.Labels = append(snap.Labels, metrics.Label{Key: "gc.policy", Value: "min-cost-decline"})
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

func sampleStatsFull() StatsFull {
	return StatsFull{Snap: sampleSnapshot(), Health: sampleHealth()}
}

func TestStatsFullRoundTrip(t *testing.T) {
	sf := sampleStatsFull()
	body := EncodeStatsFull(sf)
	got, err := DecodeStatsFull(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sf) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, sf)
	}
}

func TestStatsFullEmptySnapshot(t *testing.T) {
	var sf StatsFull
	got, err := DecodeStatsFull(EncodeStatsFull(sf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sf) {
		t.Fatalf("empty round trip: %+v", got)
	}
	s := got.Snap
	if s.Counters != nil || s.Gauges != nil || s.Histograms != nil || s.Labels != nil {
		t.Fatalf("empty sections must decode as nil slices: %+v", s)
	}
}

func TestStatsFullLabelsRoundTrip(t *testing.T) {
	sf := StatsFull{Snap: metrics.Snapshot{Labels: []metrics.Label{
		{Key: "gc.policy", Value: "wear-aware"},
		{Key: "", Value: ""}, // empty key/value are legal on the wire
	}}}
	got, err := DecodeStatsFull(EncodeStatsFull(sf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sf) {
		t.Fatalf("labels round trip:\n got %+v\nwant %+v", got, sf)
	}
	if got.Snap.Label("gc.policy") != "wear-aware" {
		t.Fatalf("Label lookup = %q", got.Snap.Label("gc.policy"))
	}
}

func TestDecodeStatsFullRejectsOldVersions(t *testing.T) {
	// v1 and v2 bodies are rejected outright rather than defaulted: a
	// defaulted missing section (v1's labels, v2's health block) would
	// give one payload two valid encodings and break canonicality.
	full := EncodeStatsFull(StatsFull{})
	for _, v := range []byte{1, 2} {
		b := append([]byte(nil), full...)
		b[4] = v
		if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
			t.Fatalf("v%d body: %v, want ErrBadStats", v, err)
		}
	}
	// A faithful v2 body — no trailing health block — must fail even
	// before its version byte is inspected differently: decode stops at
	// the missing block.
	v2 := append([]byte(nil), full[:len(full)-health.WireBytes]...)
	if _, err := DecodeStatsFull(v2); !errors.Is(err, ErrBadStats) {
		t.Fatalf("missing health block: %v, want ErrBadStats", err)
	}
}

func TestDecodeStatsFullForgedLabelCount(t *testing.T) {
	full := EncodeStatsFull(StatsFull{})
	// Overwrite the nLabels word (just ahead of the health block) with a
	// giant count; the remaining bytes cannot hold it.
	b := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(b[len(b)-health.WireBytes-4:], 1<<31)
	if _, err := DecodeStatsFull(b); !errors.Is(err, ErrBadStats) {
		t.Fatalf("forged label count: %v, want ErrBadStats", err)
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
	full := EncodeStatsFull(sampleStatsFull())
	// Every proper prefix must fail cleanly, never panic. Truncation
	// always eats into (at least) the trailing health block, which is
	// required to be exactly health.WireBytes.
	for n := 0; n < len(full); n++ {
		if _, err := DecodeStatsFull(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", n, len(full))
		}
	}
}

func TestDecodeStatsFullTrailingBytes(t *testing.T) {
	full := EncodeStatsFull(sampleStatsFull())
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

func TestHealthBinaryRoundTrip(t *testing.T) {
	h := sampleHealth()
	b := h.AppendBinary(nil)
	if len(b) != health.WireBytes {
		t.Fatalf("encoded %d bytes, want %d", len(b), health.WireBytes)
	}
	got, err := health.DecodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("health round trip:\n got %+v\nwant %+v", got, h)
	}
	if _, err := health.DecodeBinary(b[:len(b)-1]); err == nil {
		t.Fatal("short health block accepted")
	}
}
