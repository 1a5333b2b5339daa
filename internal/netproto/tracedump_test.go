package netproto

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"eleos/internal/trace"
)

func sampleDump() trace.Dump {
	return trace.Dump{
		EpochUnixNano: 1700000000123456789,
		Dropped:       42,
		Events: []trace.Event{
			{Seq: 43, Kind: trace.KBatchStart, TS: 100, TraceID: 7, SID: 1, WSN: 9, Arg1: 4},
			{Seq: 44, Kind: trace.KClaim, TS: 150, Dur: 2000, TraceID: 7, SID: 1, WSN: 9},
			{Seq: 45, Kind: trace.KWalForce, TS: 5000, Dur: 12000, Arg1: 1, Arg2: 6},
			{Seq: 46, Kind: trace.KGC, TS: 9000, Dur: 300, Arg1: 3, Arg2: -17},
		},
	}
}

// binaryTraceBody is a trace_dump body in the binary layout the JSON body
// replaced (little-endian: magic "ELTR" | version 1 | epoch | dropped |
// count | 65-byte entries), holding one event.
func binaryTraceBody() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x454C5452)
	b = append(b, 1)
	b = le.AppendUint64(b, 5) // epoch
	b = le.AppendUint64(b, 0) // dropped
	b = le.AppendUint32(b, 1) // events
	b = append(b, byte(trace.KGC))
	return append(b, make([]byte, 64)...)
}

func TestTraceDumpRoundTrip(t *testing.T) {
	d := sampleDump()
	got, err := DecodeTraceDump(EncodeTraceDump(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestTraceDumpEmpty(t *testing.T) {
	d := trace.Dump{EpochUnixNano: 5, Dropped: 0}
	got, err := DecodeTraceDump(EncodeTraceDump(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("empty round trip: %+v", got)
	}
	if got.Events != nil {
		t.Fatalf("empty events must decode as nil slice: %+v", got.Events)
	}
}

// TestDecodeTraceDumpForgedCount: the dropped count and every event field
// must fit its integer type; a forged value fails with the sentinel.
func TestDecodeTraceDumpForgedCount(t *testing.T) {
	for _, body := range []string{
		`{"dropped":-1}`,
		`{"dropped":1e30}`,
		`{"events":[{"kind":256}]}`,
		`{"events":[{"seq":-4}]}`,
		`{"events":7}`,
	} {
		if _, err := DecodeTraceDump([]byte(body)); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: %v, want ErrBadTrace", body, err)
		}
	}
}

func TestDecodeTraceDumpTruncated(t *testing.T) {
	full := EncodeTraceDump(sampleDump())
	// Every proper prefix must fail cleanly, never panic.
	for n := 0; n < len(full); n++ {
		if _, err := DecodeTraceDump(full[:n]); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation at %d/%d: %v", n, len(full), err)
		}
	}
}

func TestDecodeTraceDumpTrailingBytes(t *testing.T) {
	full := EncodeTraceDump(sampleDump())
	if _, err := DecodeTraceDump(append(full, 0)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("trailing byte: %v, want ErrBadTrace", err)
	}
}

// TestDecodeTraceDumpBadMagicVersion: a binary v1 body from before the
// JSON form fails with the sentinel, whatever its version byte.
func TestDecodeTraceDumpBadMagicVersion(t *testing.T) {
	b := binaryTraceBody()
	for v := 0; v < 256; v++ {
		b[4] = byte(v)
		if _, err := DecodeTraceDump(b); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("binary body version %d: %v, want ErrBadTrace", v, err)
		}
	}
}

func TestFlushTracedBodyRoundTrip(t *testing.T) {
	wire := []byte{1, 2, 3, 4, 5}
	body := append(AppendFlushHead(nil, 77, 3, 12), wire...)
	traceID, sid, wsn, gotWire, err := ParseFlush(body)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != 77 || sid != 3 || wsn != 12 || !reflect.DeepEqual(gotWire, wire) {
		t.Fatalf("parsed %d/%d/%d/%v", traceID, sid, wsn, gotWire)
	}
	for n := 0; n < 24; n++ {
		if _, _, _, _, err := ParseFlush(body[:n]); !errors.Is(err, ErrShortBody) {
			t.Fatalf("short traced flush at %d: %v", n, err)
		}
	}
}
