package netproto

import (
	"errors"
	"testing"

	"eleos/internal/metrics"
	"eleos/internal/trace"
)

// FuzzDecodeStatsFull feeds arbitrary bytes to the stats_full decoder
// (mirroring core's FuzzDecodeBatch): it must reject with ErrBadStats or
// accept without panicking or over-allocating, and anything it accepts
// must re-encode to the identical byte string (the codec is canonical:
// one valid encoding per snapshot). The seeds include a v4 body carrying
// the census gauges and a v3 body, which must be rejected.
func FuzzDecodeStatsFull(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeStatsFull(metrics.Snapshot{}))
	reg := metrics.New()
	reg.Counter("a").Add(1)
	reg.Gauge("g").Set(-7)
	reg.Histogram("h", metrics.DurationBounds()).Observe(1234)
	snap := reg.Snapshot()
	sampleHealth().AddGauges(&snap)
	f.Add(EncodeStatsFull(snap))
	f.Add(v3Body())
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeStatsFull(data)
		if err != nil {
			if !errors.Is(err, ErrBadStats) {
				t.Fatalf("rejected without ErrBadStats: %v", err)
			}
			return
		}
		re := EncodeStatsFull(snap)
		if string(re) != string(data) {
			t.Fatalf("accepted non-canonical encoding:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeOpenSession: same contract for the open_session tenant-tag
// codec — no panics, and any body the parser accepts must re-encode to
// the identical bytes. Canonicality here has teeth: the default tag has
// exactly one encoding (the legacy empty body), so the fuzzer proves the
// versioned form can never alias it.
func FuzzDecodeOpenSession(f *testing.F) {
	f.Add([]byte{})
	if b, err := OpenSessionBody("tenant-a", 3); err == nil {
		f.Add(b)
	}
	if b, err := OpenSessionBody("", 255); err == nil {
		f.Add(b)
	}
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tenant, prio, err := ParseOpenSession(data)
		if err != nil {
			return
		}
		re, err := OpenSessionBody(tenant, prio)
		if err != nil {
			t.Fatalf("accepted (%q, %d) does not re-encode: %v", tenant, prio, err)
		}
		if string(re) != string(data) {
			t.Fatalf("accepted non-canonical encoding:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeTraceDump: same contract for the trace_dump codec — no
// panics, no over-allocation, and accepted inputs re-encode
// byte-identically (the 65-byte fixed entries make the codec canonical).
func FuzzDecodeTraceDump(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTraceDump(trace.Dump{}))
	f.Add(EncodeTraceDump(sampleDump()))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeTraceDump(data)
		if err != nil {
			return
		}
		re := EncodeTraceDump(d)
		if string(re) != string(data) {
			t.Fatalf("accepted non-canonical encoding:\n in  %x\n out %x", data, re)
		}
	})
}
