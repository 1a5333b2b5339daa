package netproto

import (
	"errors"
	"reflect"
	"testing"

	"eleos/internal/metrics"
	"eleos/internal/trace"
)

// The JSON bodies have no single canonical byte form (key order, spacing,
// escapes and unknown keys all vary), so both snapshot decoders are held
// to four rules instead: never panic; reject only with the sentinel; an
// accepted body re-encodes to one that decodes deep-equal; and every
// accepted histogram is well-formed.

// FuzzDecodeStatsFull feeds arbitrary bytes to the stats_full decoder.
// The seeds are the empty body, an empty snapshot, a snapshot carrying
// the census gauges and a binary v4 body from before the JSON form
// (TestDecodeStatsFullRejectsOldVersions pins its rejection).
func FuzzDecodeStatsFull(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeStatsFull(metrics.Snapshot{}))
	f.Add(EncodeStatsFull(sampleSnapshot()))
	f.Add(binaryStatsBody(4))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeStatsFull(data)
		if err != nil {
			if !errors.Is(err, ErrBadStats) {
				t.Fatalf("rejected without ErrBadStats: %v", err)
			}
			return
		}
		for _, h := range snap.Histograms {
			var n int64
			for _, b := range h.Buckets {
				n += b
			}
			if len(h.Buckets) != len(h.Bounds)+1 || h.Count != n {
				t.Fatalf("accepted malformed histogram %+v", h)
			}
		}
		again, err := DecodeStatsFull(EncodeStatsFull(snap))
		if err != nil || !reflect.DeepEqual(again, snap) {
			t.Fatalf("re-encoding does not decode to the same snapshot (%v):\n got %+v\nwant %+v", err, again, snap)
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

// FuzzDecodeTraceDump holds the trace_dump decoder to the same rules.
// The seeds are the empty body, an empty dump, a dump with every field
// set and a binary v1 body (TestDecodeTraceDumpBadMagicVersion pins its
// rejection).
func FuzzDecodeTraceDump(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTraceDump(trace.Dump{}))
	f.Add(EncodeTraceDump(sampleDump()))
	f.Add(binaryTraceBody())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeTraceDump(data)
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("rejected without ErrBadTrace: %v", err)
			}
			return
		}
		again, err := DecodeTraceDump(EncodeTraceDump(d))
		if err != nil || !reflect.DeepEqual(again, d) {
			t.Fatalf("re-encoding does not decode to the same dump (%v):\n got %+v\nwant %+v", err, again, d)
		}
	})
}
