package netproto

import (
	"encoding/json"
	"errors"
	"fmt"

	"eleos/internal/metrics"
	"eleos/internal/trace"
)

// The stats_full and trace_dump response bodies are the encoding/json
// forms of metrics.Snapshot and trace.Dump, under their json tags: the
// snapshot body is the JSON `eleosctl stats -json` prints (DESIGN.md
// §7.3). Every value is keyed by name and a decoder ignores keys it does
// not know, so a new instrument, section or event field needs no version
// byte and an older reader still decodes the body. A binary body from
// before the JSON form is not JSON and fails with the sentinel.
//
// The decoders treat the body as hostile: the frame reader caps its size
// (DefaultMaxFrameBytes), every parse error wraps ErrBadStats or
// ErrBadTrace, and a histogram's derived fields are never taken from the
// wire — Count is the sum of the buckets and P50/P95/P99 come from
// Finalize, so both ends agree field-for-field.

// ErrBadStats reports a malformed stats_full body.
var ErrBadStats = errors.New("netproto: malformed stats snapshot")

// ErrBadTrace reports a malformed trace_dump body.
var ErrBadTrace = errors.New("netproto: malformed trace dump")

// EncodeStatsFull serialises a snapshot into the stats_full response
// body.
func EncodeStatsFull(s metrics.Snapshot) []byte { return mustJSON(s) }

// DecodeStatsFull parses a stats_full response body back into the
// snapshot. A histogram needs one more bucket than it has bounds (the
// overflow bucket); its Count and quantiles are recomputed. Empty
// sections decode as nil slices, mirroring what Registry.Snapshot
// produces, so a decoded snapshot compares deep-equal to the encoded one.
func DecodeStatsFull(body []byte) (metrics.Snapshot, error) {
	var s metrics.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("%w: %v", ErrBadStats, err)
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		if len(h.Buckets) != len(h.Bounds)+1 {
			return metrics.Snapshot{}, fmt.Errorf("%w: histogram %q has %d buckets for %d bounds",
				ErrBadStats, h.Name, len(h.Buckets), len(h.Bounds))
		}
		h.Count = 0
		for _, n := range h.Buckets {
			h.Count += n
		}
		h.Finalize()
	}
	return s, nil
}

// EncodeTraceDump serialises a flight-recorder dump into the trace_dump
// response body.
func EncodeTraceDump(d trace.Dump) []byte { return mustJSON(d) }

// DecodeTraceDump parses a trace_dump response body. An empty event list
// decodes as a nil slice, mirroring what Recorder.Dump produces for a nil
// recorder.
func DecodeTraceDump(body []byte) (trace.Dump, error) {
	var d trace.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		return trace.Dump{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return d, nil
}

// mustJSON marshals a snapshot or a dump. Both hold only integers,
// strings and the finite quantiles Finalize computes, so marshalling
// cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("netproto: marshal %T: %v", v, err))
	}
	return b
}
