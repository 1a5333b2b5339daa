package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"eleos/internal/trace"
)

// The trace_dump response body carries a trace.Dump in a binary layout
// (little-endian throughout):
//
//	magic u32 | version u8
//	epochUnixNano i64 | dropped u64 | nEvents u32
//	{ kind u8 | seq u64 | ts i64 | dur i64 |
//	  traceID u64 | sid u64 | wsn u64 | arg1 i64 | arg2 i64 } × nEvents
//
// Every entry is a fixed 65 bytes, so the decoder caps the claimed event
// count by the bytes actually remaining before sizing any allocation,
// and trailing bytes are an error — the same hostile-input posture as
// stats_full and core.AppendBatchView. The codec is canonical (one valid
// encoding per dump), which FuzzDecodeTraceDump relies on.

const (
	traceMagic     = 0x454C5452 // "ELTR"
	traceVersion   = 1
	traceEntrySize = 65
)

// ErrBadTrace reports a malformed trace_dump body.
var ErrBadTrace = errors.New("netproto: malformed trace dump")

// EncodeTraceDump serialises a flight-recorder dump into the trace_dump
// response body.
func EncodeTraceDump(d trace.Dump) []byte {
	b := make([]byte, 0, 25+traceEntrySize*len(d.Events))
	b = binary.LittleEndian.AppendUint32(b, traceMagic)
	b = append(b, traceVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(d.EpochUnixNano))
	b = binary.LittleEndian.AppendUint64(b, d.Dropped)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Events)))
	for _, ev := range d.Events {
		b = append(b, byte(ev.Kind))
		b = binary.LittleEndian.AppendUint64(b, ev.Seq)
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.TS))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Dur))
		b = binary.LittleEndian.AppendUint64(b, ev.TraceID)
		b = binary.LittleEndian.AppendUint64(b, ev.SID)
		b = binary.LittleEndian.AppendUint64(b, ev.WSN)
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Arg1))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Arg2))
	}
	return b
}

// DecodeTraceDump parses a trace_dump response body. An empty event
// section decodes as a nil slice, mirroring what Recorder.Dump produces
// for a nil recorder.
func DecodeTraceDump(body []byte) (trace.Dump, error) {
	var d trace.Dump
	if len(body) < 25 {
		return d, fmt.Errorf("%w: truncated header", ErrBadTrace)
	}
	if magic := binary.LittleEndian.Uint32(body); magic != traceMagic {
		return d, fmt.Errorf("%w: magic", ErrBadTrace)
	}
	if v := body[4]; v != traceVersion {
		return d, fmt.Errorf("%w: version %d", ErrBadTrace, v)
	}
	d.EpochUnixNano = int64(binary.LittleEndian.Uint64(body[5:]))
	d.Dropped = binary.LittleEndian.Uint64(body[13:])
	n := binary.LittleEndian.Uint32(body[21:])
	rest := body[25:]
	if int64(n)*traceEntrySize > int64(len(rest)) {
		return d, fmt.Errorf("%w: count %d exceeds buffer capacity", ErrBadTrace, n)
	}
	if int(n)*traceEntrySize != len(rest) {
		return d, fmt.Errorf("%w: %d trailing bytes", ErrBadTrace, len(rest)-int(n)*traceEntrySize)
	}
	if n == 0 {
		return d, nil
	}
	d.Events = make([]trace.Event, n)
	for i := range d.Events {
		e := rest[i*traceEntrySize:]
		d.Events[i] = trace.Event{
			Kind:    trace.Kind(e[0]),
			Seq:     binary.LittleEndian.Uint64(e[1:]),
			TS:      int64(binary.LittleEndian.Uint64(e[9:])),
			Dur:     int64(binary.LittleEndian.Uint64(e[17:])),
			TraceID: binary.LittleEndian.Uint64(e[25:]),
			SID:     binary.LittleEndian.Uint64(e[33:]),
			WSN:     binary.LittleEndian.Uint64(e[41:]),
			Arg1:    int64(binary.LittleEndian.Uint64(e[49:])),
			Arg2:    int64(binary.LittleEndian.Uint64(e[57:])),
		}
	}
	return d, nil
}
