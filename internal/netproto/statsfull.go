package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"eleos/internal/metrics"
)

// The stats_full response body carries a full metrics.Snapshot in a
// binary layout (little-endian throughout):
//
//	magic u32 | version u8
//	nCounters u32 | { nameLen u16 | name | value i64 } ...
//	nGauges   u32 | { nameLen u16 | name | value i64 } ...
//	nHists    u32 | { nameLen u16 | name | sum i64 | nBounds u16 |
//	                  bounds i64 × nBounds | buckets i64 × (nBounds+1) } ...
//
// Every section is keyed by name, so a new instrument of any kind — the
// device-health census included, which rides as health.* gauges — needs
// no version bump; only a new section kind would. The decoder is
// strict-v4: older bodies are rejected rather than defaulted, so one
// snapshot keeps one valid encoding.
//
// Derived histogram fields (Count, P50/P95/P99) are NOT on the wire:
// Count is by construction the sum of the bucket values and the
// quantiles are a pure function of Bounds/Buckets, so the decoder
// recomputes them via Finalize and both ends agree field-for-field.
//
// Like core.AppendBatchView, the decoder treats every length and count as
// hostile: section counts are capped by the bytes actually remaining
// (divided by the minimum entry size), names and bound tables are
// bounds-checked before any allocation sized from them, and trailing
// bytes are an error.

const (
	statsMagic   = 0x454C4D53 // "ELMS"
	statsVersion = 4

	maxStatsName   = 4096 // instrument names are short; forged ones need not be honored
	maxStatsBounds = 4096 // DurationBounds is 24; a forged table must not size an alloc
)

// ErrBadStats reports a malformed stats_full body.
var ErrBadStats = errors.New("netproto: malformed stats snapshot")

// EncodeStatsFull serialises a snapshot into the stats_full response
// body.
func EncodeStatsFull(s metrics.Snapshot) []byte {
	n := 5 + 12
	for _, c := range s.Counters {
		n += 10 + len(c.Name)
	}
	for _, g := range s.Gauges {
		n += 10 + len(g.Name)
	}
	for _, h := range s.Histograms {
		n += 12 + len(h.Name) + 8*len(h.Bounds) + 8*len(h.Buckets)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint32(b, statsMagic)
	b = append(b, statsVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Counters)))
	for _, c := range s.Counters {
		b = appendStatsName(b, c.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Value))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Gauges)))
	for _, g := range s.Gauges {
		b = appendStatsName(b, g.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(g.Value))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Histograms)))
	for _, h := range s.Histograms {
		b = appendStatsName(b, h.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(h.Sum))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(h.Bounds)))
		for _, v := range h.Bounds {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		for _, v := range h.Buckets {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	return b
}

func appendStatsName(b []byte, name string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	return append(b, name...)
}

// statsReader walks a stats_full body with bounds checks on every read.
type statsReader struct {
	b   []byte
	off int
}

func (r *statsReader) remaining() int { return len(r.b) - r.off }

func (r *statsReader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("%w: truncated u16", ErrBadStats)
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *statsReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated u32", ErrBadStats)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *statsReader) i64() (int64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated i64", ErrBadStats)
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *statsReader) name() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxStatsName {
		return "", fmt.Errorf("%w: name length %d", ErrBadStats, n)
	}
	if r.remaining() < int(n) {
		return "", fmt.Errorf("%w: truncated name", ErrBadStats)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// sectionCount reads a section's element count and rejects counts the
// remaining bytes cannot possibly hold (minEntry is the smallest legal
// wire size of one element), so a forged count cannot size a giant
// preallocation.
func (r *statsReader) sectionCount(minEntry int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minEntry) > int64(r.remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds buffer capacity", ErrBadStats, n)
	}
	return int(n), nil
}

// DecodeStatsFull parses a stats_full response body back into the
// snapshot, recomputing the derived histogram fields. Empty sections
// decode as nil slices, mirroring what Registry.Snapshot produces, so a
// decoded snapshot compares deep-equal to the one that was encoded.
func DecodeStatsFull(body []byte) (metrics.Snapshot, error) {
	var s metrics.Snapshot
	r := &statsReader{b: body}
	magic, err := r.u32()
	if err != nil {
		return s, err
	}
	if magic != statsMagic {
		return s, fmt.Errorf("%w: magic", ErrBadStats)
	}
	if r.remaining() < 1 {
		return s, fmt.Errorf("%w: truncated version", ErrBadStats)
	}
	if v := r.b[r.off]; v != statsVersion {
		return s, fmt.Errorf("%w: version %d", ErrBadStats, v)
	}
	r.off++

	nc, err := r.sectionCount(10) // nameLen + empty name + value
	if err != nil {
		return s, err
	}
	for i := 0; i < nc; i++ {
		name, err := r.name()
		if err != nil {
			return s, err
		}
		v, err := r.i64()
		if err != nil {
			return s, err
		}
		s.Counters = append(s.Counters, metrics.CounterValue{Name: name, Value: v})
	}

	ng, err := r.sectionCount(10)
	if err != nil {
		return s, err
	}
	for i := 0; i < ng; i++ {
		name, err := r.name()
		if err != nil {
			return s, err
		}
		v, err := r.i64()
		if err != nil {
			return s, err
		}
		s.Gauges = append(s.Gauges, metrics.GaugeValue{Name: name, Value: v})
	}

	nh, err := r.sectionCount(12 + 8) // nameLen + sum + nBounds + overflow bucket
	if err != nil {
		return s, err
	}
	for i := 0; i < nh; i++ {
		name, err := r.name()
		if err != nil {
			return s, err
		}
		sum, err := r.i64()
		if err != nil {
			return s, err
		}
		nb, err := r.u16()
		if err != nil {
			return s, err
		}
		if int(nb) > maxStatsBounds {
			return s, fmt.Errorf("%w: %d bounds", ErrBadStats, nb)
		}
		// nb bounds plus nb+1 buckets, 8 bytes each — checked as one
		// product before either allocation.
		need := (2*int(nb) + 1) * 8
		if r.remaining() < need {
			return s, fmt.Errorf("%w: truncated histogram", ErrBadStats)
		}
		hv := metrics.HistogramValue{
			Name:    name,
			Sum:     sum,
			Buckets: make([]int64, int(nb)+1),
		}
		if nb > 0 {
			hv.Bounds = make([]int64, int(nb))
			for j := range hv.Bounds {
				hv.Bounds[j], _ = r.i64()
			}
		}
		var count int64
		for j := range hv.Buckets {
			hv.Buckets[j], _ = r.i64()
			count += hv.Buckets[j]
		}
		hv.Count = count
		hv.Finalize()
		s.Histograms = append(s.Histograms, hv)
	}

	if r.remaining() != 0 {
		return s, fmt.Errorf("%w: %d trailing bytes", ErrBadStats, r.remaining())
	}
	return s, nil
}
