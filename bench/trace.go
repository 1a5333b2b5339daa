package main

import (
	"fmt"
	"io"
	"sort"
)

// The traced run records one span per call the benchmark makes across a
// layer boundary. Spans are taken from the benchmark's own files, around
// the calls into each layer; the program is not instrumented. They are
// kept in memory, one recorder per client so recording takes no lock, and
// written out when the run ends.

type spanKind uint8

const (
	kOp              spanKind = iota // root: one per flush or read operation
	kGen                             // building the operation's input
	kEncode                          // probe: core.AppendBatch on the same batch
	kDecodeView                      // probe: core.AppendBatchView on that wire image
	kClientFlush                     // client.Session.Flush
	kClientRead                      // client.Client.Read
	kClientReadBatch                 // client.Client.ReadBatch
	kCoreWriteBatch                  // core.Controller.WriteBatch
	kCoreRead                        // core.Controller.Read
	kCoreReadBatch                   // core.Controller.ReadBatch
	kVerify                          // comparing a read's bytes with the model
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "gen", "core.encode", "core.decode_view",
	"client.flush", "client.read", "client.read_batch",
	"core.write_batch", "core.read", "core.read_batch", "verify",
}

func (k spanKind) String() string { return spanNames[k] }

// MarshalText writes a span's kind as its name.
func (k spanKind) MarshalText() ([]byte, error) { return []byte(spanNames[k]), nil }

// span is one timed call. Start and End are nanoseconds since the pass's
// timed phase began; Parent indexes the list the span is in (-1 for a
// root); the spans of one operation share Op.
type span struct {
	Kind   spanKind `json:"name"`
	Op     int      `json:"op"`
	Parent int      `json:"parent"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Bytes  int      `json:"bytes"`
	Pages  int      `json:"pages"`
}

// recorder holds the spans of one client of one traced pass, and is how
// they are written out: Parent means nothing across lists.
type recorder struct {
	Pass   string `json:"pass"` // "wire" or "in_process"
	Client int    `json:"client"`
	Spans  []span `json:"spans"`
	ops    int
}

// root opens the operation's root span and returns its index.
func (r *recorder) root(start int64) int {
	r.ops++
	r.Spans = append(r.Spans, span{Kind: kOp, Op: r.ops, Parent: -1, Start: start})
	return len(r.Spans) - 1
}

// child records a finished call under root and extends the root to cover it.
func (r *recorder) child(root int, k spanKind, start, end int64, bytes, pages int) {
	r.Spans = append(r.Spans, span{Kind: k, Op: r.Spans[root].Op, Parent: root,
		Start: start, End: end, Bytes: bytes, Pages: pages})
	r.Spans[root].End = end
}

// selfTime is one row of the per-layer table: a span kind's total time and
// the part of it no child span covers.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
	Bytes   int64   `json:"bytes"`
}

// selfTimes folds the recorders into the table. Children of one root do
// not overlap (one client makes one call at a time), so a root's self time
// is its duration minus the sum of its children's.
func selfTimes(recs []*recorder) []selfTime {
	var total, self [numSpanKinds]int64
	var bytes [numSpanKinds]int64
	var durs [numSpanKinds][]int64
	for _, r := range recs {
		for _, s := range r.Spans {
			d := s.End - s.Start
			total[s.Kind] += d
			self[s.Kind] += d
			bytes[s.Kind] += int64(s.Bytes)
			durs[s.Kind] = append(durs[s.Kind], d)
			if s.Parent >= 0 {
				self[r.Spans[s.Parent].Kind] -= d
			}
		}
	}
	var out []selfTime
	for k := spanKind(0); k < numSpanKinds; k++ {
		if len(durs[k]) == 0 {
			continue
		}
		out = append(out, selfTime{Name: k.String(), Count: len(durs[k]),
			TotalMS: float64(total[k]) / 1e6, SelfMS: float64(self[k]) / 1e6,
			P50US: quantile(durs[k], 0.5) / 1e3, Bytes: bytes[k]})
	}
	return out
}

// spanP50 is the median duration of one span kind, in microseconds (0 if
// the pass recorded none).
func spanP50(recs []*recorder, k spanKind) float64 {
	var d []int64
	for _, r := range recs {
		for _, s := range r.Spans {
			if s.Kind == k {
				d = append(d, s.End-s.Start)
			}
		}
	}
	return quantile(d, 0.5) / 1e3
}

// spanNSPerKB is a span kind's total time over its total bytes.
func spanNSPerKB(recs []*recorder, k spanKind) float64 {
	var ns, bytes int64
	for _, r := range recs {
		for _, s := range r.Spans {
			if s.Kind == k {
				ns += s.End - s.Start
				bytes += int64(s.Bytes)
			}
		}
	}
	if bytes == 0 {
		return 0
	}
	return float64(ns) / (float64(bytes) / 1024)
}

func printSelfTimes(w io.Writer, pass string, rows []selfTime) {
	fmt.Fprintf(w, "  self time, %s pass\n", pass)
	fmt.Fprintf(w, "    %-18s %8s %12s %12s %10s\n", "span", "count", "total ms", "self ms", "p50 us")
	for _, r := range rows {
		fmt.Fprintf(w, "    %-18s %8d %12.1f %12.1f %10.1f\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.P50US)
	}
}

// quantile returns the q-quantile of v by nearest rank (0 for no samples).
// It sorts v in place.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(q*float64(len(v))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return float64(v[i])
}
