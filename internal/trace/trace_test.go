package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestRingBasicEmitDump(t *testing.T) {
	r := New(64)
	r.Emit(KBatchStart, 7, 3, 11, 2, 0)
	start := r.Now()
	time.Sleep(time.Millisecond)
	r.Span(KClaim, 7, 3, 11, start, 0, 0)
	d := r.Dump()
	if d.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", d.Dropped)
	}
	if len(d.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(d.Events))
	}
	e0, e1 := d.Events[0], d.Events[1]
	if e0.Kind != KBatchStart || e0.TraceID != 7 || e0.SID != 3 || e0.WSN != 11 || e0.Arg1 != 2 {
		t.Fatalf("event 0 = %+v", e0)
	}
	if e0.Dur != 0 {
		t.Fatalf("instant has dur %d", e0.Dur)
	}
	if e1.Kind != KClaim || e1.Dur <= 0 {
		t.Fatalf("span event = %+v, want positive dur", e1)
	}
	if e1.TS < e0.TS {
		t.Fatalf("span start %d before first instant %d", e1.TS, e0.TS)
	}
	if e0.Seq != 1 || e1.Seq != 2 {
		t.Fatalf("seqs = %d, %d", e0.Seq, e1.Seq)
	}
	// A span whose end the caller learned of late ends where it is told to.
	r.SpanUntil(KProgramWait, 7, 3, 11, start, start.Add(250*time.Microsecond), 0, 0)
	if e := r.Dump().Events[2]; e.Kind != KProgramWait || e.TS != e1.TS || e.Dur != int64(250*time.Microsecond) {
		t.Fatalf("span with a given end = %+v, want it to start with event 1 and last 250µs", e)
	}
}

// TestRingWraparound overfills a 64-slot ring and checks the survivors
// are exactly the newest 64 in ascending order with payloads intact.
func TestRingWraparound(t *testing.T) {
	r := New(64)
	const total = 200
	for i := 1; i <= total; i++ {
		r.Emit(KRequest, uint64(i), uint64(i*2), uint64(i*3), int64(i), int64(-i))
	}
	d := r.Dump()
	if want := uint64(total - 64); d.Dropped != want {
		t.Fatalf("dropped = %d, want %d", d.Dropped, want)
	}
	if len(d.Events) != 64 {
		t.Fatalf("events = %d, want 64", len(d.Events))
	}
	for i, ev := range d.Events {
		seq := uint64(total - 64 + 1 + i)
		if ev.Seq != seq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, seq)
		}
		if ev.TraceID != seq || ev.SID != seq*2 || ev.WSN != seq*3 ||
			ev.Arg1 != int64(seq) || ev.Arg2 != -int64(seq) {
			t.Fatalf("event %d payload mismatch: %+v", i, ev)
		}
	}
}

// TestRingDumpOrdering: dumps are deterministic and strictly ascending
// by Seq regardless of ring position.
func TestRingDumpOrdering(t *testing.T) {
	r := New(128)
	for i := 0; i < 300; i++ {
		r.Emit(KGC, 0, 0, 0, int64(i), 0)
	}
	d1 := r.Dump()
	d2 := r.Dump()
	if len(d1.Events) != len(d2.Events) || d1.Dropped != d2.Dropped {
		t.Fatalf("repeated dump differs: %d/%d vs %d/%d",
			len(d1.Events), d1.Dropped, len(d2.Events), d2.Dropped)
	}
	for i := range d1.Events {
		if d1.Events[i] != d2.Events[i] {
			t.Fatalf("event %d differs between dumps", i)
		}
		if i > 0 && d1.Events[i].Seq <= d1.Events[i-1].Seq {
			t.Fatalf("seq not ascending at %d: %d then %d",
				i, d1.Events[i-1].Seq, d1.Events[i].Seq)
		}
	}
}

// TestRingConcurrentHammer emits from many goroutines while dumping
// concurrently. Under -race this proves the slot protocol is data-race
// free; the payload invariant (traceID == sid == wsn == arg1 == -arg2
// per event) proves no dump ever returns a torn slot.
func TestRingConcurrentHammer(t *testing.T) {
	r := New(256)
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := r.Dump()
			for _, ev := range d.Events {
				if ev.SID != ev.TraceID || ev.WSN != ev.TraceID ||
					ev.Arg1 != int64(ev.TraceID) || ev.Arg2 != -int64(ev.TraceID) {
					t.Errorf("torn event: %+v", ev)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w*perWriter + i + 1)
				r.Emit(KFlashProgram, v, v, v, int64(v), -int64(v))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish first; then stop the dumper.
	for {
		if r.cursor.Load() >= writers*perWriter {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	d := r.Dump()
	if len(d.Events) != 256 {
		t.Fatalf("final dump = %d events, want full ring 256", len(d.Events))
	}
	if want := uint64(writers*perWriter - 256); d.Dropped != want {
		t.Fatalf("dropped = %d, want %d", d.Dropped, want)
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(KGC, 1, 2, 3, 4, 5)
	r.Span(KClaim, 1, 2, 3, r.Now(), 0, 0)
	if d := r.Dump(); len(d.Events) != 0 || d.Dropped != 0 {
		t.Fatalf("nil dump = %+v", d)
	}
	if !r.Now().IsZero() {
		t.Fatal("nil Now() must be zero")
	}
	if r.Size() != 0 {
		t.Fatalf("nil Size = %d", r.Size())
	}
	if id := r.NewTraceID(); id != 0 {
		t.Fatalf("nil NewTraceID = %d", id)
	}
	r = New(64)
	if a, b := r.NewTraceID(), r.NewTraceID(); a == 0 || b == 0 || a == b {
		t.Fatalf("trace IDs not unique/nonzero: %d, %d", a, b)
	}
}

func TestNewRoundsSizeUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {8000, 8192},
	} {
		if got := New(tc.in).Size(); got != tc.want {
			t.Fatalf("New(%d).Size() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestChromeJSONValid(t *testing.T) {
	r := New(64)
	r.Emit(KBatchStart, 9, 4, 1, 2, 0)
	st := r.Now()
	time.Sleep(100 * time.Microsecond)
	r.Span(KProgramWait, 9, 4, 1, st, 0, 0)
	r.Emit(KGC, 0, 0, 0, 3, 17)

	var buf bytes.Buffer
	if err := ChromeJSON(&buf, r.Dump()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  uint64         `json:"tid"`
			TS   json.Number    `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]string{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = ev.Ph
	}
	if names["batch_start"] != "i" || names["program_wait"] != "X" || names["gc"] != "i" {
		t.Fatalf("event phases wrong: %v", names)
	}
	if doc.OtherData["dropped"] != "0" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := ChromeJSON(&buf2, r.Dump()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("ChromeJSON not deterministic for identical dump")
	}
}

func TestTimelineRender(t *testing.T) {
	r := New(64)
	r.Emit(KBatchStart, 5, 2, 1, 3, 0)
	r.Emit(KBatchEnd, 5, 2, 1, 0, 0)
	r.Emit(KCheckpoint, 0, 0, 0, 0, 0)
	var buf bytes.Buffer
	if err := Timeline(&buf, r.Dump()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace 5", "batch_start", "batch_end", "untraced", "checkpoint"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	var empty bytes.Buffer
	if err := Timeline(&empty, Dump{Dropped: 3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(empty.Bytes(), []byte("empty")) {
		t.Fatalf("empty timeline: %s", empty.String())
	}
}

func TestMicroString(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0"}, {1000, "1"}, {1500, "1.5"}, {123, "0.123"},
		{1000000, "1000"}, {999, "0.999"}, {-2500, "-2.5"},
	} {
		if got := microString(tc.ns); got != tc.want {
			t.Fatalf("microString(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

// TestEmitSpanAllocFree is the recorder's cost gate: it has no off
// switch, so every request, batch stage, program and erase pays an emit,
// and an emit must never allocate. BenchmarkEmit/BenchmarkSpan report
// the ns/op; only the allocation count is gated.
func TestEmitSpanAllocFree(t *testing.T) {
	r := New(1 << 12)
	start := r.Now()
	if n := testing.AllocsPerRun(200, func() {
		r.Emit(KBatchStart, 7, 3, 41, 4, 0)
		r.Span(KClaim, 7, 3, 41, start, 0, 0)
	}); n != 0 {
		t.Fatalf("trace emit allocates: %v allocs/op", n)
	}
}

func BenchmarkEmit(b *testing.B) {
	r := New(DefaultSize)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Emit(KBatchStart, 7, 3, 41, 4, 0)
		}
	})
}

func BenchmarkSpan(b *testing.B) {
	r := New(DefaultSize)
	start := r.Now()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Span(KClaim, 7, 3, 41, start, 0, 0)
		}
	})
}
