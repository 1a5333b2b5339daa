package wal

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"eleos/internal/record"
)

// fakeSink provisions slots round-robin across channels (as the real
// provisioner does, so that forward candidates do not all share one
// EBLOCK) and mimics flash failure semantics: a failed program disables
// the rest of its EBLOCK. It holds the log to the rules the Sink contract
// states — one program at a time, an EBLOCK's WBLOCKs in order — and fails
// the test on a breach.
type fakeSink struct {
	mu         sync.Mutex
	tb         testing.TB
	pageBytes  int
	wblocksPer int
	channels   int
	seq        int
	programs   map[Slot][]byte
	fail       map[Slot]bool
	disabled   map[[2]int]bool // {channel,eblock} disabled after failure
	busy       bool            // a program is under way
	nextWB     map[[2]int]int  // the WBLOCK each EBLOCK programs next
	failures   int             // programs that returned an error
	// hold, when set, runs mid-program without the lock — the device's
	// program time — and decides the page's fate.
	hold func(Slot) pageFate
}

// pageFate is what becomes of a page being programmed.
type pageFate int

const (
	lands pageFate = iota
	fails          // nothing is stored and the EBLOCK is disabled
	tears          // the header is stored, not the payload: a crash mid-program
)

func newFakeSink(tb testing.TB, pageBytes int) *fakeSink {
	return &fakeSink{
		tb:         tb,
		pageBytes:  pageBytes,
		wblocksPer: 8,
		channels:   2,
		programs:   make(map[Slot][]byte),
		fail:       make(map[Slot]bool),
		disabled:   make(map[[2]int]bool),
		nextWB:     make(map[[2]int]int),
	}
}

// slotAt is the seq'th slot the sink provisions.
func (f *fakeSink) slotAt(seq int) Slot {
	return Slot{
		Channel: seq % f.channels,
		WBlock:  (seq / f.channels) % f.wblocksPer,
		EBlock:  seq / (f.channels * f.wblocksPer),
	}
}

func (f *fakeSink) ProvisionSlots(n int) ([]Slot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Slot, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, f.slotAt(f.seq))
		f.seq++
	}
	return out, nil
}

func (f *fakeSink) Program(s Slot, page []byte) error {
	return f.program(s, page, func() pageFate {
		if f.hold == nil {
			return lands
		}
		return f.hold(s)
	})
}

// program checks the Sink rules around wait, which stands for the device's
// program time and decides the page's fate.
func (f *fakeSink) program(s Slot, page []byte, wait func() pageFate) error {
	f.mu.Lock()
	if f.busy {
		f.mu.Unlock()
		f.tb.Errorf("fake: %v programmed while another log page is", s)
		return errors.New("fake: busy")
	}
	f.busy = true
	f.mu.Unlock()
	fate := wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.busy = false
	err := f.apply(s, page, fate)
	if err != nil {
		f.failures++
	}
	return err
}

func (f *fakeSink) apply(s Slot, page []byte, fate pageFate) error {
	eb := [2]int{s.Channel, s.EBlock}
	if f.disabled[eb] {
		return errors.New("fake: eblock disabled")
	}
	if f.fail[s] || fate == fails {
		delete(f.fail, s)
		f.disabled[eb] = true
		return errors.New("fake: program failed")
	}
	if _, dup := f.programs[s]; dup {
		return errors.New("fake: write twice")
	}
	if s.WBlock != f.nextWB[eb] {
		f.tb.Errorf("fake: %v programmed out of order, wblock %d is next", s, f.nextWB[eb])
		return errors.New("fake: out of order")
	}
	f.nextWB[eb] = s.WBlock + 1
	cp := make([]byte, len(page))
	if fate == tears {
		copy(cp, page[:headerSize])
		f.programs[s] = cp
		return errors.New("fake: torn program")
	}
	copy(cp, page)
	f.programs[s] = cp
	return nil
}

func (f *fakeSink) Read(s Slot) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.programs[s]; ok {
		return append([]byte(nil), p...), nil
	}
	return make([]byte, f.pageBytes), nil
}

// image is a copy of what the sink's media holds now, a crash image: the
// programs under way are not in it.
func (f *fakeSink) image() *fakeSink {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := newFakeSink(f.tb, f.pageBytes)
	g.seq = f.seq
	maps.Copy(g.programs, f.programs)
	maps.Copy(g.disabled, f.disabled)
	maps.Copy(g.nextWB, f.nextWB)
	return g
}

const testPageBytes = 1024

func newTestLog(t *testing.T) (*Log, *fakeSink) {
	t.Helper()
	sink := newFakeSink(t, testPageBytes)
	l, err := New(sink, testPageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return l, sink
}

// appendRecs encodes rs back to back and appends them in one call; it
// returns the first one's LSN.
func appendRecs(l *Log, rs ...record.Record) (record.LSN, error) {
	var frames []byte
	for _, r := range rs {
		frames = record.Append(frames, r)
	}
	return l.Append(frames)
}

// appendForce appends rs in one call and forces the log; it returns the
// last one's LSN.
func appendForce(l *Log, rs ...record.Record) (record.LSN, error) {
	first, err := appendRecs(l, rs...)
	if err != nil {
		return 0, err
	}
	if err := l.Force(); err != nil {
		return 0, err
	}
	return first + record.LSN(len(rs)) - 1, nil
}

// TestAppendBatch: one Append of many frames is the per-record loop page
// for page: a batch that crosses two capacity flushes mid-call leaves log
// pages byte-identical to appending its records one at a time, its LSNs
// are contiguous, an appender arriving while it waits for a page takes
// the LSN after its last, and a frame too large for a page (or cut short)
// fails the call before anything is appended.
func TestAppendBatch(t *testing.T) {
	var recs []record.Record
	for i := 0; i < 80; i++ {
		recs = append(recs, record.Update{Action: 7, LPID: 100, Type: 1, New: 64})
		if i%20 == 19 {
			recs = append(recs, record.Garbage{Action: uint64(i), Pairs: make([]record.AddrPair, i/10)})
		}
	}
	recs = append(recs, record.Commit{Action: 7, AKind: record.ActionUser, SID: 3, WSN: 4, Sum: 5})
	var frames []byte
	for _, r := range recs {
		frames = record.Append(frames, r)
	}
	const prefix = 9 // records buffered before the batch, so it starts mid-page
	one, oneSink := newTestLog(t)
	batch, batchSink := newTestLog(t)
	for _, l := range []*Log{one, batch} {
		for i := 0; i < prefix; i++ {
			if _, err := appendRecs(l, record.Done{Action: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, r := range recs {
		if lsn, err := appendRecs(one, r); err != nil || lsn != record.LSN(prefix+1+i) {
			t.Fatalf("record %d: LSN %d, %v", i, lsn, err)
		}
	}
	first, err := batch.Append(frames)
	if err != nil || first != prefix+1 || batch.NextLSN() != first+record.LSN(len(recs)) {
		t.Fatalf("batch: first LSN %d, next %d, %v; want %d, %d", first, batch.NextLSN(), err, prefix+1, prefix+1+len(recs))
	}
	if w := batch.Stats().PageWrites; w < 2 {
		t.Fatalf("the batch crossed %d capacity flushes, want at least two", w)
	}
	for _, l := range []*Log{one, batch} {
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	if !maps.EqualFunc(oneSink.programs, batchSink.programs, bytes.Equal) {
		t.Fatal("a batch append wrote other log pages than appending its records one at a time")
	}
	if one.Stats() != batch.Stats() {
		t.Fatalf("stats differ: one at a time %+v, batch %+v", one.Stats(), batch.Stats())
	}
	var got []record.Record
	if _, err := FollowChain(batchSink, []Slot{batchSink.slotAt(0)}, 1, func(p *ChainPage) error {
		if p.FirstLSN != record.LSN(len(got)+1) {
			t.Fatalf("page starts at LSN %d after %d records", p.FirstLSN, len(got))
		}
		got = append(got, p.Records...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != prefix+len(recs) || !reflect.DeepEqual(got[prefix:], recs) {
		t.Fatalf("the chain holds %d records, want the %d-record prefix and the batch in order", len(got), prefix)
	}

	pages, next, appends := len(batchSink.programs), batch.NextLSN(), batch.Stats().Appends
	big := record.Append(record.Append(nil, record.Done{Action: 1}), record.Garbage{Action: 1, Pairs: make([]record.AddrPair, testPageBytes/16)})
	for _, bad := range [][]byte{big, frames[:len(frames)-1]} {
		if _, err := batch.Append(bad); err == nil {
			t.Fatal("a batch with a bad frame was appended")
		} else if bad[0] == big[0] && len(bad) == len(big) && !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("oversize frame: %v, want ErrRecordTooLarge", err)
		} else if len(bad) != len(big) && !errors.Is(err, record.ErrTruncated) {
			t.Fatalf("truncated frame: %v, want record.ErrTruncated", err)
		}
	}
	if err := batch.Force(); err != nil {
		t.Fatal(err)
	}
	if batch.NextLSN() != next || batch.Stats().Appends != appends || len(batchSink.programs) != pages {
		t.Fatal("a failed batch appended some of its frames")
	}

	// A second appender arriving while the batch waits for a page it filled
	// takes the LSN after the batch's last: it is not spliced into it.
	g := newGateSink(t)
	l, err := New(g, testPageBytes)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		lsn record.LSN
		err error
	}
	batchDone, lateDone := make(chan result, 1), make(chan result, 1)
	go func() {
		lsn, err := l.Append(frames)
		batchDone <- result{lsn, err}
	}()
	c := g.next(t) // the batch's first capacity flush, l.mu released
	go func() {
		lsn, err := appendRecs(l, record.Done{Action: 1000})
		lateDone <- result{lsn, err}
	}()
	var b, late *result
	for b == nil || late == nil {
		var fate chan pageFate // nil while no program is held
		if c != nil {
			fate = c.fate
		}
		select {
		case fate <- lands:
			<-c.done
			c = nil
		case r := <-batchDone:
			b = &r
		case r := <-lateDone:
			late = &r
		case nc := <-g.calls:
			c = nc
		case <-time.After(5 * time.Second):
			t.Fatal("the appends did not finish")
		}
	}
	if b.err != nil || late.err != nil || b.lsn != 1 || late.lsn != record.LSN(1+len(recs)) {
		t.Fatalf("batch LSN %d (%v), late LSN %d (%v); want 1 and %d", b.lsn, b.err, late.lsn, late.err, 1+len(recs))
	}
}

func TestAppendAssignsDenseLSNs(t *testing.T) {
	l, _ := newTestLog(t)
	for i := 1; i <= 10; i++ {
		lsn, err := appendRecs(l, record.Done{Action: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != record.LSN(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if l.NextLSN() != 11 {
		t.Fatalf("NextLSN = %d", l.NextLSN())
	}
	if l.DurableLSN() != 0 {
		t.Fatal("nothing should be durable before Force")
	}
}

func TestForceMakesDurable(t *testing.T) {
	l, sink := newTestLog(t)
	if _, err := appendForce(l, record.Done{Action: 1}, record.Done{Action: 2}); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != 2 {
		t.Fatalf("DurableLSN = %d", l.DurableLSN())
	}
	if len(sink.programs) != 1 {
		t.Fatalf("expected 1 page written, got %d", len(sink.programs))
	}
	// Force with empty buffer is a no-op.
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if len(sink.programs) != 1 {
		t.Fatal("empty Force should not write")
	}
}

func TestPageRollsOverWhenFull(t *testing.T) {
	l, sink := newTestLog(t)
	// Fill beyond one page.
	recSize := record.EncodedSize(record.Done{Action: 1})
	perPage := l.Capacity() / recSize
	for i := 0; i < perPage+1; i++ {
		if _, err := appendRecs(l, record.Done{Action: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The first page must have been flushed automatically.
	if len(sink.programs) != 1 {
		t.Fatalf("expected auto-flush of first page, got %d pages", len(sink.programs))
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if len(sink.programs) != 2 {
		t.Fatalf("expected 2 pages, got %d", len(sink.programs))
	}
}

func TestRecordTooLarge(t *testing.T) {
	l, _ := newTestLog(t)
	pairs := make([]record.AddrPair, testPageBytes/16+10)
	_, err := appendRecs(l, record.Garbage{Action: 1, Pairs: pairs})
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("expected ErrRecordTooLarge, got %v", err)
	}
}

func TestChainTraversal(t *testing.T) {
	l, sink := newTestLog(t)
	start, err := l.StartCandidates()
	if err != nil {
		t.Fatal(err)
	}
	var want []record.Record
	for i := 0; i < 100; i++ {
		r := record.Update{Action: uint64(i), LPID: 5, Type: 1, New: 77}
		want = append(want, r)
		if _, err := appendRecs(l, r); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	var got []record.Record
	var lsns []record.LSN
	tail, err := FollowChain(sink, start, 1, func(p *ChainPage) error {
		lsn := p.FirstLSN
		for _, r := range p.Records {
			got = append(got, r)
			lsns = append(lsns, lsn)
			lsn++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records, want %d (or content mismatch)", len(got), len(want))
	}
	for i, lsn := range lsns {
		if lsn != record.LSN(i+1) {
			t.Fatalf("lsn[%d] = %d", i, lsn)
		}
	}
	if tail.LastLSN != 100 {
		t.Fatalf("tail.LastLSN = %d", tail.LastLSN)
	}
	if len(tail.Candidates) != numForward {
		t.Fatalf("tail candidates = %d", len(tail.Candidates))
	}
}

func TestWriteFailureFailsOverToCandidate(t *testing.T) {
	l, sink := newTestLog(t)
	start, _ := l.StartCandidates()
	if _, err := appendForce(l, record.Done{Action: 1}); err != nil {
		t.Fatal(err)
	}
	// Fail the next page's home slot; it must be written to candidate 2.
	slot2 := Slot{Channel: 1, EBlock: 0, WBlock: 0}
	sink.fail[slot2] = true
	if _, err := appendForce(l, record.Done{Action: 2}); err != nil {
		t.Fatalf("failover should succeed: %v", err)
	}
	// Chain traversal must still see both records, skipping the bad slot.
	var actions []uint64
	tail, err := FollowChain(sink, start, 1, func(p *ChainPage) error {
		for _, r := range p.Records {
			actions = append(actions, r.(record.Done).Action)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(actions, []uint64{1, 2}) {
		t.Fatalf("actions = %v", actions)
	}
	if tail.LastLSN != 2 {
		t.Fatalf("tail.LastLSN = %d", tail.LastLSN)
	}
}

func TestLogDeadAfterThreeFailures(t *testing.T) {
	l, sink := newTestLog(t)
	if _, err := appendForce(l, record.Done{Action: 1}); err != nil {
		t.Fatal(err)
	}
	// Provision order alternates channels: {0,0,0} {1,0,0} {0,0,1} {1,0,1}.
	// Fail the next two candidate slots; their failures disable both
	// channel-0 and channel-1 eblock 0, so the third candidate (also in
	// channel 0, eblock 0) fails too — the log must die.
	sink.fail[Slot{1, 0, 0}] = true
	sink.fail[Slot{0, 0, 1}] = true
	_, err := appendForce(l, record.Done{Action: 2})
	if !errors.Is(err, ErrLogDead) {
		t.Fatalf("expected ErrLogDead, got %v", err)
	}
	if !l.Dead() {
		t.Fatal("log should be dead")
	}
	if _, err := appendRecs(l, record.Done{Action: 3}); !errors.Is(err, ErrLogDead) {
		t.Fatal("appends after death must fail")
	}
}

func TestResumeContinuesChain(t *testing.T) {
	l, sink := newTestLog(t)
	start, _ := l.StartCandidates()
	if _, err := appendForce(l, record.Done{Action: 1}, record.Done{Action: 2}); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: follow chain, then resume and keep writing.
	tail, err := FollowChain(sink, start, 1, func(p *ChainPage) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Resume(sink, testPageBytes, tail.LastLSN+1, tail.Candidates, tail.Pages)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := appendForce(l2, record.Done{Action: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("resumed lsn = %d, want 3", lsn)
	}
	var actions []uint64
	if _, err := FollowChain(sink, start, 1, func(p *ChainPage) error {
		for _, r := range p.Records {
			actions = append(actions, r.(record.Done).Action)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(actions, []uint64{1, 2, 3}) {
		t.Fatalf("actions = %v", actions)
	}
}

func TestPageForAndTruncate(t *testing.T) {
	l, _ := newTestLog(t)
	for i := 1; i <= 3; i++ {
		if _, err := appendForce(l, record.Done{Action: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Three pages, one record each.
	s, first, ok := l.PageFor(2)
	if !ok || first != 2 {
		t.Fatalf("PageFor(2) = %v %d %v", s, first, ok)
	}
	if _, _, ok := l.PageFor(4); ok {
		t.Fatal("PageFor beyond durable should fail")
	}
	l.Truncate(3)
	if got := l.Pages(); len(got) != 1 || got[0].First != 3 {
		t.Fatalf("after truncate: %+v", got)
	}
	// After truncation, the earliest page following LSN 1 is the survivor.
	if _, first, ok := l.PageFor(1); !ok || first != 3 {
		t.Fatalf("PageFor(1) after truncate: first=%d ok=%v", first, ok)
	}
	s2, first2, ok := l.LastPage()
	if !ok || first2 != 3 || !s2.IsValid() {
		t.Fatal("LastPage wrong")
	}
}

func TestFollowChainIgnoresStalePages(t *testing.T) {
	// A page with the right format whose first LSN is not the next one must
	// not be treated as the successor: one from a stale generation that
	// starts past it, and one that overlaps its predecessor, repeating LSN 1
	// before the LSN 2 the walk expects.
	sink := newFakeSink(t, testPageBytes)
	l, _ := New(sink, testPageBytes)
	start, _ := l.StartCandidates()
	if _, err := appendForce(l, record.Done{Action: 1}); err != nil {
		t.Fatal(err)
	}
	// Manually place both at the page's first two forward candidates.
	overlap := encodePage(make([]byte, testPageBytes), 1, 2, record.Append(record.Append(nil, record.Done{Action: 1}), record.Done{Action: 2}), nil)
	if err := sink.Program(Slot{1, 0, 0}, overlap); err != nil {
		t.Fatal(err)
	}
	stale := encodePage(make([]byte, testPageBytes), 99, 0, nil, nil)
	if err := sink.Program(Slot{0, 0, 1}, stale); err != nil {
		t.Fatal(err)
	}
	var n int
	tail, err := FollowChain(sink, start, 1, func(p *ChainPage) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || tail.LastLSN != 1 {
		t.Fatalf("stale page was followed: n=%d last=%d", n, tail.LastLSN)
	}
}

func TestDecodePageRejectsCorruption(t *testing.T) {
	page := encodePage(make([]byte, testPageBytes), 1, 1, record.Append(nil, record.Done{Action: 1}), []Slot{{0, 0, 1}})
	if _, err := DecodePage(Slot{}, page); err != nil {
		t.Fatalf("valid page rejected: %v", err)
	}
	for _, off := range []int{0, 8, 61, headerSize + 2} {
		bad := append([]byte(nil), page...)
		bad[off] ^= 0xFF
		if _, err := DecodePage(Slot{}, bad); !errors.Is(err, ErrBadPage) {
			t.Fatalf("corruption at %d not detected: %v", off, err)
		}
	}
	if _, err := DecodePage(Slot{}, page[:10]); !errors.Is(err, ErrBadPage) {
		t.Fatal("short page not rejected")
	}
	zero := make([]byte, testPageBytes)
	if _, err := DecodePage(Slot{}, zero); !errors.Is(err, ErrBadPage) {
		t.Fatal("unwritten page not rejected")
	}
}

func TestStartCandidatesStable(t *testing.T) {
	l, _ := newTestLog(t)
	a, err := l.StartCandidates()
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.StartCandidates()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("StartCandidates not stable: %v vs %v", a, b)
	}
	// First durable page must land on the first candidate.
	if _, err := appendForce(l, record.Done{Action: 1}); err != nil {
		t.Fatal(err)
	}
	s, _, ok := l.LastPage()
	if !ok || s != a[0] {
		t.Fatalf("first page at %v, want %v", s, a[0])
	}
}

func TestNewRejectsTinyPages(t *testing.T) {
	if _, err := New(newFakeSink(t, 16), 16); !errors.Is(err, ErrPageTooSmall) {
		t.Fatal("tiny page size accepted")
	}
}

func TestSlotString(t *testing.T) {
	if NoSlot.String() != "slot(none)" {
		t.Fatal(NoSlot.String())
	}
	s := Slot{1, 2, 3}
	if s.String() != fmt.Sprintf("slot(ch=%d eb=%d wb=%d)", 1, 2, 3) {
		t.Fatal(s.String())
	}
}

func TestManyPagesChainIntegrity(t *testing.T) {
	l, sink := newTestLog(t)
	start, _ := l.StartCandidates()
	total := 0
	for i := 0; i < 500; i++ {
		if _, err := appendRecs(l, record.Update{Action: uint64(i), LPID: 1, Type: 1, New: 2}); err != nil {
			t.Fatal(err)
		}
		total++
		if i%13 == 0 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	n := 0
	tail, err := FollowChain(sink, start, 1, func(p *ChainPage) error {
		n += len(p.Records)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != total || tail.LastLSN != record.LSN(total) {
		t.Fatalf("chain saw %d records (last %d), want %d", n, tail.LastLSN, total)
	}
	if len(tail.Pages) == 0 {
		t.Fatal("tail should report page index")
	}
}

// TestPageBufferReuseClearsTail: the log encodes every page into one
// buffer, so a short page written after a full one must not carry the full
// page's records past its payload — on flash the tail is zeroes, and the
// page decodes to exactly its own records.
func TestPageBufferReuseClearsTail(t *testing.T) {
	l, sink := newTestLog(t)
	for i := 0; i < l.Capacity()/record.EncodedSize(record.Done{}); i++ {
		if _, err := appendRecs(l, record.Done{Action: 0xFFFFFFFFFFFFFFFF}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	full, _, _ := l.LastPage()
	last, err := appendForce(l, record.Done{Action: 7})
	if err != nil {
		t.Fatal(err)
	}
	short, first, _ := l.LastPage()
	if short == full || first != last {
		t.Fatalf("second force wrote no page of its own: %v then %v", full, short)
	}
	raw := sink.programs[short]
	payload := headerSize + record.EncodedSize(record.Done{})
	for i, b := range raw[payload:] {
		if b != 0 {
			t.Fatalf("byte %d past the payload is %#x: the previous page leaked", payload+i, b)
		}
	}
	p, err := DecodePage(short, raw)
	if err != nil || !reflect.DeepEqual(p.Records, []record.Record{record.Done{Action: 7}}) {
		t.Fatalf("short page decodes to %v, %v", p, err)
	}
	if p, err := DecodePage(full, sink.programs[full]); err != nil || p.LastLSN() != last-1 {
		t.Fatalf("full page: %v, %v", p, err)
	}
}

// TestAppendAllocFree: once the payload and page buffers are warm an
// append allocates nothing — sizing reads each frame's header, the frames
// are copied in place, and a capacity flush encodes into the log's one page
// buffer. What remains is the sink's and the page index's work per page
// written, far below one allocation per record.
func TestAppendAllocFree(t *testing.T) {
	l, err := New(newFakeSink(t, 32<<10), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	var frames []byte
	for i := 0; i < 8; i++ { // an action's worth: its Updates and Commit
		frames = record.Append(frames, record.Update{Action: uint64(i), LPID: 2, Type: 1, New: 3})
	}
	frames = record.Append(frames, record.Commit{Action: 1, AKind: record.ActionUser})
	for i := 0; i < 300; i++ { // two capacity flushes: l.buf is at its final size
		if _, err := l.Append(frames); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(600, func() {
		if _, err := l.Append(frames); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates: %v allocs/op", n)
	}
	if w := l.Stats().PageWrites; w < 5 {
		t.Fatalf("the measured appends crossed too few pages: %d page writes", w)
	}
}
