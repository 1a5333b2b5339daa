package wal

import (
	"errors"
	"reflect"
	"testing"

	"eleos/internal/record"
)

// carryLog is a log with one landed page (LSNs 1-2) and three records
// buffered past it.
func carryLog(t testing.TB) (*Log, *fakeSink) {
	t.Helper()
	sink := newFakeSink(t, testPageBytes)
	l, err := New(sink, testPageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendForce(l, record.Done{Action: 1}, record.Done{Action: 2}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(3); i <= 5; i++ {
		if _, err := appendRecs(l, record.Commit{Action: i, SID: 7, WSN: i, Sum: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return l, sink
}

// TestCarryRoundTrip: a carried set holds every record past the durable LSN
// and names the page that made it durable; it decodes back from the end of
// a WBLOCK whose head is data, and it leaves the log as it was.
func TestCarryRoundTrip(t *testing.T) {
	l, _ := carryLog(t)
	wblock := make([]byte, testPageBytes)
	for i := range 100 {
		wblock[i] = byte(i + 1) // page data ahead of the padding
	}
	n := l.Carry(wblock[100:])
	if n == 0 {
		t.Fatal("a carried set of three records did not fit a page of padding")
	}
	got, err := DecodeCarried(wblock)
	if err != nil {
		t.Fatal(err)
	}
	pages := l.Pages()
	if got.First != 3 || got.Last() != 5 || got.Named != pages[len(pages)-1].Slot || pages[len(pages)-1].Last != got.First-1 {
		t.Fatalf("carried LSNs %d-%d naming %v; the log's pages are %v", got.First, got.Last(), got.Named, pages)
	}
	for i, r := range got.Records {
		if want := (record.Commit{Action: uint64(3 + i), SID: 7, WSN: uint64(3 + i), Sum: uint32(3 + i)}); !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d = %#v, want %#v", i, r, want)
		}
	}
	if l.DurableLSN() != 2 || l.NextLSN() != 6 {
		t.Fatalf("carrying moved the log: durable %d, next %d", l.DurableLSN(), l.NextLSN())
	}
	// The next page carries them again.
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if p := l.Pages(); l.DurableLSN() != 5 || p[len(p)-1].First != 3 {
		t.Fatalf("the page after the carry holds %v, durable %d", p[len(p)-1], l.DurableLSN())
	}
}

// TestCarryDeclines: no room, nothing buffered, no landed page to name, a
// dead log — Carry writes nothing and the action forces instead.
func TestCarryDeclines(t *testing.T) {
	l, _ := carryLog(t)
	need := len(l.buf) + carryHeader
	pad := make([]byte, need-1)
	if n := l.Carry(pad); n != 0 || !allZero(pad) {
		t.Fatalf("Carry wrote %d bytes into %d of padding for a %d-byte set", n, len(pad), need)
	}
	if n := l.Carry(make([]byte, need)); n != need {
		t.Fatalf("Carry into exactly %d bytes = %d", need, n)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if n := l.Carry(make([]byte, testPageBytes)); n != 0 {
		t.Fatalf("an empty buffer carried %d bytes", n)
	}
	fresh, _ := newTestLog(t)
	if _, err := appendRecs(fresh, record.Done{Action: 1}); err != nil {
		t.Fatal(err)
	}
	if n := fresh.Carry(make([]byte, testPageBytes)); n != 0 {
		t.Fatalf("a log with no landed page carried %d bytes", n)
	}
	l.dead = true
	if _, err := appendRecs(l, record.Done{Action: 9}); !errors.Is(err, ErrLogDead) {
		t.Fatal(err)
	}
	l.buf = record.Append(l.buf, record.Done{Action: 9})
	if n := l.Carry(make([]byte, testPageBytes)); n != 0 {
		t.Fatalf("a dead log carried %d bytes", n)
	}
}

// TestResumeWithCarried: the records recovery found in a carried set,
// appended to the resumed log, get their LSNs back and are not durable
// until its first page lands.
func TestResumeWithCarried(t *testing.T) {
	l, sink := carryLog(t)
	set, err := DecodeCarried(carryInto(t, l))
	if err != nil {
		t.Fatal(err)
	}
	tail, err := FollowChain(sink, []Slot{sink.slotAt(0)}, 1, func(*ChainPage) error { return nil })
	if err != nil || tail.LastLSN != set.First-1 {
		t.Fatalf("walk ends at %d (%v), the set starts at %d", tail.LastLSN, err, set.First)
	}
	l2, err := Resume(sink, testPageBytes, tail.LastLSN+1, tail.Candidates, tail.Pages)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range set.Records {
		if lsn, err := appendRecs(l2, r); err != nil || lsn != set.First+record.LSN(i) {
			t.Fatalf("record %d appended at LSN %d (%v), want %d", i, lsn, err, set.First+record.LSN(i))
		}
	}
	if l2.DurableLSN() != 2 || l2.NextLSN() != 6 {
		t.Fatalf("resumed durable %d, next %d; want 2, 6", l2.DurableLSN(), l2.NextLSN())
	}
	// The resumed log names the chain's last page, so it carries at once.
	again, err := DecodeCarried(carryInto(t, l2))
	if err != nil || !reflect.DeepEqual(again, set) {
		t.Fatalf("the resumed log carries %+v (%v), want %+v", again, err, set)
	}
	if err := l2.Force(); err != nil {
		t.Fatal(err)
	}
	var recs int
	if _, err := FollowChain(sink, []Slot{sink.slotAt(0)}, 1, func(p *ChainPage) error {
		recs += len(p.Records)
		return nil
	}); err != nil || recs != 5 {
		t.Fatalf("the chain after the resumed force holds %d records (%v), want 5", recs, err)
	}
}

func carryInto(t *testing.T, l *Log) []byte {
	t.Helper()
	wblock := make([]byte, testPageBytes)
	if l.Carry(wblock[64:]) == 0 {
		t.Fatal("the set did not fit")
	}
	return wblock
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// FuzzDecodeCarried: recovery decodes the padding of arbitrary WBLOCKs —
// zeroes, page data, stale or torn trailers — so the decoder never panics;
// every single flipped byte of a valid trailer is rejected; and whatever
// it accepts re-encodes to the same trailer.
func FuzzDecodeCarried(f *testing.F) {
	l, _ := carryLog(f)
	valid := make([]byte, 512)
	n := l.Carry(valid[64:])
	f.Add(valid, 0, byte(0))
	f.Add(valid, len(valid)-1-n/2, byte(0x40))
	f.Add(make([]byte, 4096), 0, byte(0))
	f.Add(valid[len(valid)-n:], 3, byte(1))
	f.Fuzz(func(t *testing.T, b []byte, at int, flip byte) {
		set, err := DecodeCarried(b)
		if err == nil {
			l, _ := newTestLog(t)
			l.tip, l.durableLSN, l.nextLSN = set.Named, set.First-1, set.Last()+1
			for _, r := range set.Records {
				l.buf = record.Append(l.buf, r)
			}
			enc := make([]byte, len(b))
			m := l.Carry(enc)
			if m == 0 || string(enc[len(enc)-m:]) != string(b[len(b)-m:]) {
				t.Fatalf("a decoded set re-encodes to %d other bytes", m)
			}
			// One flipped byte inside the trailer is always rejected.
			if i := at % m; flip != 0 {
				i = max(i, -i)
				c := append([]byte(nil), b...)
				c[len(c)-1-i] ^= flip
				if _, err := DecodeCarried(c); err == nil {
					t.Fatalf("byte %d of the trailer flipped by %#x still decodes", m-1-i, flip)
				}
			}
		}
	})
}
