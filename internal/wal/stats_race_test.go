package wal

import (
	"sync"
	"testing"

	"eleos/internal/metrics"
	"eleos/internal/record"
)

// TestStatsConcurrentWithGroupCommit is the regression test for the
// Stats/group-commit race: a page's writer drops l.mu around the physical
// page program and bumps PageWrites/RecordsFlushed on return, so the old
// struct-field Stats read could observe the counters mid-update. Stats
// now reads lock-free atomics; this test hammers Force from many
// committers while a reader polls Stats, and -race must stay clean.
// It also asserts the counters are monotonic across polls and exact at
// the end.
func TestStatsConcurrentWithGroupCommit(t *testing.T) {
	const (
		committers   = 8
		perCommitter = 200
	)
	sink := newFakeSink(t, 4096)
	l, err := New(sink, 4096)
	if err != nil {
		t.Fatal(err)
	}

	var readers sync.WaitGroup
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		var prev Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := l.Stats()
			if s.Appends < prev.Appends || s.ForceCalls < prev.ForceCalls ||
				s.FreeRides < prev.FreeRides || s.PageWrites < prev.PageWrites ||
				s.RecordsFlushed < prev.RecordsFlushed {
				t.Errorf("stats went backwards: %+v -> %+v", prev, s)
				return
			}
			prev = s
		}
	}()

	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				if _, err := appendForce(l, record.Commit{Action: uint64(id*perCommitter + i + 1)}); err != nil {
					t.Errorf("committer %d: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := l.Stats()
	wantAppends := int64(committers * perCommitter)
	if s.Appends != wantAppends {
		t.Fatalf("Appends = %d, want %d", s.Appends, wantAppends)
	}
	if s.ForceCalls != wantAppends {
		t.Fatalf("ForceCalls = %d, want %d", s.ForceCalls, wantAppends)
	}
	if s.RecordsFlushed != wantAppends {
		t.Fatalf("RecordsFlushed = %d, want %d", s.RecordsFlushed, wantAppends)
	}
	if s.PageWrites == 0 || s.PageWrites > wantAppends {
		t.Fatalf("PageWrites = %d out of range", s.PageWrites)
	}
	if got := float64(s.RecordsFlushed) / float64(s.PageWrites); got < 1 {
		t.Fatalf("records per page write = %v, want >= 1", got)
	}
}

// TestWithRegistryExportsCounters checks the registry migration: a log
// built with WithRegistry records into the shared registry under the
// wal.* names, Stats() mirrors those counters, and the group-commit
// size histogram fills.
func TestWithRegistryExportsCounters(t *testing.T) {
	reg := metrics.New()
	sink := newFakeSink(t, 4096)
	l, err := New(sink, 4096, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := appendForce(l, record.Commit{Action: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("wal.appends"); got != 10 {
		t.Fatalf("wal.appends = %d, want 10", got)
	}
	if got := snap.Counter("wal.force_calls"); got != 10 {
		t.Fatalf("wal.force_calls = %d, want 10", got)
	}
	if got := snap.Counter("wal.records_flushed"); got != 10 {
		t.Fatalf("wal.records_flushed = %d, want 10", got)
	}
	s := l.Stats()
	if s.Appends != snap.Counter("wal.appends") || s.PageWrites != snap.Counter("wal.page_writes") {
		t.Fatalf("Stats %+v disagrees with registry snapshot", s)
	}
	hv := snap.Histogram("wal.group_commit_records")
	if hv == nil || hv.Count != s.PageWrites {
		t.Fatalf("wal.group_commit_records count = %+v, want %d entries", hv, s.PageWrites)
	}
	if hv.Sum != s.RecordsFlushed {
		t.Fatalf("group-commit histogram sum = %d, want %d", hv.Sum, s.RecordsFlushed)
	}
}
