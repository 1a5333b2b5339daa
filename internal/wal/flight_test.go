package wal

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"eleos/internal/record"
)

// gateSink is a fakeSink whose programs complete when the test releases
// them, so whether the page in flight lands or fails, and what the log
// does meanwhile, is scripted rather than raced.
type gateSink struct {
	*fakeSink
	calls chan *gateCall
	quit  chan struct{} // closed when the test ends: a held program fails
}

// gateCall is one program under way: the test sends its fate, and done
// closes once the sink has stored it.
type gateCall struct {
	slot Slot
	page []byte
	fate chan pageFate
	done chan struct{}
}

func newGateSink(t *testing.T) *gateSink {
	g := &gateSink{fakeSink: newFakeSink(t, testPageBytes), calls: make(chan *gateCall), quit: make(chan struct{})}
	t.Cleanup(func() { close(g.quit) })
	return g
}

func (g *gateSink) Program(s Slot, page []byte) error {
	c := &gateCall{slot: s, page: slices.Clone(page), fate: make(chan pageFate), done: make(chan struct{})}
	defer close(c.done)
	return g.program(s, page, func() pageFate {
		select {
		case g.calls <- c:
		case <-g.quit:
			return fails
		}
		select {
		case fate := <-c.fate:
			return fate
		case <-g.quit:
			return fails
		}
	})
}

// next returns the next program the log starts.
func (g *gateSink) next(t *testing.T) *gateCall {
	t.Helper()
	select {
	case c := <-g.calls:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("the log started no program")
		return nil
	}
}

// Two writers force one record each: A is writer 1's page, carrying LSN 1.
// Writer 2 appends LSN 2 while A is in flight, and its force waits for A.
// B is the page the log writes next, C the one a failure makes it write
// after B.
const (
	pageA = iota
	pageB
	pageC
)

type flightStep struct {
	page    int
	fate    pageFate
	durable record.LSN // the log's durable LSN once the fate is in
}

var flightCases = []struct {
	name  string
	steps []flightStep
	// home is each page's slot, by its place in provision order; carry its
	// first and last LSN.
	home  []int
	carry [][2]record.LSN
	err   error // both writers' Force
	fails int   // programs that failed
	// image is the step after which the crash image is taken (0: the end);
	// its chain walk ends at last.
	image int
	last  record.LSN
}{
	{
		name:  "A lands, B follows at its first candidate",
		steps: []flightStep{{pageA, lands, 1}, {pageB, lands, 2}},
		home:  []int{0, 1}, carry: [][2]record.LSN{{1, 1}, {2, 2}},
		last: 2,
	},
	{
		name:  "A fails: B at the next candidate carries both records",
		steps: []flightStep{{pageA, fails, 0}, {pageB, lands, 2}},
		home:  []int{0, 1}, carry: [][2]record.LSN{{1, 1}, {1, 2}},
		fails: 1, last: 2,
	},
	{
		name:  "A lands, B fails: C at A's next candidate carries B's record",
		steps: []flightStep{{pageA, lands, 1}, {pageB, fails, 1}, {pageC, lands, 2}},
		home:  []int{0, 1, 2}, carry: [][2]record.LSN{{1, 1}, {2, 2}, {2, 2}},
		fails: 1, last: 2,
	},
	{
		name:  "both fail: dead after three failed programs",
		steps: []flightStep{{pageA, fails, 0}, {pageB, fails, 0}, {pageC, fails, 0}},
		home:  []int{0, 1, 2}, carry: [][2]record.LSN{{1, 1}, {1, 2}, {1, 2}},
		err: ErrLogDead, fails: 3, last: 0,
	},
	{
		name:  "image: A torn, B valid",
		steps: []flightStep{{pageA, tears, 0}, {pageB, lands, 2}},
		home:  []int{0, 1}, carry: [][2]record.LSN{{1, 1}, {1, 2}},
		fails: 1, last: 2,
	},
	{
		name:  "image: A valid, B torn",
		steps: []flightStep{{pageA, lands, 1}, {pageB, tears, 1}, {pageC, lands, 2}},
		home:  []int{0, 1, 2}, carry: [][2]record.LSN{{1, 1}, {2, 2}, {2, 2}},
		fails: 1, image: 2, last: 1,
	},
}

// TestLogPageStates scripts each way a page in flight can end — landing,
// failing, torn by a crash — while a second writer's force waits for it,
// and checks the writers' outcome, where every page went and what it
// carried, and that the chain a crash image holds walks to the right LSN
// with each record once, then resumes so a new force is reachable. The
// sink fails the test if the log programs a page while A is in flight.
func TestLogPageStates(t *testing.T) {
	for _, tc := range flightCases {
		t.Run(tc.name, func(t *testing.T) {
			g := newGateSink(t)
			l, err := New(g, testPageBytes)
			if err != nil {
				t.Fatal(err)
			}
			start, err := l.StartCandidates()
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, 2)
			var wg sync.WaitGroup
			var calls []*gateCall
			for w := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[w] = appendForce(l, record.Done{Action: uint64(w + 1)})
				}()
				if w == 0 {
					calls = append(calls, g.next(t))
				}
			}
			waitForces(t, l, 2) // writer 2 waits for A
			var image *fakeSink
			for i, st := range tc.steps {
				for len(calls) <= st.page {
					calls = append(calls, g.next(t))
				}
				c := calls[st.page]
				if want := g.slotAt(tc.home[st.page]); c.slot != want {
					t.Fatalf("page %c went to %v, want %v", 'A'+st.page, c.slot, want)
				}
				p, err := DecodePage(c.slot, c.page)
				if err != nil || [2]record.LSN{p.FirstLSN, p.LastLSN()} != tc.carry[st.page] {
					t.Fatalf("page %c carries %v (%v), want LSNs %v", 'A'+st.page, p, err, tc.carry[st.page])
				}
				c.fate <- st.fate
				<-c.done
				waitDurable(t, l, st.durable)
				if i+1 == tc.image {
					image = g.image()
				}
			}
			returned := make(chan struct{})
			go func() { wg.Wait(); close(returned) }()
			select {
			case <-returned:
			case c := <-g.calls:
				t.Fatalf("the log programmed %v, a page the cell does not expect", c.slot)
			case <-time.After(5 * time.Second):
				t.Fatal("the writers did not return")
			}
			for w, err := range errs {
				if !errors.Is(err, tc.err) {
					t.Fatalf("writer %d: Force = %v, want %v", w+1, err, tc.err)
				}
			}
			if len(calls) != len(tc.home) || g.failures != tc.fails {
				t.Fatalf("%d programs, %d failed; want %d, %d", len(calls), g.failures, len(tc.home), tc.fails)
			}
			if s := l.Stats(); s.RecordsFlushed != int64(l.DurableLSN()) {
				t.Fatalf("%d records flushed, durable to %d", s.RecordsFlushed, l.DurableLSN())
			}
			if image == nil {
				image = g.image()
			}
			tail := walkOnce(t, image, start, tc.last)
			if tc.err != nil {
				return
			}
			l2, err := Resume(image, testPageBytes, tail.LastLSN+1, tail.Candidates, tail.Pages)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := appendForce(l2, record.Done{Action: uint64(tc.last + 1)}); err != nil {
				t.Fatalf("force after Resume: %v", err)
			}
			walkOnce(t, image, start, tc.last+1)
		})
	}
}

// waitForces waits for n Force calls to have begun.
func waitForces(t *testing.T, l *Log, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); l.Stats().ForceCalls != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d Force calls, want %d", l.Stats().ForceCalls, n)
		}
	}
}

// waitDurable waits for the log's durable LSN to reach want.
func waitDurable(t *testing.T, l *Log, want record.LSN) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); l.DurableLSN() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("durable LSN %d, want %d", l.DurableLSN(), want)
		}
	}
}

// walkOnce walks the chain sink holds from start and requires it to end at
// last, every record once and in LSN order: record i is Done{Action: i}.
func walkOnce(t *testing.T, sink Sink, start []Slot, last record.LSN) *ChainTail {
	t.Helper()
	var got []uint64
	tail, err := FollowChain(sink, start, 1, func(p *ChainPage) error {
		for i, r := range p.Records {
			if lsn := p.FirstLSN + record.LSN(i); r.(record.Done).Action != uint64(lsn) {
				t.Fatalf("LSN %d holds %v", lsn, r)
			}
			got = append(got, r.(record.Done).Action)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tail.LastLSN != last || len(got) != int(last) {
		t.Fatalf("the walk ends at LSN %d with %d records %v, want %d", tail.LastLSN, len(got), got, last)
	}
	return tail
}

// TestOneLogPageStress: eight committers force through a sink with random
// program times and failures on one of its two channels (so every window
// of three forward candidates keeps a slot that lands). The sink fails the
// test on a second program while one is under way; the durable LSN never
// goes back, and the chain holds every record exactly once.
func TestOneLogPageStress(t *testing.T) {
	const committers, perCommitter = 8, 40
	sink := newFakeSink(t, testPageBytes)
	sink.hold = func(s Slot) pageFate {
		if rand.IntN(2) == 0 {
			time.Sleep(time.Duration(rand.IntN(100)) * time.Microsecond)
		}
		if s.Channel == 1 && rand.IntN(8) == 0 {
			return fails
		}
		return lands
	}
	l, err := New(sink, testPageBytes)
	if err != nil {
		t.Fatal(err)
	}
	start, err := l.StartCandidates()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var poller, wg sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		var prev record.LSN
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := l.DurableLSN()
			if d < prev {
				t.Errorf("durable LSN went back from %d to %d", prev, d)
				return
			}
			prev = d
		}
	}()
	for c := range committers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perCommitter {
				if _, err := appendForce(l, record.Commit{Action: uint64(c*perCommitter + i + 1)}); err != nil {
					t.Errorf("committer %d: %v", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	poller.Wait()

	const n = committers * perCommitter
	if d := l.DurableLSN(); d != n || l.Stats().RecordsFlushed != n {
		t.Fatalf("durable to %d with %d records flushed, want %d", d, l.Stats().RecordsFlushed, n)
	}
	seen := make(map[uint64]bool)
	lsn := record.LSN(1)
	if _, err := FollowChain(sink, start, 1, func(p *ChainPage) error {
		if p.FirstLSN != lsn {
			t.Fatalf("page delivers LSN %d, want %d", p.FirstLSN, lsn)
		}
		for _, r := range p.Records {
			a := r.(record.Commit).Action
			if seen[a] {
				t.Fatalf("action %d delivered twice", a)
			}
			seen[a] = true
		}
		lsn = p.LastLSN() + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("the chain holds %d of %d records", len(seen), n)
	}
	t.Logf("%d page writes, %d failed programs, %d free rides", l.Stats().PageWrites, sink.failures, l.Stats().FreeRides)
}
