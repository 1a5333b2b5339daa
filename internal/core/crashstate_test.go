package core

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/summary"
	"eleos/internal/wal"
)

// The crash-state table of a user action (DESIGN.md §8): every state a
// crash can catch it in since its commit page is programmed beside its
// data, times the three ways flushes reach writeUser. The action is always
// the same closing plan: writers × subs sessions, each flushing WSN 2 over
// its WSN 1, 68 one-WBLOCK pages per WriteBatchGroup call, so every channel
// gets 17 and closes its EBLOCK X at 15 data WBLOCKs, metadata in WBLOCK 15.
// A sub cycles through four LPIDs, so only its last four pages survive it.

const (
	atomLPIDs = 4  // LPIDs per sub
	atomPages = 68 // pages per WriteBatchGroup call: 4 channels × (16 WBLOCKs + 1)
)

// atomPage is pageContent without the per-byte RNG (see gcErasePage).
func atomPage(lp addr.LPID, version uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(uint64(lp)*131 + version*17 + uint64(i)*uint64(version|1))
	}
	return b
}

type atomShape struct {
	name          string
	writers, subs int
}

var atomShapes = []atomShape{{"batch", 1, 1}, {"group", 1, 3}, {"writers", 2, 1}}

// atomRun is one cell × shape under way.
type atomRun struct {
	t     *testing.T
	shape atomShape
	c     *Controller
	dev   *flash.Device
	sids  []uint64
	// X is EBLOCK x of channel tch: chunk 0 of the first action fills it from
	// WBLOCK first and closes it.
	tch, x, first int
	errs          []error // per sub, of the WSN 2 flush
}

func (r *atomRun) lpid(sub, k int) addr.LPID { return addr.LPID(1 + sub*atomLPIDs + k) }

// pages are sub's pages of the WSN 2 flush; page i is version 2+i of LPID i mod 4.
func (r *atomRun) pages(sub int) []LPage {
	n := atomPages / r.shape.subs
	if sub < atomPages%r.shape.subs {
		n++
	}
	pages := make([]LPage, n)
	for i := range pages {
		lp := r.lpid(sub, i%atomLPIDs)
		pages[i] = LPage{LPID: lp, Data: atomPage(lp, uint64(2+i), r.c.geo.WBlockBytes)}
	}
	return pages
}

// setup formats a device, opens the sessions, flushes WSN 1 — one small
// batch per sub — and names X: the WSN 1 batches took one WBLOCK each, so
// chunk 0 of the next goes to the channel after the last one's.
func atomSetup(t *testing.T, shape atomShape) *atomRun {
	c, dev := newFormatted(t)
	r := &atomRun{t: t, shape: shape, c: c, dev: dev}
	for sub := 0; sub < shape.writers*shape.subs; sub++ {
		sid, err := c.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		r.sids = append(r.sids, sid)
		var v1 []LPage
		for k := 0; k < atomLPIDs; k++ {
			v1 = append(v1, LPage{LPID: r.lpid(sub, k), Data: atomPage(r.lpid(sub, k), 1, 500)})
		}
		if err := c.WriteBatch(sid, 1, v1); err != nil {
			t.Fatal(err)
		}
	}
	r.tch = (mustAddr(t, c, r.lpid(len(r.sids)-1, 0)).Channel() + 1) % c.geo.Channels
	if r.x = c.prov.UserOpen(r.tch); r.x < 0 {
		r.x = c.st.FreeList(r.tch)[0]
	}
	var err error
	if r.first, err = dev.NextProgramPosition(r.tch, r.x); err != nil {
		t.Fatal(err)
	}
	return r
}

// flush runs the WSN 2 flushes on c in the shape's way and records each
// sub's outcome. ErrWriteFailed is retried only when retry is set.
func (r *atomRun) flush(c *Controller, retry bool) {
	r.errs = make([]error, len(r.sids))
	var wg sync.WaitGroup
	for w := 0; w < r.shape.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for attempt := 0; attempt < 6; attempt++ {
				var group []*SubFlush
				for s := 0; s < r.shape.subs; s++ {
					sub := w*r.shape.subs + s
					group = append(group, &SubFlush{SID: r.sids[sub], WSN: 2, Pages: r.pages(sub)})
				}
				c.WriteBatchGroup(group)
				again := false
				for s, g := range group {
					r.errs[w*r.shape.subs+s] = g.Err
					again = again || errors.Is(g.Err, ErrWriteFailed)
				}
				if !retry || !again {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// state reads sub's four LPIDs on c: present (every one the WSN 2 flush's
// last version), absent (every one WSN 1's) — anything else is a torn batch.
func (r *atomRun) state(c *Controller, sub int) (present bool) {
	r.t.Helper()
	pages := r.pages(sub)
	in, out := 0, 0
	for k := 0; k < atomLPIDs; k++ {
		lp := r.lpid(sub, k)
		got, err := c.Read(lp)
		if err != nil {
			r.t.Fatalf("sub %d: Read(%d): %v", sub, lp, err)
		}
		var last []byte
		for _, p := range pages {
			if p.LPID == lp {
				last = p.Data
			}
		}
		switch {
		case bytes.Equal(got, last):
			in++
		case bytes.Equal(got[:500], atomPage(lp, 1, 500)) && len(got) == addr.AlignUp(500):
			out++
		default:
			r.t.Fatalf("sub %d: LPID %d holds neither version", sub, lp)
		}
	}
	if in > 0 && out > 0 {
		r.t.Fatalf("sub %d: torn batch after recovery (%d pages in, %d out)", sub, in, out)
	}
	high, err := c.SessionHighestWSN(r.sids[sub])
	if err != nil {
		r.t.Fatal(err)
	}
	if want := uint64(1 + in/atomLPIDs); high != want {
		r.t.Fatalf("sub %d: session at WSN %d with its flush present=%v", sub, high, in > 0)
	}
	return in > 0
}

// writeWide writes one page per channel, retrying media aborts as a host
// does (§VIII-C3: an EBLOCK a lost action left disabled fails once and is
// migrated).
func writeWide(t *testing.T, c *Controller, base addr.LPID) {
	t.Helper()
	var pages []LPage
	for ch := 0; ch < c.geo.Channels; ch++ {
		pages = append(pages, LPage{LPID: base + addr.LPID(ch), Data: atomPage(base, 1, c.geo.WBlockBytes)})
	}
	err := c.WriteBatch(0, 0, pages)
	for i := 0; errors.Is(err, ErrWriteFailed) && i < 2*c.geo.Channels; i++ {
		err = c.WriteBatch(0, 0, pages)
	}
	if err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	checkRead(t, c, base, pages[0].Data)
}

// Outcomes of a crash-state cell for one writer; two writers race to the
// crash point, so a cell names the outcome for at least one of them.
const (
	atomAbsent  = iota // every sub: no trace, session not advanced
	atomPresent        // every sub: byte-exact, session advanced
)

// atomFailAt arms a program failure in X: its first or last data WBLOCK, or
// its metadata WBLOCK, which fails with every page of the plan programmed.
func atomFailAt(wb int) func(*atomRun) {
	return func(r *atomRun) { r.dev.FailNextProgram(r.tch, r.x, max(wb, r.first)) }
}

// atomHeads writes sub 0's WSN 1 pages once more, one at the head of every
// channel's EBLOCK: the flush supersedes X's too, so X needs no relocation
// of user pages (a relocation's commit forces the log), and the padding
// behind it is space GC knows it can reclaim.
func atomHeads(r *atomRun) {
	for ch := 0; ch < r.c.geo.Channels; ch++ {
		lp := r.lpid(0, ch%atomLPIDs)
		mustWrite(r.t, r.c, LPage{LPID: lp, Data: atomPage(lp, 1, 500)})
	}
	r.first++
}

// atomCell is one crash state of the table.
type atomCell struct {
	name  string
	arm   func(*atomRun) // fault injection before the flush
	point string         // crash point armed before the flush
	want  int            // of one writer; two writers race to the crash point
	// x is X's state after recovery when the cell settles it: Open when
	// the action that closed it did not commit, Used when it did.
	x summary.State
	// deadLog: the recovered log cannot be written, the known defect that
	// TestRecoveryFromDeadLogWritable holds (ROADMAP item 1(c)).
	deadLog bool
	// after runs further checks on the recovered controller and returns the
	// one to go on with.
	after func(*atomRun, *Controller) *Controller
}

var atomCells = []atomCell{
	// Nothing submitted: the records are in the log buffer, or durable
	// by another writer's force without a byte of data.
	{name: "write.after-init", point: "write.after-init", want: atomAbsent},
	// The commit page is lost on all three forward candidates.
	{name: "commit-page-lost", want: atomAbsent, deadLog: true, arm: func(r *atomRun) {
		cands, err := r.c.log.StartCandidates()
		if err != nil {
			r.t.Fatal(err)
		}
		for _, s := range cands {
			r.dev.FailNextProgram(s.Channel, s.EBlock, s.WBlock)
		}
	}},
	// Commit durable, a data or metadata WBLOCK of the closing plan not.
	{name: "data-failed-first", arm: atomFailAt(0), point: "write.after-exec", want: atomAbsent, x: summary.Open},
	{name: "data-failed-last", arm: atomFailAt(14), point: "write.after-exec", want: atomAbsent, x: summary.Open},
	{name: "data-failed-meta", arm: atomFailAt(15), point: "write.after-exec", want: atomAbsent, x: summary.Open},
	// Commit and data durable, no install, no Done: proven by checksum,
	// once. Recovery logs the Done the install did not, so X — every page
	// in it superseded later in the same action — can be collected and
	// erased without a second recovery rejecting what the first made visible.
	{name: "write.after-exec", point: "write.after-exec", want: atomPresent, x: summary.Used,
		arm: atomHeads,
		after: func(r *atomRun, c2 *Controller) *Controller {
			// Redo counts X's AVAIL as the live flush did: its run padding
			// once, though X's summary page was flushed with records of the
			// same WBLOCK still to replay (the group shape: 245 120 B, not
			// 260 864).
			if r.shape.writers == 1 {
				live := atomSetup(r.t, r.shape)
				atomHeads(live)
				live.flush(live.c, false)
				want, _ := live.c.st.Desc(live.tch, live.x)
				if got, _ := c2.st.Desc(r.tch, r.x); got.Avail != want.Avail {
					r.t.Fatalf("X (%d,%d) recovers with Avail %d, the live flush leaves %d", r.tch, r.x, got.Avail, want.Avail)
				}
			}
			was := make([]bool, len(r.sids))
			for sub := range r.sids {
				was[sub] = r.state(c2, sub)
			}
			moved := c2.Stats().GCPagesMoved
			if err := c2.GCNow(r.tch); err != nil {
				r.t.Fatal(err)
			}
			// On channel 0 X's head holds the table pages Format flushed. Their
			// relocation leaves its Done unforced, so the second recovery reads
			// it back — and nothing else.
			relocations := min(c2.Stats().GCPagesMoved-moved, 1)
			if n, err := r.dev.EraseCount(r.tch, r.x); err != nil || n != 1 {
				r.t.Fatalf("X (%d,%d) erased %d times (%v), want once", r.tch, r.x, n, err)
			}
			c2.Crash()
			c3 := reopen(r.t, r.dev)
			for sub := range r.sids {
				if r.state(c3, sub) != was[sub] {
					r.t.Fatalf("sub %d: present=%v after the first recovery, %v after the second", sub, was[sub], !was[sub])
				}
			}
			if v := c3.Stats().RecoverVerified; r.shape.writers == 1 && v != relocations {
				r.t.Fatalf("second recovery read back %d actions, the pass relocated with %d: the Done was not durable before the erase", v, relocations)
			}
			return c3
		}},
	// A media failure met alive: the Abort is appended, not durable.
	{name: "abort-not-durable", arm: atomFailAt(0), point: "write.after-abort", want: atomAbsent, x: summary.Open,
		after: func(r *atomRun, c2 *Controller) *Controller {
			before := c2.Stats()
			r.flush(c2, true)
			for sub, err := range r.errs {
				if err != nil || !r.state(c2, sub) {
					r.t.Fatalf("sub %d: retried WSN = %v, present %v", sub, err, err == nil)
				}
			}
			applied := c2.Stats().BatchesWritten - before.BatchesWritten
			r.flush(c2, true)
			if st := c2.Stats(); applied+st.StaleWrites-before.StaleWrites != int64(2*len(r.sids)) || st.BatchesWritten-before.BatchesWritten != applied {
				r.t.Fatalf("retried WSNs: %d applied, then %d stale and %d applied again", applied, st.StaleWrites-before.StaleWrites, st.BatchesWritten-before.BatchesWritten-applied)
			}
			return c2
		}},
}

// crash runs cell's flush on r.c and requires the controller to crash.
func (r *atomRun) crash(cell atomCell) {
	r.t.Helper()
	if cell.arm != nil {
		cell.arm(r)
	}
	if cell.point != "" {
		r.c.SetCrashPoint(cell.point)
	}
	r.flush(r.c, false)
	if !r.c.Crashed() {
		r.t.Fatalf("the controller did not crash: %v", r.errs)
	}
}

func TestRecoveryAtomicity(t *testing.T) {
	for _, cell := range atomCells {
		t.Run(cell.name, func(t *testing.T) {
			for _, shape := range atomShapes {
				t.Run(shape.name, func(t *testing.T) {
					r := atomSetup(t, shape)
					r.crash(cell)
					c2 := reopen(t, r.dev)
					n := 0
					for sub, err := range r.errs {
						got := r.state(c2, sub)
						if got {
							n++
						}
						if err == nil && !got {
							t.Fatalf("sub %d: acked and lost", sub)
						}
					}
					switch want := cell.want == atomPresent; {
					case shape.writers == 1 && n != len(r.sids)*cell.want:
						t.Fatalf("%d of %d subs present, want present=%v", n, len(r.sids), want)
					case shape.writers > 1 && (want && n == 0 || !want && n == len(r.sids)):
						t.Fatalf("%d of %d writers' flushes present, want present=%v for one", n, len(r.sids), want)
					}
					if v := c2.Stats().RecoverVerified; v > int64(shape.writers+1) {
						t.Fatalf("recovery read back %d actions with %d writers", v, shape.writers)
					}
					if d, err := c2.st.Desc(r.tch, r.x); err != nil || cell.x != summary.Free && d.State != cell.x {
						t.Fatalf("X (%d,%d) is %v after recovery (%v), want %v", r.tch, r.x, d.State, err, cell.x)
					}
					if cell.deadLog {
						return
					}
					if cell.after != nil {
						c2 = cell.after(r, c2)
					}
					writeWide(t, c2, 1000)
				})
			}
		})
	}
}

// TestEraseAfterDoneIsDurable is the last cell of the table: the action
// installed and was acked, its Done record unforced, and X — every page in
// it superseded later in the same action — is collected, erased and reused.
// The erase must force the Done first: without it recovery would read the
// action back, find X erased and reject an acked flush. With it Open reads
// back nothing stale.
func TestEraseAfterDoneIsDurable(t *testing.T) {
	for _, shape := range atomShapes {
		t.Run(shape.name, func(t *testing.T) {
			r := atomSetup(t, shape)
			c, dev := r.c, r.dev
			r.flush(c, false)
			for sub, err := range r.errs {
				if err != nil {
					t.Fatalf("sub %d: %v", sub, err)
				}
			}
			c.mu.Lock()
			done := c.doneLSN[[2]int{r.tch, r.x}]
			c.mu.Unlock()
			if done == 0 || shape.writers == 1 && c.log.DurableLSN() >= done {
				t.Fatalf("Done of X's last writer at LSN %d, log durable to %d before anything forced it", done, c.log.DurableLSN())
			}
			if err := c.GCNow(r.tch); err != nil {
				t.Fatal(err)
			}
			if n, err := dev.EraseCount(r.tch, r.x); err != nil || n != 1 {
				t.Fatalf("X (%d,%d) erased %d times (%v), want once", r.tch, r.x, n, err)
			}
			if got := c.log.DurableLSN(); got < done {
				t.Fatalf("X erased with the log durable to %d, the Done of its last writer at %d", got, done)
			}
			// Churn until wear order hands X out again.
			churn := addr.LPID(2000)
			for i := 0; ; i++ {
				if pos, err := dev.NextProgramPosition(r.tch, r.x); err != nil || pos > 0 {
					break
				}
				if i == 4000 {
					t.Fatal("X not reused after 4 000 flushes")
				}
				mustWrite(t, c, LPage{LPID: churn, Data: atomPage(churn, uint64(i), 8000)})
			}
			c.Crash()
			c2 := reopen(t, dev)
			for sub := range r.sids {
				if !r.state(c2, sub) {
					t.Fatalf("sub %d: acked and lost", sub)
				}
			}
			if v := c2.Stats().RecoverVerified; v > int64(shape.writers+1) {
				t.Fatalf("recovery read back %d actions with %d writers", v, shape.writers)
			}
			writeWide(t, c2, 1000)
		})
	}
}

// The crash states of a log page in flight (DESIGN.md §8.4): writer 1's
// commit page A is held while writer 2's flush, which forces too, waits for
// it. B is the page the log writes next: writer 2's records, and writer 1's
// as well if A failed. A logGate holds both programs until the cell
// releases them.

// logGate holds the first two programs of the log until the test decides
// their fate; later ones pass, unless the controller crashed. It notes a
// program that starts while another is under way.
type logGate struct {
	logSink
	calls   chan *logCall
	quit    chan struct{} // closed when the test ends: a held program fails
	held    atomic.Int32
	lost    atomic.Bool
	busy    atomic.Int32 // programs under way
	overlap atomic.Bool  // two were under way at once
}

type logCall struct {
	slot wal.Slot
	fate chan logFate
}

type logFate int

const (
	logLands logFate = iota
	logFails         // the program fails on the device
	logLost          // the controller crashes first: nothing reaches the device
)

func (g *logGate) Program(s wal.Slot, page []byte) error {
	if g.busy.Add(1) > 1 {
		g.overlap.Store(true)
	}
	defer g.busy.Add(-1)
	fate := logLands
	if g.held.Add(1) <= 2 {
		c := &logCall{slot: s, fate: make(chan logFate)}
		select {
		case g.calls <- c:
		case <-g.quit:
			return errors.New("the test ended")
		}
		select {
		case fate = <-c.fate:
		case <-g.quit:
			return errors.New("the test ended")
		}
	}
	switch {
	case fate == logLost:
		g.lost.Store(true)
	case g.lost.Load():
	case fate == logFails:
		g.c.Device().FailNextProgram(s.Channel, s.EBlock, s.WBlock)
		fallthrough
	default:
		return g.logSink.Program(s, page)
	}
	return errors.New("the controller crashed")
}

// gateLog forces c's log and resumes it over a logGate at the forward
// candidates of its last page, which a quiescent log has provisioned last.
func gateLog(t *testing.T, c *Controller) *logGate {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.log.Force(); err != nil {
		t.Fatal(err)
	}
	cands, err := c.log.StartCandidates()
	if err != nil {
		t.Fatal(err)
	}
	if ch, eb, wb := c.prov.LogCursor(); (wal.Slot{Channel: ch, EBlock: eb, WBlock: wb}) != (wal.Slot{Channel: cands[1].Channel, EBlock: cands[1].EBlock, WBlock: cands[1].WBlock + 1}) {
		t.Fatalf("log cursor at (%d,%d,%d) is not past candidates %v", ch, eb, wb, cands)
	}
	g := &logGate{logSink: logSink{c}, calls: make(chan *logCall), quit: make(chan struct{})}
	t.Cleanup(func() { close(g.quit) })
	c.log, err = wal.Resume(g, c.geo.WBlockBytes, c.log.NextLSN(), cands, c.log.Pages(), wal.WithRegistry(c.reg), wal.WithTracer(c.trc))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *logGate) next(t *testing.T) *logCall {
	t.Helper()
	select {
	case c := <-g.calls:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("the log started no program")
		return nil
	}
}

// logStep releases page A (0) or B (1) with a fate; logLost crashes the
// controller first. A page that lands acks its writer.
type logStep struct {
	page int
	fate logFate
}

// In the carried cells the flushes' first versions and the flushes between
// them are small pages that carry their commits in a chain of trailers; the
// second versions fill their WBLOCKs, so the two flushes force, and pages A
// and B carry again what the trailers held.
var logCells = []struct {
	name  string
	size  int // each page's bytes
	steps []logStep
}{
	{"log.a-landed-b-landed", wholeWBlock, []logStep{{0, logLands}, {1, logLands}}},
	{"log.a-failed-b-landed", wholeWBlock, []logStep{{0, logFails}, {1, logLands}}},
	{"log.crash-a-landed-b-in-flight", wholeWBlock, []logStep{{0, logLands}, {1, logLost}}},
	{"log.carried.a-landed-b-landed", 700, []logStep{{0, logLands}, {1, logLands}}},
	{"log.carried.a-failed-b-landed", 700, []logStep{{0, logFails}, {1, logLands}}},
	{"log.carried.crash-a-landed-b-in-flight", 700, []logStep{{0, logLands}, {1, logLost}}},
}

// wholeWBlock is a page that leaves no run-tail padding to carry a commit
// in: its flush forces the log.
var wholeWBlock = flash.SmallGeometry().WBlockBytes

// logPages is writer w's flush: four pages of size bytes over LPIDs of its
// own, or whole WBLOCKs after the first version.
func logPages(w int, version uint64, size int) []LPage {
	if version > 1 {
		size = wholeWBlock
	}
	var pages []LPage
	for k := range 4 {
		lp := addr.LPID(1 + 4*w + k)
		pages = append(pages, LPage{LPID: lp, Data: atomPage(lp, version, size)})
	}
	return pages
}

// logCrash runs a cell's two flushes into their crash. It returns the
// device, with the pages written before them that carried their commits,
// and each writer's session and outcome.
func logCrash(t *testing.T, size int, steps []logStep) (*carryRun, [2]uint64, [2]error) {
	t.Helper()
	c, dev := newFormatted(t)
	r := &carryRun{t: t, c: c, dev: dev, want: make(map[addr.LPID][]byte)}
	var sids [2]uint64
	for w := range sids {
		var err error
		if sids[w], err = c.OpenSession(); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteBatch(sids[w], 1, logPages(w, 1, size)); err != nil {
			t.Fatal(err)
		}
	}
	g := gateLog(t, c)
	// Fill the log past its durable LSN with flushes that carry their
	// commits, each trailer chained from the one before.
	for lp := addr.LPID(100); size < wholeWBlock && lp < 108; lp++ {
		r.write(lp, 1, 64)
	}
	var errs [2]error
	var done [2]chan struct{}
	var calls [2]*logCall
	for w := range sids {
		done[w] = make(chan struct{})
		forces := c.log.Stats().ForceCalls
		go func() {
			defer close(done[w])
			errs[w] = c.WriteBatch(sids[w], 2, logPages(w, 2, size))
		}()
		if w == 0 {
			calls[0] = g.next(t)
		} else if !forcing(t, c, forces, done[1]) {
			t.Fatalf("writer 2 returned without forcing: %v", errs[1])
		}
	}
	for _, st := range steps {
		if calls[st.page] == nil {
			calls[st.page] = g.next(t) // B starts once A has landed or failed
		}
		if st.fate == logLost {
			// Crash returns once the writer's data batch is waited for,
			// which comes after the force the gate holds: release the page
			// once the controller is dead, and let Crash return after.
			crashed := make(chan struct{})
			go func() { c.Crash(); close(crashed) }()
			for !c.Crashed() {
				time.Sleep(time.Millisecond)
			}
			calls[st.page].fate <- st.fate
			<-crashed
			continue
		}
		calls[st.page].fate <- st.fate
		if st.fate == logLands {
			<-done[st.page] // the page carries its writer's commit
		}
	}
	<-done[0]
	<-done[1]
	c.Crash()
	if g.overlap.Load() {
		t.Fatal("the log programmed a page while another was in flight")
	}
	return r, sids, errs
}

// forcing waits for a Force call on c's log past the first forces, and
// reports false if done closes first.
func forcing(t *testing.T, c *Controller, forces int64, done <-chan struct{}) bool {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.log.Stats().ForceCalls == forces; {
		select {
		case <-done:
			return false
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the log saw no force")
		}
	}
	return true
}

// TestLogPageCrashStates: A lands or fails, and the page after it carries
// what A did not make durable, so Open reads both flushes back byte-exact;
// if the crash takes B in flight, writer 2's flush is not acked and Open
// keeps writer 2's earlier version.
func TestLogPageCrashStates(t *testing.T) {
	for _, cell := range logCells {
		t.Run(cell.name, func(t *testing.T) {
			r, sids, errs := logCrash(t, cell.size, cell.steps)
			lost := cell.steps[len(cell.steps)-1].fate == logLost
			if errs[0] != nil || (errs[1] != nil) != lost {
				t.Fatalf("writers returned %v", errs)
			}
			c2 := reopen(t, r.dev)
			r.check(c2)
			for w, err := range errs {
				version := uint64(2)
				if err != nil {
					version = 1 // its commit was only in B
				}
				for _, p := range logPages(w, version, cell.size) {
					checkRead(t, c2, p.LPID, p.Data)
				}
				if high, err := c2.SessionHighestWSN(sids[w]); err != nil || high != version {
					t.Fatalf("writer %d: session at WSN %d (%v), want %d", w+1, high, err, version)
				}
			}
			writeWide(t, c2, 1000)
		})
	}
}

// The crash states of a system action (DESIGN.md §8.4): a GC relocation and
// a checkpoint's table flush take the write path's steps with c.mu held, so
// they have its windows — init logged and nothing submitted, the commit
// durable and a destination WBLOCK failed with the Abort not durable, the
// commit and the data durable with nothing installed.

// sysKind is one kind of system action under test: how to build the device
// up to it, how to run it, and the address of a page it moves.
type sysKind struct {
	setup func(*testing.T) *sysRun
	act   func(*Controller) error
	probe func(*sysRun, *Controller) addr.PhysAddr
	// aim, if set, is the WBLOCK a failing cell's program fails at, read off
	// the run before its action; otherwise it is where the action puts the
	// probe page.
	aim func(*sysRun) (ch, eb, wb int)
}

// sysRun is a device built up to a system action.
type sysRun struct {
	c      *Controller
	dev    *flash.Device
	check  func(*Controller) // reads every acked version byte-exact
	victim [2]int            // the relocation's source EBLOCK, or -1s
	lpid   addr.LPID         // the moved page a GC probe follows
	// At the crash: where the probe page was before the action, and how
	// often the victim had been erased.
	before addr.PhysAddr
	erases int
}

// sysGCChannel is where the relocation runs: channel 0 also holds the table
// pages Format flushed, whose old copies redo does not credit to AVAIL.
const sysGCChannel = 1

var sysGC = sysKind{
	setup: func(t *testing.T) *sysRun {
		c, dev, version := halfDeadController(t, 600, 1)
		r := &sysRun{c: c, dev: dev, check: func(c *Controller) { checkRelocContent(t, c, version, 1) }}
		c.mu.Lock()
		eb, ok := c.selectVictimLocked(sysGCChannel, false)
		c.mu.Unlock()
		r.victim = [2]int{sysGCChannel, eb}
		for i := range version {
			if a := mustAddr(t, c, relocLPID(i)); ok && a.Channel() == sysGCChannel && a.EBlock() == eb {
				r.lpid = relocLPID(i)
				return r
			}
		}
		t.Fatalf("no victim on channel %d holds a user page (%v): the pass would not relocate", sysGCChannel, ok)
		return nil
	},
	act: func(c *Controller) error { return c.GCNow(sysGCChannel) },
	probe: func(r *sysRun, c *Controller) addr.PhysAddr {
		a, _ := c.mt.Get(r.lpid)
		return a
	},
}

var sysCkpt = sysKind{
	setup: func(t *testing.T) *sysRun {
		c, dev := newFormatted(t)
		for i := 1; i <= 30; i++ {
			mustWrite(t, c, LPage{LPID: addr.LPID(i), Data: pageContent(uint64(i), 1, 700)})
			if i == 10 {
				if err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		mustWrite(t, c, LPage{LPID: 3, Data: pageContent(3, 2, 900)})
		return &sysRun{c: c, dev: dev, victim: [2]int{-1, -1}, check: func(c *Controller) {
			for i := 1; i <= 30; i++ {
				if i == 3 {
					checkRead(t, c, 3, pageContent(3, 2, 900))
				} else {
					checkRead(t, c, addr.LPID(i), pageContent(uint64(i), 1, 700))
				}
			}
		}}
	},
	act:   func(c *Controller) error { return c.Checkpoint() },
	probe: func(_ *sysRun, c *Controller) addr.PhysAddr { return c.sessSnapAddr },
}

// sysCkptClose is sysCkpt seen from the user EBLOCK holding LPID 1: open
// since before the previous checkpoint, so the checkpoint's plan closes it.
// A failure aims at its metadata WBLOCK; the abort migrates it.
var sysCkptClose = sysKind{
	setup: func(t *testing.T) *sysRun {
		r := sysCkpt.setup(t)
		r.lpid = 1
		a := mustAddr(t, r.c, r.lpid)
		r.victim = [2]int{a.Channel(), a.EBlock()}
		if !slices.ContainsFunc(r.c.st.OpenEBlocks(), func(o summary.OpenRef) bool {
			return o.Channel == a.Channel() && o.EBlock == a.EBlock() && o.OpenLSN < r.c.lastCkptLSN
		}) {
			t.Fatalf("LPID 1's EBLOCK (%d,%d) is not open since before the last checkpoint", a.Channel(), a.EBlock())
		}
		return r
	},
	act: sysCkpt.act,
	probe: func(r *sysRun, c *Controller) addr.PhysAddr {
		a, _ := c.mt.Get(r.lpid)
		return a
	},
	aim: func(r *sysRun) (int, int, int) {
		d, _ := r.c.st.Desc(r.victim[0], r.victim[1])
		return r.victim[0], r.victim[1], int(d.DataWBlocks)
	},
}

// sysCell is one crash state of a system action.
type sysCell struct {
	name string // the crash point
	kind *sysKind
	fail bool // a program of the action fails, aimed at the probe's WBLOCK
	want int  // atomPresent: the probe page has the action's address after recovery
}

var sysCells = []sysCell{
	{name: "gc.after-init", kind: &sysGC, want: atomAbsent},
	{name: "gc.after-abort", kind: &sysGC, fail: true, want: atomAbsent},
	{name: "gc.after-commit", kind: &sysGC, want: atomPresent},
	{name: "ckpt.after-init", kind: &sysCkpt, want: atomAbsent},
	{name: "ckpt.after-abort", kind: &sysCkpt, fail: true, want: atomAbsent},
	{name: "ckpt.after-commit", kind: &sysCkpt, want: atomPresent},
	// The checkpoint aborts on its close's metadata program, and the crash
	// comes in the migration that moves the EBLOCK's pages: they move, and
	// the EBLOCK is not erased before the move is installed.
	{name: "migrate.after-commit", kind: &sysCkptClose, fail: true, want: atomPresent},
}

// crash builds cell's device and runs its action into the crash point.
func (cell sysCell) crash(t *testing.T) *sysRun {
	t.Helper()
	aim := cell.kind.aim
	if cell.fail && aim == nil {
		// The same build on a second device, run to the end, shows where the
		// action programs the probe page.
		dry := cell.kind.setup(t)
		if err := cell.kind.act(dry.c); err != nil {
			t.Fatal(err)
		}
		dest := cell.kind.probe(dry, dry.c)
		aim = func(r *sysRun) (int, int, int) {
			return dest.Channel(), dest.EBlock(), dest.Offset() / r.c.geo.WBlockBytes
		}
	}
	r := cell.kind.setup(t)
	r.before = cell.kind.probe(r, r.c)
	if r.victim[0] >= 0 {
		r.erases, _ = r.dev.EraseCount(r.victim[0], r.victim[1])
	}
	if cell.fail {
		r.dev.FailNextProgram(aim(r))
	}
	failures := r.dev.Stats().WriteFailures
	r.c.SetCrashPoint(cell.name)
	if err := cell.kind.act(r.c); !errors.Is(err, ErrCrashed) {
		t.Fatalf("the action returned %v, want a crash at %s", err, cell.name)
	}
	if fired := r.dev.Stats().WriteFailures > failures; fired != cell.fail {
		t.Fatalf("a program failed: %v, want %v", fired, cell.fail)
	}
	return r
}

func TestSystemActionCrashStates(t *testing.T) {
	for _, cell := range sysCells {
		t.Run(cell.name, func(t *testing.T) {
			r := cell.crash(t)
			c2 := reopen(t, r.dev)
			r.check(c2)
			st := c2.Stats()
			switch moved := cell.kind.probe(r, c2) != r.before; {
			case moved != (cell.want == atomPresent):
				t.Fatalf("probe page moved=%v after recovery, want %v", moved, cell.want == atomPresent)
			case cell.want == atomPresent && (st.RecoverVerified == 0 || st.RecoverRejected != 0):
				t.Fatalf("recovery verified %d actions and rejected %d: the commit should have been proven by checksum", st.RecoverVerified, st.RecoverRejected)
			case cell.fail && cell.want == atomAbsent && st.RecoverRejected == 0:
				t.Fatal("recovery took a commit whose data failed to program")
			}
			// The victim is erased only once its relocation is proven and
			// installed: not by the crashed pass, and not by recovery.
			if r.victim[0] >= 0 {
				if n, _ := r.dev.EraseCount(r.victim[0], r.victim[1]); n != r.erases {
					t.Fatalf("victim (%d,%d) erased %d times, %d before the action", r.victim[0], r.victim[1], n, r.erases)
				}
			}
			// And the recovered controller runs the action again.
			err := cell.kind.act(c2)
			for i := 0; errors.Is(err, ErrWriteFailed) && i < 3; i++ {
				err = cell.kind.act(c2)
			}
			if err != nil {
				t.Fatalf("the action after recovery: %v", err)
			}
			r.check(c2)
			writeWide(t, c2, 5000)
		})
	}
}
