package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/summary"
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
	// TestRecoveryFromDeadLogWritable holds (ROADMAP item 2(a)).
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
		// Sub 0's WSN 1 pages once more, one at the head of every channel's
		// EBLOCK: the flush supersedes X's too, so X needs no relocation
		// (whose commit would force the log), and the padding behind it is
		// space GC knows it can reclaim.
		arm: func(r *atomRun) {
			for ch := 0; ch < r.c.geo.Channels; ch++ {
				lp := r.lpid(0, ch%atomLPIDs)
				mustWrite(r.t, r.c, LPage{LPID: lp, Data: atomPage(lp, 1, 500)})
			}
			r.first++
		},
		after: func(r *atomRun, c2 *Controller) *Controller {
			was := make([]bool, len(r.sids))
			for sub := range r.sids {
				was[sub] = r.state(c2, sub)
			}
			if err := c2.GCNow(r.tch); err != nil {
				r.t.Fatal(err)
			}
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
			if v := c3.Stats().RecoverVerified; r.shape.writers == 1 && v != 0 {
				r.t.Fatalf("second recovery read back %d actions: the Done was not durable before the erase", v)
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
