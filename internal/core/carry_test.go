package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/wal"
)

// The crash states of a commit carried in its own data WBLOCK (DESIGN.md §4
// decision 14, §8.4): small flushes whose records ride the run-tail padding
// of their data WBLOCK, so no log page holds them when the crash comes.

// carryRun is a device built up to one crash state: want is every LPID's
// version after recovery, acked or (when its write reached the media
// whole) not.
type carryRun struct {
	t    *testing.T
	c    *Controller
	dev  *flash.Device
	want map[addr.LPID][]byte
}

func (r *carryRun) write(lp addr.LPID, version uint64, size int) {
	r.t.Helper()
	data := pageContent(uint64(lp), version, size)
	mustWrite(r.t, r.c, LPage{LPID: lp, Data: data})
	r.want[lp] = data
}

// carried writes LPIDs 1-4 one flush each and requires every commit to ride
// its data WBLOCK: no log page lands for them.
func (r *carryRun) carried(version uint64) {
	r.t.Helper()
	pages, carried := r.c.log.Stats().PageWrites, r.c.met.commitsCarried.Value()
	for lp := addr.LPID(1); lp <= 4; lp++ {
		r.write(lp, version, 700)
	}
	if p, n := r.c.log.Stats().PageWrites-pages, r.c.met.commitsCarried.Value()-carried; p != 0 || n != 4 {
		r.t.Fatalf("four small flushes landed %d log pages and carried %d commits, want 0 and 4", p, n)
	}
}

// crashAt runs one flush of LPID lp, its WBLOCK (ch, eb)'s next one, into
// a program failure there and the crash point after the round.
func (r *carryRun) crashAt(lp addr.LPID, ch, eb int) {
	r.t.Helper()
	wb, err := r.dev.NextProgramPosition(ch, eb)
	if err != nil {
		r.t.Fatal(err)
	}
	r.dev.FailNextProgram(ch, eb, wb)
	r.c.SetCrashPoint("write.after-exec")
	if err := r.c.WriteBatch(0, 0, []LPage{{LPID: lp, Data: pageContent(uint64(lp), 99, 700)}}); !errors.Is(err, ErrCrashed) {
		r.t.Fatalf("the flush into the crash returned %v", err)
	}
}

func (r *carryRun) check(c *Controller) {
	r.t.Helper()
	for lp, data := range r.want {
		checkRead(r.t, c, lp, data)
	}
}

// nextChannel is where the next one-WBLOCK flush after lp's goes, and its
// open user EBLOCK.
func nextChannel(t *testing.T, c *Controller, lp addr.LPID) (ch, eb int) {
	ch = (mustAddr(t, c, lp).Channel() + 1) % c.geo.Channels
	if eb = c.prov.UserOpen(ch); eb < 0 {
		t.Fatalf("channel %d has no open user EBLOCK", ch)
	}
	return ch, eb
}

var carryCells = []struct {
	name  string
	crash func(*carryRun)
	// after checks the recovered controller and returns the one to go on
	// with.
	after func(*carryRun, *Controller) *Controller
}{
	// The flushes' commits are durable only in their data WBLOCKs.
	{"carry.landed-no-log-page", func(r *carryRun) {
		r.carried(1)
		r.c.Crash()
	}, func(r *carryRun, c2 *Controller) *Controller {
		if st := c2.Stats(); st.RecoverVerified == 0 || st.RecoverRejected != 0 {
			r.t.Fatalf("recovery verified %d actions, rejected %d: the last flush has no Done", st.RecoverVerified, st.RecoverRejected)
		}
		return c2
	}},
	// The carrying WBLOCK of the last flush failed: its commit is nowhere,
	// and the earlier flushes' trailers still hold theirs.
	{"carry.trailer-torn", func(r *carryRun) {
		r.carried(1)
		ch, eb := nextChannel(r.t, r.c, 4)
		r.crashAt(1, ch, eb)
	}, nil},
	// The last flush opened its EBLOCK: the chain's end holds it Free.
	{"carry.trailer-in-opened-eblock", func(r *carryRun) {
		for lp := addr.LPID(1); ; lp++ {
			open := make(map[[2]int]bool)
			for ch := 0; ch < r.c.geo.Channels; ch++ {
				open[[2]int{ch, r.c.prov.UserOpen(ch)}] = true
			}
			carried := r.c.met.commitsCarried.Value()
			r.write(lp, 1, 700)
			if r.c.met.commitsCarried.Value() != carried+1 || lp == 8 {
				r.t.Fatalf("flush %d did not carry, or none of them opened an EBLOCK", lp)
			}
			if a := mustAddr(r.t, r.c, lp); !open[[2]int{a.Channel(), a.EBlock()}] {
				break
			}
		}
		r.c.Crash()
	}, nil},
	// The trailer's WBLOCK is followed in its EBLOCK by the next flush's,
	// which failed: the program position stops there, the trailer is behind.
	{"carry.behind-failed-wblock", func(r *carryRun) {
		// Four pages on four channels, the first with the most padding:
		// its WBLOCK carries, and the next flush comes back to its channel.
		sizes := []int{15000, 16300, 16300, 16300}
		var pages []LPage
		for i, n := range sizes {
			lp := addr.LPID(1 + i)
			pages = append(pages, LPage{LPID: lp, Data: pageContent(uint64(lp), 1, n)})
			r.want[lp] = pages[i].Data
		}
		carried := r.c.met.commitsCarried.Value()
		mustWrite(r.t, r.c, pages...)
		a := mustAddr(r.t, r.c, 1)
		if r.c.met.commitsCarried.Value() != carried+1 || a.Channel() == mustAddr(r.t, r.c, 2).Channel() {
			r.t.Fatal("the four-page flush did not carry its commit on four channels")
		}
		r.crashAt(5, a.Channel(), a.EBlock())
	}, nil},
	// Open lands the carried records in a log page; a second crash at once
	// recovers them from the log.
	{"carry.double-crash", func(r *carryRun) {
		r.carried(1)
		r.c.Crash()
	}, func(r *carryRun, c2 *Controller) *Controller {
		if n := c2.log.Stats().PageWrites; n != 1 {
			r.t.Fatalf("Open landed %d log pages, want the one carrying what it found", n)
		}
		c2.Crash()
		c3 := reopen(r.t, r.dev)
		r.check(c3)
		return c3
	}},
	// The trailers of a flush an earlier recovery found stay on the media
	// in the next recovery's window; they reach no further than the log
	// and are not replayed over the newer versions.
	{"carry.stale-trailer", func(r *carryRun) {
		r.carried(1)
		r.c.Crash()
		r.c = reopen(r.t, r.dev)
		r.write(1, 2, 900) // carried, naming the page Open landed
		r.write(3, 2, 900)
		r.c.Crash()
	}, nil},
}

func TestCarriedCommitCrashStates(t *testing.T) {
	for _, cell := range carryCells {
		t.Run(cell.name, func(t *testing.T) {
			r := carryCrash(t, cell.crash)
			c2 := reopen(t, r.dev)
			r.check(c2)
			if cell.after != nil {
				c2 = cell.after(r, c2)
			}
			writeWide(t, c2, 1000)
		})
	}
}

func carryCrash(t *testing.T, crash func(*carryRun)) *carryRun {
	c, dev := newFormatted(t)
	r := &carryRun{t: t, c: c, dev: dev, want: make(map[addr.LPID][]byte)}
	crash(r)
	return r
}

// TestCommitRidesAnotherTrailer: writer 2's flush is in flight, its data
// WBLOCK failing, when writer 1's flush carries every record past the
// durable LSN — writer 2's Commit among them. Writer 1 is present; writer
// 2, whose commit is durable only there, is rejected by the read-back.
func TestCommitRidesAnotherTrailer(t *testing.T) {
	r := commitRidesAnotherTrailer(t)
	c2 := reopen(t, r.dev)
	r.check(c2)
	if st := c2.Stats(); st.RecoverRejected != 1 {
		t.Fatalf("recovery rejected %d actions, want writer 2's", st.RecoverRejected)
	}
	writeWide(t, c2, 1000)
}

func commitRidesAnotherTrailer(t *testing.T) *carryRun {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.TypicalNANDLatency())
	t.Cleanup(dev.Close)
	c, err := Format(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := &carryRun{t: t, c: c, dev: dev, want: make(map[addr.LPID][]byte)}
	r.carried(1)
	ch, eb := nextChannel(t, c, 4)
	wb, _ := dev.NextProgramPosition(ch, eb)
	dev.FailNextProgram(ch, eb, wb)
	dev.SetWallLatencyScale(60) // a program holds its channel ~48 ms
	c.SetCrashPoint("write.after-exec")
	next := c.log.NextLSN()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.WriteBatch(0, 0, []LPage{{LPID: 2, Data: pageContent(2, 2, 700)}}) // writer 2
	}()
	for c.log.NextLSN() == next {
		time.Sleep(50 * time.Microsecond) // writer 2 logged and submitted in one c.mu hold
	}
	w1 := pageContent(1, 2, 700)
	err = c.WriteBatch(0, 0, []LPage{{LPID: 1, Data: w1}})
	wg.Wait()
	dev.SetWallLatencyScale(0)
	if !c.Crashed() || err != nil && !errors.Is(err, ErrCrashed) {
		t.Fatalf("writer 1 returned %v, crashed %v", err, c.Crashed())
	}
	r.want[1] = w1 // its data and trailer landed, acked or not
	return r
}

// TestCarriedEBlockEraseForcesFirst: a flush whose trailer landed while
// another of its WBLOCKs failed aborts before its install, so no Done
// raises its EBLOCK's erase guard; the carry set it. An erase of that
// EBLOCK forces the log past the trailer's records first.
func TestCarriedEBlockEraseForcesFirst(t *testing.T) {
	c, dev := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 700)})
	armUserFault(t, c, dev, 1, 1) // chunk 1: the large page's WBLOCK
	err := c.WriteBatch(0, 0, []LPage{{LPID: 2, Data: pageContent(2, 1, 700)}, {LPID: 3, Data: pageContent(3, 1, 16000)}})
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("the flush onto a failing WBLOCK = %v", err)
	}
	ch, eb := nextChannel(t, c, 1)
	wb, _ := dev.NextProgramPosition(ch, eb)
	raw, _, err := c.port.read(ch, eb, (wb-1)*c.geo.WBlockBytes, c.geo.WBlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	set, err := wal.DecodeCarried(raw)
	if err != nil {
		t.Fatalf("no trailer in the small page's WBLOCK (%d,%d,%d): %v", ch, eb, wb-1, err)
	}
	if _, ok := set.Records[len(set.Records)-1].(record.Commit); !ok {
		t.Fatalf("the trailer ends in %T, want the aborted flush's Commit", set.Records[len(set.Records)-1])
	}
	c.mu.Lock()
	guard := c.doneLSN[[2]int{ch, eb}]
	if c.log.DurableLSN() >= set.Last() {
		t.Fatal("the log already holds the trailer's records: nothing to guard")
	}
	err = c.eraseAndFreeLocked([2]int{ch, eb})
	durable := c.log.DurableLSN()
	c.mu.Unlock()
	if err != nil || guard < set.Last() || durable < set.Last() {
		t.Fatalf("erase guard %d, durable %d after the erase (%v); the trailer reaches %d", guard, durable, err, set.Last())
	}
}

// TestLogBytesCountsPagesLanded: auto-checkpoint accounting charges a
// WBLOCK per log page that landed — a free-riding force pays none, a
// capacity page written inside Append pays one.
func TestLogBytesCountsPagesLanded(t *testing.T) {
	c, _ := newFormatted(t)
	g := gateLog(t, c)
	before, stats := c.logBytes(), c.log.Stats()
	if _, err := c.log.Append(record.Append(nil, record.Done{Action: 1})); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	force := func() {
		defer wg.Done()
		if err := c.log.Force(); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go force()
	a := g.next(t) // writer 1's page, held
	wg.Add(1)
	go force() // writer 2: its record is in page A
	for c.log.Stats().ForceCalls-stats.ForceCalls < 2 {
		time.Sleep(50 * time.Microsecond)
	}
	a.fate <- logLands
	wg.Wait()
	// Fill the buffer past a page without a force: Append writes it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c.log.Stats().PageWrites-stats.PageWrites < 2 {
			if _, err := c.log.Append(record.Append(nil, record.Garbage{Action: 2, Pairs: make([]record.AddrPair, 64)})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	g.next(t).fate <- logLands
	wg.Wait()
	after := c.log.Stats()
	if after.FreeRides-stats.FreeRides != 1 || after.PageWrites-stats.PageWrites != 2 {
		t.Fatalf("%d free rides, %d pages landed; want 1 and 2", after.FreeRides-stats.FreeRides, after.PageWrites-stats.PageWrites)
	}
	if got := c.logBytes() - before; got != 2*c.geo.WBlockBytes {
		t.Fatalf("log space charged %d bytes for two pages landed, want %d", got, 2*c.geo.WBlockBytes)
	}
}

// TestUnforcedFreeForcesNextFlush: a GC erase logs its FreeEBlock unforced,
// and until it is durable the chain would take a reused EBLOCK for Used and
// recovery would not look there. So the next flush forces the log, whether
// or not its plan opens an EBLOCK; once the record is durable, flushes carry
// again.
func TestUnforcedFreeForcesNextFlush(t *testing.T) {
	c, _ := newFormatted(t)
	free := c.st.FreeList(1)[0]
	c.mu.Lock()
	var err error
	c.freedLSN, err = c.append(record.FreeEBlock{Channel: 1, EBlock: uint32(free)}) // a no-op to replay
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for lp := addr.LPID(1); lp <= 4; lp++ {
		pages, carried := c.log.Stats().PageWrites, c.met.commitsCarried.Value()
		mustWrite(t, c, LPage{LPID: lp, Data: pageContent(uint64(lp), 1, 700)})
		landed := c.log.Stats().PageWrites > pages
		if landed != (lp == 1) || landed == (c.met.commitsCarried.Value() > carried) {
			t.Fatalf("flush %d: landed a log page %v, carried %v", lp, landed, c.met.commitsCarried.Value() > carried)
		}
	}
}

// TestFreedEBlockReopenedByAnotherWriter: GC erased EBLOCK E and logged its
// FreeEBlock unforced. Writer A's flush opens E and forces; its log page is
// held. Writer B's flush then lands in E without opening anything. Had B
// carried its commit there, it would be acked while A's page is held, a
// crash before A's page lands would leave the chain calling E Used,
// recovery would not read it, and B's acked flush would be lost. B forces
// instead: its force waits for A's page, then lands a page of its own.
func TestFreedEBlockReopenedByAnotherWriter(t *testing.T) {
	r := freedEBlockReopened(t)
	c2 := reopen(t, r.dev)
	r.check(c2)
	writeWide(t, c2, 1000)
}

func freedEBlockReopened(t *testing.T) *carryRun {
	c, dev := newFormatted(t)
	r := &carryRun{t: t, c: c, dev: dev, want: make(map[addr.LPID][]byte)}
	w := c.geo.WBlockBytes
	version := uint64(0)
	// batch writes LPIDs 1-4, a whole WBLOCK each unless sizes says
	// otherwise: one page per channel, every flush forced.
	batch := func(sizes ...int) []LPage {
		version++
		var pages []LPage
		for i := range 4 {
			n := w
			if i < len(sizes) {
				n = sizes[i]
			}
			lp := addr.LPID(1 + i)
			pages = append(pages, LPage{LPID: lp, Data: pageContent(uint64(lp), version, n)})
		}
		return pages
	}
	mustWrite(t, c, batch()...)
	const ch = 1
	e := c.prov.UserOpen(ch)
	for c.prov.UserOpen(ch) == e { // E fills and closes; its pages are superseded
		mustWrite(t, c, batch()...)
	}
	for {
		d, _ := c.st.Desc(ch, c.prov.UserOpen(ch))
		if int(d.DataWBlocks) >= c.geo.WBlocksPerEBlock()-1 {
			break // the next flush closes the channel's open EBLOCK and opens another
		}
		mustWrite(t, c, batch()...)
	}
	g := gateLog(t, c)
	c.mu.Lock()
	if d, _ := c.st.Desc(ch, e); d.Avail != uint64(d.DataWBlocks)*uint64(w) {
		c.mu.Unlock()
		t.Fatalf("EBLOCK (%d,%d) holds live pages", ch, e)
	}
	freed := c.log.DurableLSN()
	err := c.eraseAndFreeLocked([2]int{ch, e})
	// Make E the channel's least worn free EBLOCK, so the next open takes it.
	de, _ := c.st.Desc(ch, e)
	for _, eb := range c.st.FreeList(ch) {
		if d, _ := c.st.Desc(ch, eb); eb != e && d.EraseCount <= de.EraseCount {
			d.EraseCount = de.EraseCount + 1
			_ = c.st.SetDesc(ch, eb, d, c.lsnHint())
		}
	}
	c.mu.Unlock()
	if err != nil || c.log.DurableLSN() != freed {
		t.Fatalf("the erase forced the log or failed: %v", err)
	}
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		_ = c.WriteBatch(0, 0, batch()) // writer A
	}()
	aPage := g.next(t)
	if eb := c.prov.UserOpen(ch); eb != e {
		t.Fatalf("writer A opened (%d,%d), not the freed EBLOCK %d", ch, eb, e)
	}
	j := -1 // the index of the page on channel ch, as in every batch before
	for i := range 4 {
		if mustAddr(t, c, addr.LPID(1+i)).Channel() == ch {
			j = i
		}
	}
	sizes := []int{16300, 16300, 16300, 16300}
	sizes[j] = 15000 // B's page in E has the most padding
	pagesB := batch(sizes...)
	var errB error
	bDone := make(chan struct{})
	forces := c.log.Stats().ForceCalls
	go func() {
		defer close(bDone)
		errB = c.WriteBatch(0, 0, pagesB) // writer B
	}()
	if forcing(t, c, forces, bDone) {
		aPage.fate <- logLands
		g.next(t).fate <- logLands // B's page
		<-aDone
		<-bDone
		aPage = nil
	}
	if errB != nil {
		t.Fatalf("writer B: %v", errB)
	}
	for _, p := range pagesB {
		r.want[p.LPID] = p.Data
	}
	c.Crash()
	for call := aPage; call != nil; {
		call.fate <- logLost
		select {
		case <-aDone:
			call = nil
		case call = <-g.calls: // A's page at its next candidate
		}
	}
	return r
}

// TestFindCarriedNeedsAVisitedPage: recovery takes a carried set only if it
// names a log page its chain walk visited, with that page's last LSN just
// before the set's first. A set that names any other page — a trailer of
// an earlier generation of the log, whose LSNs the chain may have reused —
// is ignored, however far it reaches. The set here opens a session, so
// whether Open replayed it shows.
func TestFindCarriedNeedsAVisitedPage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		named func(wal.Slot) wal.Slot
		taken bool
	}{
		{"the chain's last page", func(s wal.Slot) wal.Slot { return s }, true},
		{"a page the walk did not visit", func(s wal.Slot) wal.Slot { s.WBlock += 5; return s }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, dev := newFormatted(t)
			// A whole-WBLOCK page forces: the chain ends at its log page.
			mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, c.geo.WBlockBytes)})
			tip, _, _ := c.log.LastPage()
			durable := c.log.DurableLSN()
			a := mustAddr(t, c, 1)
			c.Crash()
			forged, err := wal.Resume(logSink{c}, c.geo.WBlockBytes, durable+1, nil,
				[]wal.PageIndexEntry{{First: durable, Last: durable, Slot: tc.named(tip)}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := forged.Append(record.Append(nil, record.SessionOpen{SID: 777, Tenant: "carried"})); err != nil {
				t.Fatal(err)
			}
			img := make([]byte, c.geo.WBlockBytes)
			if forged.Carry(img) == 0 {
				t.Fatal("the set did not fit")
			}
			wb, _ := dev.NextProgramPosition(a.Channel(), a.EBlock())
			if err := dev.Program(flash.SrcUser, a.Channel(), a.EBlock(), wb, img); err != nil {
				t.Fatal(err)
			}
			c2 := reopen(t, dev)
			checkRead(t, c2, 1, pageContent(1, 1, c.geo.WBlockBytes))
			if _, _, err := c2.SessionTenant(777); (err == nil) != tc.taken {
				t.Fatalf("the carried session is known %v, want %v", err == nil, tc.taken)
			}
			writeWide(t, c2, 1000)
		})
	}
}
