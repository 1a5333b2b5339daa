package provision

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
)

// refPlanner is the channel planner this package had before the planner
// became a cursor plus a delta: it copies the open EBLOCK's whole metadata
// out of the summary table when it loads the cursor, appends to that copy,
// fetches the free list for every chunk and commits one AppendMeta per
// page. Kept as the reference TestDeltaPlannerMatchesReference holds the
// production planner to, plan for plan and table for table.
type refPlanner struct {
	p      *Provisioner
	ch     int
	stream record.StreamKind
	srcTS  uint64
	clock  func() uint64
	free   []int
	cur    int
	dataWB int
	meta   []summary.MetaEntry

	plan        *Plan
	runActive   bool
	runStartWB  int
	runStartBuf int
	runEndBuf   int
}

func (c *refPlanner) wbytes() int { return c.p.geo.WBlockBytes }

func (c *refPlanner) loadCursor() error {
	c.cur = -1
	eb := c.p.userOpen[c.ch]
	if c.stream == record.StreamGC {
		eb = c.p.gcOpen[c.ch]
	}
	if eb < 0 {
		return nil
	}
	d, err := c.p.st.Desc(c.ch, eb)
	if err != nil {
		return err
	}
	if d.State != summary.Open {
		c.p.dropCursor(c.ch, eb)
		return nil
	}
	c.cur = eb
	c.dataWB = int(d.DataWBlocks)
	c.meta = c.p.st.Meta(c.ch, eb)
	return nil
}

func (c *refPlanner) fits(ebOff, length int) bool {
	dataEnd := ebOff + length
	if dataEnd > c.p.geo.EBlockBytes {
		return false
	}
	dataWBEnd := (dataEnd + c.wbytes() - 1) / c.wbytes()
	return dataWBEnd+c.p.metaWBlocksFor(len(c.meta)+1) <= c.p.geo.WBlocksPerEBlock()
}

func (c *refPlanner) endRun() {
	if !c.runActive {
		return
	}
	w := c.wbytes()
	runStartEB := c.runStartWB * w
	runLen := c.runEndBuf - c.runStartBuf
	runEndEB := runStartEB + runLen
	endWB := (runEndEB + w - 1) / w
	for wb := c.runStartWB; wb < endWB; wb++ {
		lo := c.runStartBuf + (wb-c.runStartWB)*w
		hi := lo + w
		if hi > c.runEndBuf {
			hi = c.runEndBuf
		}
		c.plan.IOs = append(c.plan.IOs, IO{Channel: c.ch, EBlock: c.cur, WBlock: wb, BufLo: lo, BufHi: hi})
	}
	frag := endWB*w - runEndEB
	if frag > 0 {
		c.plan.Frags = append(c.plan.Frags, FragEvent{Channel: c.ch, EBlock: c.cur, Bytes: frag})
	}
	c.dataWB = endWB
	c.runActive = false
}

func (c *refPlanner) closeCur() {
	c.endRun()
	metaImg := summary.EncodeMetaBlock(c.meta)
	w := c.wbytes()
	metaWB := (len(metaImg) + w - 1) / w
	for k := 0; k < metaWB; k++ {
		lo := k * w
		hi := lo + w
		if hi > len(metaImg) {
			hi = len(metaImg)
		}
		c.plan.IOs = append(c.plan.IOs, IO{Channel: c.ch, EBlock: c.cur, WBlock: c.dataWB + k, Inline: metaImg[lo:hi]})
	}
	ts := c.srcTS
	if c.stream == record.StreamUser {
		ts = c.clock()
	}
	tail := (c.p.geo.WBlocksPerEBlock() - c.dataWB - metaWB) * w
	c.plan.Closes = append(c.plan.Closes, CloseEvent{
		Channel: c.ch, EBlock: c.cur, Timestamp: ts,
		DataWBlocks: c.dataWB, MetaWBlocks: metaWB, TailFrag: tail,
	})
	c.cur = -1
	c.dataWB = 0
	c.meta = nil
}

func (c *refPlanner) openFresh() error {
	reserve := 0
	if c.stream != record.StreamGC {
		reserve = GCReserveEBlocks
	}
	if len(c.free) <= reserve {
		return fmt.Errorf("%w: channel %d", ErrNoSpace, c.ch)
	}
	eb := c.free[0]
	c.free = c.free[1:]
	c.cur = eb
	c.dataWB = 0
	c.meta = nil
	ev := OpenEvent{Channel: c.ch, EBlock: eb, Stream: c.stream}
	if c.stream == record.StreamGC {
		ev.Timestamp = c.srcTS
	}
	c.plan.Opens = append(c.plan.Opens, ev)
	return nil
}

func (c *refPlanner) place(pages []BatchPage) error {
	for _, pg := range pages {
		if pg.Length <= 0 || !addr.IsAligned(pg.Length) || !addr.IsAligned(pg.BufOff) {
			return fmt.Errorf("%w: lpid %d length %d off %d", ErrBadPage, pg.LPID, pg.Length, pg.BufOff)
		}
		if pg.Length > c.p.MaxLPageBytes() {
			return fmt.Errorf("%w: lpid %d length %d > %d", ErrPageTooLarge, pg.LPID, pg.Length, c.p.MaxLPageBytes())
		}
		for {
			if c.cur < 0 {
				if err := c.openFresh(); err != nil {
					return err
				}
			}
			if c.runActive && pg.BufOff != c.runEndBuf {
				c.endRun()
			}
			if !c.runActive {
				c.runStartWB = c.dataWB
				c.runStartBuf = pg.BufOff
				c.runEndBuf = pg.BufOff
				c.runActive = true
			}
			ebOff := c.runStartWB*c.wbytes() + (pg.BufOff - c.runStartBuf)
			if c.fits(ebOff, pg.Length) {
				a, err := addr.Pack(c.ch, c.cur, ebOff, pg.Length)
				if err != nil {
					return err
				}
				c.plan.Pages = append(c.plan.Pages, PlacedPage{LPID: pg.LPID, Type: pg.Type, Addr: a, BufOff: pg.BufOff})
				c.meta = append(c.meta, summary.MetaEntry{LPID: pg.LPID, Type: pg.Type, Offset: ebOff, Length: pg.Length})
				c.runEndBuf = pg.BufOff + pg.Length
				break
			}
			c.closeCur()
		}
	}
	c.endRun()
	return nil
}

// refProvisionBatch is ProvisionBatch as it was, over the same Provisioner
// fields (cursors, rotation, partition).
func refProvisionBatch(p *Provisioner, pages []BatchPage, clock func() uint64, lsnHint record.LSN) (*Plan, error) {
	if len(pages) == 0 {
		return &Plan{}, nil
	}
	chunks, nwb := p.partition(pages)
	plan := &Plan{}
	finals := make(map[int]*refPlanner)
	for i, chunk := range chunks {
		ch := (p.rotate + i) % p.geo.Channels
		c := &refPlanner{p: p, ch: ch, stream: record.StreamUser, clock: clock, free: p.st.FreeList(ch), plan: plan}
		if err := c.loadCursor(); err != nil {
			return nil, err
		}
		if err := c.place(chunk); err != nil {
			return nil, err
		}
		finals[ch] = c
	}
	p.rotate = (p.rotate + nwb) % p.geo.Channels
	if err := refApply(p, plan, finals, record.StreamUser, lsnHint); err != nil {
		return nil, err
	}
	return plan, nil
}

func refProvisionGC(p *Provisioner, ch int, pages []BatchPage, srcTS uint64, clock func() uint64, lsnHint record.LSN) (*Plan, error) {
	plan := &Plan{}
	if len(pages) == 0 {
		return plan, nil
	}
	c := &refPlanner{p: p, ch: ch, stream: record.StreamGC, srcTS: srcTS, clock: clock, free: p.st.FreeList(ch), plan: plan}
	if err := c.loadCursor(); err != nil {
		return nil, err
	}
	if err := c.place(pages); err != nil {
		return nil, err
	}
	if err := refApply(p, plan, map[int]*refPlanner{ch: c}, record.StreamGC, lsnHint); err != nil {
		return nil, err
	}
	return plan, nil
}

func refApply(p *Provisioner, plan *Plan, finals map[int]*refPlanner, stream record.StreamKind, lsn record.LSN) error {
	for _, ev := range plan.Opens {
		if err := p.st.OpenEBlock(ev.Channel, ev.EBlock, ev.Stream, lsn); err != nil {
			return err
		}
		if ev.Stream == record.StreamGC {
			if err := p.st.SetTimestamp(ev.Channel, ev.EBlock, ev.Timestamp, lsn); err != nil {
				return err
			}
			p.gcOpen[ev.Channel] = ev.EBlock
		}
	}
	for _, pg := range plan.Pages {
		if err := p.st.AppendMeta(pg.Addr.Channel(), pg.Addr.EBlock(), summary.MetaEntry{
			LPID: pg.LPID, Type: pg.Type, Offset: pg.Addr.Offset(), Length: pg.Addr.Length(),
		}); err != nil {
			return err
		}
	}
	for _, f := range plan.Frags {
		if err := p.st.AddAvail(f.Channel, f.EBlock, f.Bytes, lsn); err != nil {
			return err
		}
	}
	for _, cl := range plan.Closes {
		if err := p.st.SetDataWBlocks(cl.Channel, cl.EBlock, cl.DataWBlocks, lsn); err != nil {
			return err
		}
		if err := p.st.CloseEBlock(cl.Channel, cl.EBlock, cl.Timestamp, cl.MetaWBlocks, lsn); err != nil {
			return fmt.Errorf("provision: apply close (cursor was %v): %w", cl, err)
		}
		if cl.TailFrag > 0 {
			if err := p.st.AddAvail(cl.Channel, cl.EBlock, cl.TailFrag, lsn); err != nil {
				return err
			}
		}
		p.dropCursor(cl.Channel, cl.EBlock)
	}
	for ch, c := range finals {
		if c.cur >= 0 {
			if err := p.st.SetDataWBlocks(ch, c.cur, c.dataWB, lsn); err != nil {
				return err
			}
			if stream == record.StreamUser {
				p.userOpen[ch] = c.cur
			}
		} else if stream == record.StreamUser {
			p.userOpen[ch] = -1
		}
	}
	return nil
}

// tableState is everything of a summary table and its provisioner's
// cursors that a plan may change.
type tableState struct {
	desc    []summary.Descriptor  // [ch*EBlocksPerChannel+eb]
	meta    [][]summary.MetaEntry // likewise
	open    []summary.OpenRef
	dirty   []int
	userCur []int
	gcCur   []int
	rotate  int
}

func snapshot(geo flash.Geometry, st *summary.Table, p *Provisioner) tableState {
	s := tableState{open: st.OpenEBlocks(), dirty: st.DirtyPages(), rotate: p.rotate}
	for ch := 0; ch < geo.Channels; ch++ {
		for eb := 0; eb < geo.EBlocksPerChannel; eb++ {
			d, _ := st.Desc(ch, eb)
			s.desc, s.meta = append(s.desc, d), append(s.meta, st.Meta(ch, eb))
		}
		s.userCur, s.gcCur = append(s.userCur, p.UserOpen(ch)), append(s.gcCur, p.GCOpen(ch))
	}
	return s
}

// diff names the first difference between two states ("" when equal);
// cursors are compared only when asked.
func (s tableState) diff(o tableState, cursors bool) string {
	for i := range s.desc {
		if s.desc[i] != o.desc[i] {
			return fmt.Sprintf("descriptor %d: %+v vs %+v", i, s.desc[i], o.desc[i])
		}
		if !slices.Equal(s.meta[i], o.meta[i]) || (s.meta[i] == nil) != (o.meta[i] == nil) {
			return fmt.Sprintf("metadata of eblock %d: %+v vs %+v", i, s.meta[i], o.meta[i])
		}
	}
	if !slices.Equal(s.open, o.open) || !slices.Equal(s.dirty, o.dirty) {
		return fmt.Sprintf("open %+v dirty %v vs open %+v dirty %v", s.open, s.dirty, o.open, o.dirty)
	}
	if cursors && (s.rotate != o.rotate || !slices.Equal(s.userCur, o.userCur) || !slices.Equal(s.gcCur, o.gcCur)) {
		return fmt.Sprintf("cursors: user %v gc %v rotate %d vs user %v gc %v rotate %d", s.userCur, s.gcCur, s.rotate, o.userCur, o.gcCur, o.rotate)
	}
	return ""
}

// TestDeltaPlannerMatchesReference drives the production planner and
// refPlanner through identical seeded histories on twin tables — user
// batches, GC buffers with spread timestamps, dropped cursors, cursors gone
// stale behind the provisioner (EBLOCK freed or marked Bad), EBLOCKs
// recycled and their metadata cleared as core does — and requires, after
// every step, deep-equal plans (pages, I/O commands with their inline
// metadata bytes, opens, closes with their entry lists, fragments), the
// same error, and deep-equal tables and cursors. A failed plan must leave
// its table as it found it. The shapes the delta had to get right are
// counted, so a generator drift cannot make the comparison vacuous.
func TestDeltaPlannerMatchesReference(t *testing.T) {
	var plans, closes, doubleClose, bareClose, wideMeta, noSpace, stale, overW int
	for seed := int64(1); seed <= 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := []int{4 << 10, 16 << 10, 32 << 10}[rng.Intn(3)]
		geo := flash.Geometry{
			Channels: 1 + rng.Intn(16), EBlocksPerChannel: 3 + rng.Intn(8),
			EBlockBytes: []int{4, 8, 16}[rng.Intn(3)] * w, WBlockBytes: w, RBlockBytes: 4 << 10,
		}
		type side struct {
			st  *summary.Table
			p   *Provisioner
			seq uint64
		}
		var got, ref side
		for _, s := range []*side{&got, &ref} {
			var err error
			if s.st, err = summary.New(geo); err != nil {
				t.Fatal(err)
			}
			if s.p, err = New(geo, s.st); err != nil {
				t.Fatal(err)
			}
			// As core does for the checkpoint area; (0,0,0) with a 64-byte
			// length is also the one address that does not pack.
			if err := s.st.Reserve(0, 0); err != nil {
				t.Fatal(err)
			}
		}
		// both applies one out-of-band table change to each side.
		both := func(f func(st *summary.Table, p *Provisioner)) {
			f(got.st, got.p)
			f(ref.st, ref.p)
		}
		nextLPID := addr.LPID(1)
		for step := 0; step < 60; step++ {
			lsn := record.LSN(step + 1)
			ch := rng.Intn(geo.Channels)
			switch op := rng.Intn(20); {
			case op < 13: // a plan, below
			case op < 15: // recycle a closed EBLOCK, as GC does after relocating it
				if used := got.st.UsedEBlocks(ch); len(used) > 0 {
					eb := used[rng.Intn(len(used))]
					both(func(st *summary.Table, _ *Provisioner) {
						if err := st.FreeEBlock(ch, eb, lsn); err != nil {
							t.Fatal(err)
						}
					})
				}
				continue
			case op < 16: // the close record was logged: the in-memory copy goes
				if used := got.st.UsedEBlocks(ch); len(used) > 0 {
					eb := used[rng.Intn(len(used))]
					both(func(st *summary.Table, _ *Provisioner) { st.ClearMeta(ch, eb) })
				}
				continue
			case op < 17: // migration drops a cursor
				if eb := got.p.UserOpen(ch); eb >= 0 {
					both(func(_ *summary.Table, p *Provisioner) { p.DropOpen(ch, eb) })
				}
				continue
			default: // an open EBLOCK retired behind the provisioner's back
				open := []int{got.p.GCOpen(ch), got.p.UserOpen(ch)}
				eb := open[rng.Intn(len(open))]
				if d, _ := got.st.Desc(ch, max(eb, 0)); eb >= 0 && d.State == summary.Open {
					stale++
					bad := rng.Intn(2) == 0
					both(func(st *summary.Table, _ *Provisioner) {
						var err error
						if bad {
							err = st.MarkBad(ch, eb, lsn)
						} else {
							err = st.FreeEBlock(ch, eb, lsn)
						}
						if err != nil {
							t.Fatal(err)
						}
					})
				}
				continue
			}

			// Most batches are a few WBLOCKs; some are large enough to
			// close an EBLOCK or two on every channel they reach.
			sizes := randomBatch(rng, geo)
			switch rng.Intn(8) {
			case 0: // as drawn
			case 1, 2: // tiny pages: the metadata block outgrows one WBLOCK, so fits must count the table's entries
				sizes = make([]int, 50+rng.Intn(800))
				for i := range sizes {
					sizes[i] = 64 * (1 + rng.Intn(2))
				}
			default:
				sizes = sizes[:min(len(sizes), 1+rng.Intn(24))]
			}
			pages := contiguousPages(sizes...)
			for i := range pages {
				pages[i].LPID = nextLPID
				nextLPID++
				if pages[i].Length > w {
					overW++
				}
			}
			gc, ts := rng.Intn(3) == 0, uint64(rng.Intn(8))*700
			if gc { // one channel takes the whole buffer: keep it under two EBLOCKs
				for total, i := 0, 0; i < len(pages); i++ {
					if total += pages[i].Length; total > 2*geo.EBlockBytes {
						pages = pages[:i]
						break
					}
				}
			}
			before := snapshot(geo, got.st, got.p)
			run := func(s *side, ref bool) (*Plan, error) {
				clock := func() uint64 { s.seq++; return s.seq }
				switch {
				case gc && ref:
					return refProvisionGC(s.p, ch, pages, ts, clock, lsn)
				case gc:
					return s.p.ProvisionGC(ch, pages, ts, clock, lsn)
				case ref:
					return refProvisionBatch(s.p, pages, clock, lsn)
				}
				return s.p.ProvisionBatch(pages, clock, lsn)
			}
			gotPlan, gotErr := run(&got, false)
			refPlan, refErr := run(&ref, true)
			where := fmt.Sprintf("seed %d step %d (gc=%v, %d pages, %d ch, w=%d)", seed, step, gc, len(pages), geo.Channels, w)
			if (gotErr == nil) != (refErr == nil) || (gotErr != nil && gotErr.Error() != refErr.Error()) {
				t.Fatalf("%s: error %v, reference %v", where, gotErr, refErr)
			}
			if !reflect.DeepEqual(gotPlan, refPlan) {
				t.Fatalf("%s: plans differ\n got %+v\n ref %+v", where, gotPlan, refPlan)
			}
			after := snapshot(geo, got.st, got.p)
			if d := after.diff(snapshot(geo, ref.st, ref.p), true); d != "" {
				t.Fatalf("%s: tables differ from the reference's after the plan: %s", where, d)
			}
			if got.seq != ref.seq {
				t.Fatalf("%s: clock read %d times, reference %d", where, got.seq, ref.seq)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrNoSpace) {
					t.Fatalf("%s: %v", where, gotErr)
				}
				noSpace++
				// Cursors may legitimately move (a stale one is dropped on
				// sight); the tables may not.
				if d := after.diff(before, false); d != "" {
					t.Fatalf("%s: a failed plan changed the table: %s", where, d)
				}
				continue
			}
			plans++
			closes += len(gotPlan.Closes)
			perEB := map[int]int{}
			for _, cl := range gotPlan.Closes {
				if perEB[cl.Channel]++; perEB[cl.Channel] == 2 {
					doubleClose++
				}
				if cl.MetaWBlocks > 1 {
					wideMeta++
				}
				placedHere := false
				for _, pg := range gotPlan.Pages {
					placedHere = placedHere || (pg.Addr.Channel() == cl.Channel && pg.Addr.EBlock() == cl.EBlock)
				}
				if !placedHere {
					bareClose++ // closed on the table's entries alone: the delta was empty
				}
			}
		}
	}
	t.Logf("%d plans: %d closes (%d second closes on a channel in one plan, %d with an empty delta, %d with metadata above a WBLOCK), %d ErrNoSpace, %d stale cursors, %d pages above a WBLOCK",
		plans, closes, doubleClose, bareClose, wideMeta, noSpace, stale, overW)
	for name, n := range map[string]int{
		"plans": plans - 3000, "closes": closes - 1000, "double closes": doubleClose - 20, "empty-delta closes": bareClose - 20, "closes with metadata above a WBLOCK": wideMeta - 20,
		"ErrNoSpace": noSpace - 50, "stale cursors": stale - 200, "pages above a WBLOCK": overW - 200,
	} {
		if n < 0 {
			t.Errorf("the histories produced too few %s (short by %d): the generator no longer reaches that shape", name, -n)
		}
	}
}
