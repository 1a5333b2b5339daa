package provision

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
	"eleos/internal/summary"
)

// testEnv wires a provisioner over a small-geometry summary table.
type testEnv struct {
	geo flash.Geometry
	st  *summary.Table
	p   *Provisioner
	seq uint64
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	geo := flash.SmallGeometry() // 4 ch x 16 eb x 256KB, 16KB wblocks
	st, err := summary.New(geo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(geo, st)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{geo: geo, st: st, p: p}
}

func (e *testEnv) clock() uint64 { e.seq++; return e.seq }

// contiguousPages builds n pages of the given sizes laid out back to back.
func contiguousPages(sizes ...int) []BatchPage {
	out := make([]BatchPage, len(sizes))
	off := 0
	for i, sz := range sizes {
		out[i] = BatchPage{LPID: addr.LPID(i + 1), Type: addr.PageUser, Length: sz, BufOff: off}
		off += sz
	}
	return out
}

func TestProvisionSinglePage(t *testing.T) {
	e := newEnv(t)
	plan, err := e.p.ProvisionBatch(contiguousPages(1920), e.clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pages) != 1 {
		t.Fatalf("pages = %d", len(plan.Pages))
	}
	pg := plan.Pages[0]
	if pg.Addr.Length() != 1920 || pg.Addr.Offset() != 0 {
		t.Fatalf("placed at %v", pg.Addr)
	}
	if len(plan.Opens) != 1 {
		t.Fatalf("opens = %d", len(plan.Opens))
	}
	// One data IO covering one WBLOCK.
	if len(plan.IOs) != 1 || plan.IOs[0].BufLo != 0 || plan.IOs[0].BufHi != 1920 {
		t.Fatalf("ios = %+v", plan.IOs)
	}
	// Summary updated: eblock open with 1 data wblock and a meta entry.
	d, _ := e.st.Desc(pg.Addr.Channel(), pg.Addr.EBlock())
	if d.State != summary.Open || d.DataWBlocks != 1 {
		t.Fatalf("desc = %+v", d)
	}
	m := e.st.Meta(pg.Addr.Channel(), pg.Addr.EBlock())
	if len(m) != 1 || m[0].LPID != 1 || m[0].Length != 1920 {
		t.Fatalf("meta = %+v", m)
	}
	// Run-tail fragmentation: 16KB wblock - 1920.
	if len(plan.Frags) != 1 || plan.Frags[0].Bytes != e.geo.WBlockBytes-1920 {
		t.Fatalf("frags = %+v", plan.Frags)
	}
}

func TestGlobalPartitionSpreadsChannels(t *testing.T) {
	e := newEnv(t)
	// 8 pages of a full wblock each: should spread across all 4 channels.
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = e.geo.WBlockBytes
	}
	plan, err := e.p.ProvisionBatch(contiguousPages(sizes...), e.clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	channels := map[int]int{}
	for _, pg := range plan.Pages {
		channels[pg.Addr.Channel()]++
	}
	if len(channels) != e.geo.Channels {
		t.Fatalf("used %d channels, want %d (%v)", len(channels), e.geo.Channels, channels)
	}
}

func TestVariableSizePackingNoInternalFragmentation(t *testing.T) {
	e := newEnv(t)
	// Three odd-sized pages pack back to back within one channel chunk
	// (ProvisionGC targets a single channel, isolating the packing).
	plan, err := e.p.ProvisionGC(1, contiguousPages(192, 64, 320), 10, e.clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pages) != 3 {
		t.Fatalf("pages = %d", len(plan.Pages))
	}
	// All in the same channel (total 576 < target split) and contiguous.
	p0, p1, p2 := plan.Pages[0], plan.Pages[1], plan.Pages[2]
	if !p0.Addr.SameEBlock(p1.Addr) || !p1.Addr.SameEBlock(p2.Addr) {
		t.Fatal("pages scattered across eblocks")
	}
	if p1.Addr.Offset() != p0.Addr.End() || p2.Addr.Offset() != p1.Addr.End() {
		t.Fatalf("pages not packed: %v %v %v", p0.Addr, p1.Addr, p2.Addr)
	}
}

func TestRunsStartAtWBlockBoundaries(t *testing.T) {
	e := newEnv(t)
	if _, err := e.p.ProvisionBatch(contiguousPages(100*64), e.clock, 1); err != nil {
		t.Fatal(err)
	}
	plan, err := e.p.ProvisionBatch(contiguousPages(64), e.clock, 2)
	if err != nil {
		t.Fatal(err)
	}
	off := plan.Pages[0].Addr.Offset()
	if off%e.geo.WBlockBytes != 0 {
		t.Fatalf("second batch did not start at a wblock boundary: %d", off)
	}
}

func TestEBlockCloseOnOverflow(t *testing.T) {
	e := newEnv(t)
	// Keep writing full-wblock pages into one channel until the first
	// eblock must close. SmallGeometry eblock = 16 wblocks; meta needs 1.
	w := e.geo.WBlockBytes
	var closes int
	var lastPlan *Plan
	for i := 0; i < 100; i++ {
		plan, err := e.p.ProvisionBatch(contiguousPages(w), e.clock, record.LSN(i+1))
		if err != nil {
			t.Fatal(err)
		}
		closes += len(plan.Closes)
		lastPlan = plan
		if closes > 0 {
			break
		}
	}
	if closes == 0 {
		t.Fatal("no eblock ever closed")
	}
	cl := lastPlan.Closes[0]
	if cl.MetaWBlocks < 1 {
		t.Fatalf("close without metadata: %+v", cl)
	}
	if cl.DataWBlocks+cl.MetaWBlocks > e.geo.WBlocksPerEBlock() {
		t.Fatalf("close overflows eblock: %+v", cl)
	}
	d, _ := e.st.Desc(cl.Channel, cl.EBlock)
	if d.State != summary.Used || d.MetaWBlocks != uint32(cl.MetaWBlocks) {
		t.Fatalf("summary after close: %+v", d)
	}
	// Meta IOs are the last IOs for that eblock and carry inline bytes.
	var metaIOs int
	for _, io := range lastPlan.IOs {
		if io.Inline != nil {
			metaIOs++
			if io.EBlock != cl.EBlock || io.Channel != cl.Channel {
				t.Fatal("meta IO targets wrong eblock")
			}
			if io.WBlock < cl.DataWBlocks {
				t.Fatal("meta IO before data region")
			}
		}
	}
	if metaIOs != cl.MetaWBlocks {
		t.Fatalf("meta IOs = %d, want %d", metaIOs, cl.MetaWBlocks)
	}
}

// TestMetadataDescribesAllPages: the entry list an EBLOCK closes with is,
// in append order, every page any plan ever placed in it; the summary table
// keeps returning that same list until ClearMeta; and the close's inline
// metadata I/O commands decode to it.
func TestMetadataDescribesAllPages(t *testing.T) {
	e := newEnv(t)
	if err := e.st.Reserve(0, 0); err != nil { // as core does; 64 bytes at (0,0,0) do not pack
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	placed := map[[2]int][]summary.MetaEntry{} // every page each plan put in (ch, eb), in plan order
	nextLPID := addr.LPID(1)
	for batch := 0; ; batch++ {
		if batch == 200 {
			t.Fatal("200 batches closed no EBLOCK")
		}
		sizes := make([]int, 1+rng.Intn(40))
		for i := range sizes {
			sizes[i] = 64 * (1 + rng.Intn(64)) // 64 B .. 4 KB
		}
		pages := contiguousPages(sizes...)
		for i := range pages {
			pages[i].LPID = nextLPID
			nextLPID++
		}
		plan, err := e.p.ProvisionBatch(pages, e.clock, record.LSN(batch+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range plan.Pages {
			k := [2]int{pg.Addr.Channel(), pg.Addr.EBlock()}
			placed[k] = append(placed[k], summary.MetaEntry{LPID: pg.LPID, Type: pg.Type, Offset: pg.Addr.Offset(), Length: pg.Addr.Length()})
		}
		if len(plan.Closes) == 0 {
			continue
		}
		for _, cl := range plan.Closes {
			want := placed[[2]int{cl.Channel, cl.EBlock}]
			if len(want) < 2 {
				t.Fatalf("close %+v: the test placed %d pages there", cl, len(want))
			}
			if got := e.st.Meta(cl.Channel, cl.EBlock); !reflect.DeepEqual(got, want) {
				t.Fatalf("summary table holds %+v for the closed (%d,%d), want the close's list", got, cl.Channel, cl.EBlock)
			}
			var img []byte
			for _, io := range plan.IOs {
				if io.Inline != nil && io.Channel == cl.Channel && io.EBlock == cl.EBlock {
					if io.WBlock != cl.DataWBlocks+len(img)/e.geo.WBlockBytes {
						t.Fatalf("metadata IO at wblock %d, want %d", io.WBlock, cl.DataWBlocks+len(img)/e.geo.WBlockBytes)
					}
					img = append(img, io.Inline...)
				}
			}
			decoded, err := summary.DecodeMetaBlock(img)
			if err != nil {
				t.Fatalf("inline metadata of (%d,%d): %v", cl.Channel, cl.EBlock, err)
			}
			if !reflect.DeepEqual(decoded, want) {
				t.Fatalf("inline metadata decodes to %+v, want %+v", decoded, want)
			}
			for _, en := range decoded {
				if en.Offset+en.Length > cl.DataWBlocks*e.geo.WBlockBytes {
					t.Fatalf("entry extends past the data region: %+v", en)
				}
			}
			e.st.ClearMeta(cl.Channel, cl.EBlock)
			if got := e.st.Meta(cl.Channel, cl.EBlock); got != nil {
				t.Fatalf("metadata survives ClearMeta: %+v", got)
			}
		}
		return
	}
}

// TestProvisionAllocsIndependentOfFill: what planning one batch allocates
// does not depend on how full the open EBLOCK it continues is — the
// planner reads the entry count, not the entries. The same 8 pages are
// planned into an open EBLOCK holding 8 entries and into one holding 400
// (no plan opens or closes), for the user stream and for the GC stream.
// Each figure is the smallest of four consecutive plans: the summary
// table's own slice of entries regrows now and then as it is appended to
// (amortised, and the same in any planner), and the smallest is a plan
// that met no regrow.
func TestProvisionAllocsIndependentOfFill(t *testing.T) {
	geo := flash.Geometry{
		Channels: 1, EBlocksPerChannel: 8,
		EBlockBytes: 4 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	batch := contiguousPages(64, 128, 256, 512, 1024, 2048, 4096, 64)
	for _, gc := range []bool{false, true} {
		provision := func(p *Provisioner, pages []BatchPage) *Plan {
			var plan *Plan
			var err error
			if gc {
				plan, err = p.ProvisionGC(0, pages, 7, func() uint64 { return 1 }, 1)
			} else {
				plan, err = p.ProvisionBatch(pages, func() uint64 { return 1 }, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}
		measure := func(fill int) (mallocs, bytes uint64) {
			st, err := summary.New(geo)
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(geo, st)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Reserve(0, 0); err != nil { // as core does; 64 bytes at (0,0,0) do not pack
				t.Fatal(err)
			}
			filler := make([]int, fill)
			for i := range filler {
				filler[i] = 64
			}
			open := provision(p, contiguousPages(filler...)).Pages[0].Addr
			if n := st.MetaLen(open.Channel(), open.EBlock()); n != fill {
				t.Fatalf("open EBLOCK holds %d entries, want %d", n, fill)
			}
			mallocs, bytes = math.MaxUint64, math.MaxUint64
			for i := 0; i < 4; i++ {
				var plan *Plan
				a := testing.AllocsPerRun(1, func() {
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					plan = provision(p, batch)
					runtime.ReadMemStats(&m1)
					bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
				})
				mallocs = min(mallocs, uint64(a))
				if len(plan.Opens)+len(plan.Closes) != 0 || !plan.Pages[0].Addr.SameEBlock(open) {
					t.Fatalf("fill %d: the measured plan opened or closed an EBLOCK: %+v", fill, plan)
				}
			}
			return mallocs, bytes
		}
		lowN, lowB := measure(8)
		highN, highB := measure(400)
		t.Logf("gc=%v: %d allocations, %d bytes per plan", gc, lowN, lowB)
		if lowN != highN || lowB != highB {
			t.Errorf("gc=%v: planning 8 pages allocates %d objects / %d bytes into an EBLOCK of 8 entries, %d / %d into one of 400",
				gc, lowN, lowB, highN, highB)
		}
	}
}

func TestNoSpaceDoesNotMutate(t *testing.T) {
	geo := flash.SmallGeometry()
	geo.EBlocksPerChannel = 1
	st, _ := summary.New(geo)
	p, _ := New(geo, st)
	// Fill channel 0's only eblock nearly full, then ask for more than fits
	// anywhere: with one eblock per channel and 4 channels, a batch bigger
	// than total capacity must fail without changing state.
	big := make([]int, 0)
	perEB := geo.EBlockBytes // over capacity per channel after meta reserve
	for i := 0; i < geo.Channels+1; i++ {
		big = append(big, perEB-geo.WBlockBytes)
	}
	before := make([]summary.Descriptor, geo.Channels)
	for ch := 0; ch < geo.Channels; ch++ {
		before[ch], _ = st.Desc(ch, 0)
	}
	_, err := p.ProvisionBatch(contiguousPages(big...), func() uint64 { return 1 }, 1)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	for ch := 0; ch < geo.Channels; ch++ {
		after, _ := st.Desc(ch, 0)
		if after != before[ch] {
			t.Fatalf("channel %d mutated on failed provisioning: %+v -> %+v", ch, before[ch], after)
		}
	}
}

// TestProvisionBatchClosesListed: the EBLOCKs a batch lists to close are
// closed at their fill before its pages are placed — a user EBLOCK at the
// clock, a GC EBLOCK keeping its timestamp — and no chunk continues one. A
// ref no longer Open is skipped, and a call that fails applies nothing.
func TestProvisionBatchClosesListed(t *testing.T) {
	e := newEnv(t)
	first, err := e.p.ProvisionBatch(contiguousPages(1920), e.clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	u := first.Pages[0].Addr
	gcPlan, err := e.p.ProvisionGC(1, contiguousPages(128), 77, e.clock, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := gcPlan.Pages[0].Addr
	refs := []summary.OpenRef{
		{Channel: u.Channel(), EBlock: u.EBlock(), Stream: record.StreamUser},
		{Channel: g.Channel(), EBlock: g.EBlock(), Stream: record.StreamGC},
		{Channel: 2, EBlock: 9, Stream: record.StreamUser}, // Free: skipped
	}
	bad := append(contiguousPages(1920), BatchPage{LPID: 9, Type: addr.PageUser, Length: 100, BufOff: 1920})
	if _, err := e.p.ProvisionBatch(bad, e.clock, 3, refs...); !errors.Is(err, ErrBadPage) {
		t.Fatalf("malformed batch: %v, want ErrBadPage", err)
	}
	for _, r := range refs[:2] {
		if d, _ := e.st.Desc(r.Channel, r.EBlock); d.State != summary.Open {
			t.Fatalf("the failed call closed (%d,%d): %+v", r.Channel, r.EBlock, d)
		}
	}
	// Four WBLOCKs deal a chunk to every channel, the closed EBLOCKs' too.
	plan, err := e.p.ProvisionBatch(contiguousPages(16<<10, 16<<10, 16<<10, 16<<10), e.clock, 3, refs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Closes) != 2 {
		t.Fatalf("closes %+v, want the two open EBLOCKs listed", plan.Closes)
	}
	for i, wantTS := range []uint64{e.seq, 77} {
		cl, r := plan.Closes[i], refs[i]
		d, _ := e.st.Desc(r.Channel, r.EBlock)
		if cl.Channel != r.Channel || cl.EBlock != r.EBlock || cl.DataWBlocks != 1 || cl.MetaWBlocks != 1 || cl.Timestamp != wantTS ||
			d.State != summary.Used || d.Timestamp != wantTS {
			t.Fatalf("close %d: %+v, desc %+v; want (%d,%d) closed at 1 data WBLOCK, timestamp %d", i, cl, d, r.Channel, r.EBlock, wantTS)
		}
	}
	for _, pg := range plan.Pages {
		if pg.Addr.EBlock() == u.EBlock() && pg.Addr.Channel() == u.Channel() {
			t.Fatalf("page %d placed in the closed EBLOCK (%d,%d)", pg.LPID, u.Channel(), u.EBlock())
		}
	}
	if e.p.UserOpen(u.Channel()) == u.EBlock() || e.p.GCOpen(g.Channel()) >= 0 {
		t.Fatalf("cursors: user %d on channel %d, GC %d on channel %d; want neither closed EBLOCK",
			e.p.UserOpen(u.Channel()), u.Channel(), e.p.GCOpen(g.Channel()), g.Channel())
	}
}

func TestPageTooLarge(t *testing.T) {
	e := newEnv(t)
	_, err := e.p.ProvisionBatch(contiguousPages(e.p.MaxLPageBytes()+64), e.clock, 1)
	if !errors.Is(err, ErrPageTooLarge) {
		t.Fatalf("expected ErrPageTooLarge, got %v", err)
	}
	// Exactly max fits.
	if _, err := e.p.ProvisionBatch(contiguousPages(e.p.MaxLPageBytes()), e.clock, 1); err != nil {
		t.Fatalf("max-size page rejected: %v", err)
	}
}

func TestBadPageValidation(t *testing.T) {
	e := newEnv(t)
	bad := []BatchPage{{LPID: 1, Type: addr.PageUser, Length: 100, BufOff: 0}}
	if _, err := e.p.ProvisionBatch(bad, e.clock, 1); !errors.Is(err, ErrBadPage) {
		t.Fatalf("unaligned length accepted: %v", err)
	}
	bad = []BatchPage{{LPID: 1, Type: addr.PageUser, Length: 0, BufOff: 0}}
	if _, err := e.p.ProvisionBatch(bad, e.clock, 1); !errors.Is(err, ErrBadPage) {
		t.Fatal("zero length accepted")
	}
}

// TestProvisionGCOneEBlockPerChannel: successive GC rounds on a channel
// share its one open GC EBLOCK, however far apart their victims'
// timestamps. The EBLOCK keeps the timestamp of the round that opened it,
// and a second one opens only when the first closes.
func TestProvisionGCOneEBlockPerChannel(t *testing.T) {
	e := newEnv(t)
	first, err := e.p.ProvisionGC(0, contiguousPages(128), 100, e.clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb := first.Pages[0].Addr.EBlock()
	if len(first.Opens) != 1 || e.p.GCOpen(0) != eb {
		t.Fatalf("first round opened %+v, cursor %d, want one GC EBLOCK %d", first.Opens, e.p.GCOpen(0), eb)
	}
	lsn := record.LSN(2)
	for ts := uint64(100_000); ; ts += 100_000 {
		plan, err := e.p.ProvisionGC(0, contiguousPages(16<<10), ts, e.clock, lsn)
		if err != nil {
			t.Fatal(err)
		}
		lsn++
		if len(plan.Closes) == 0 {
			if len(plan.Opens) != 0 || plan.Pages[0].Addr.EBlock() != eb || e.p.GCOpen(0) != eb {
				t.Fatalf("timestamp %d: opens %+v, placed in %d, cursor %d; want EBLOCK %d shared",
					ts, plan.Opens, plan.Pages[0].Addr.EBlock(), e.p.GCOpen(0), eb)
			}
			d, _ := e.st.Desc(0, eb)
			if d.State != summary.Open || d.Stream != record.StreamGC || d.Timestamp != 100 {
				t.Fatalf("shared GC eblock desc: %+v, want open with the first round's timestamp", d)
			}
			continue
		}
		if len(plan.Closes) != 1 || plan.Closes[0].EBlock != eb {
			t.Fatalf("closes %+v, want only EBLOCK %d", plan.Closes, eb)
		}
		if len(plan.Opens) != 1 || plan.Opens[0].EBlock == eb || plan.Opens[0].Timestamp != ts || e.p.GCOpen(0) != plan.Opens[0].EBlock {
			t.Fatalf("opens %+v, cursor %d: want one successor taking timestamp %d", plan.Opens, e.p.GCOpen(0), ts)
		}
		break
	}
	for ch := 1; ch < e.geo.Channels; ch++ {
		if e.p.GCOpen(ch) >= 0 {
			t.Fatalf("channel %d has GC EBLOCK %d open, want none", ch, e.p.GCOpen(ch))
		}
	}
}

func TestProvisionLogSlots(t *testing.T) {
	e := newEnv(t)
	slots, err := e.p.ProvisionLogSlots(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 3 {
		t.Fatalf("slots = %d", len(slots))
	}
	// Two streams open: consecutive slots alternate EBLOCKs so that any
	// three consecutive forward candidates span two EBLOCKs.
	if slots[0].Channel == slots[1].Channel && slots[0].EBlock == slots[1].EBlock {
		t.Fatalf("candidates share an eblock: %+v", slots)
	}
	if slots[0].Channel != slots[2].Channel || slots[0].EBlock != slots[2].EBlock ||
		slots[2].WBlock != slots[0].WBlock+1 {
		t.Fatalf("stream-0 slots not sequential: %+v", slots)
	}
	for _, sl := range slots {
		d, _ := e.st.Desc(sl.Channel, sl.EBlock)
		if d.State != summary.Open || d.Stream != record.StreamLog {
			t.Fatalf("log eblock desc: %+v", d)
		}
	}
	// Exhaust both streams: the two EBLOCKs close and two new ones open.
	per := e.geo.WBlocksPerEBlock()
	slots2, err := e.p.ProvisionLogSlots(2*per, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots2) != 2*per {
		t.Fatalf("slots2 = %d", len(slots2))
	}
	first := map[[2]int]bool{{slots[0].Channel, slots[0].EBlock}: true, {slots[1].Channel, slots[1].EBlock}: true}
	var opened, closed int
	seen := map[[2]int]bool{}
	for _, sl := range slots2 {
		k := [2]int{sl.Channel, sl.EBlock}
		if seen[k] {
			continue
		}
		seen[k] = true
		d, _ := e.st.Desc(sl.Channel, sl.EBlock)
		switch {
		case first[k] && d.State == summary.Used:
			closed++
		case !first[k] && d.State == summary.Open && d.Stream == record.StreamLog:
			opened++
		default:
			t.Fatalf("log eblock (%d,%d) desc %+v (first pair: %v)", sl.Channel, sl.EBlock, d, first[k])
		}
	}
	if opened != 2 || closed != 2 {
		t.Fatalf("opened=%d closed=%d", opened, closed)
	}
}

func TestAbandonLogEBlock(t *testing.T) {
	e := newEnv(t)
	slots, err := e.p.ProvisionLogSlots(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.p.AbandonLogEBlock(slots[0].Channel, slots[0].EBlock, 5); err != nil {
		t.Fatal(err)
	}
	d, _ := e.st.Desc(slots[0].Channel, slots[0].EBlock)
	if d.State != summary.Used {
		t.Fatalf("abandoned log eblock: %+v", d)
	}
	// Fresh slots come from a new eblock.
	slots2, err := e.p.ProvisionLogSlots(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if slots2[0].Channel == slots[0].Channel && slots2[0].EBlock == slots[0].EBlock {
		t.Fatal("abandoned eblock reused")
	}
}

func TestRebuildFromSummary(t *testing.T) {
	e := newEnv(t)
	if _, err := e.p.ProvisionBatch(contiguousPages(128), e.clock, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.p.ProvisionGC(2, contiguousPages(128), 50, e.clock, 2); err != nil {
		t.Fatal(err)
	}
	// Fresh provisioner over the same summary table.
	p2, err := New(e.geo, e.st)
	if err != nil {
		t.Fatal(err)
	}
	p2.RebuildFromSummary()
	foundUser := false
	for ch := 0; ch < e.geo.Channels; ch++ {
		if p2.UserOpen(ch) >= 0 {
			foundUser = true
		}
	}
	if !foundUser {
		t.Fatal("user cursor not rebuilt")
	}
	if p2.GCOpen(2) < 0 || p2.GCOpen(2) != e.p.GCOpen(2) {
		t.Fatalf("gc cursor rebuilt as %d, want %d", p2.GCOpen(2), e.p.GCOpen(2))
	}
}

func TestContinuedFillAcrossBatches(t *testing.T) {
	// Consecutive small batches accumulate into the same open eblock, each
	// starting at a wblock boundary (the provisioning invariant GC's
	// monotonic scan relies on: later writes have higher offsets).
	e := newEnv(t)
	lastOff := -1
	for i := 0; i < 10; i++ {
		plan, err := e.p.ProvisionGC(3, contiguousPages(64), 10, e.clock, record.LSN(i+1))
		if err != nil {
			t.Fatal(err)
		}
		off := plan.Pages[0].Addr.Offset()
		if off <= lastOff {
			t.Fatalf("offsets not increasing: %d then %d", lastOff, off)
		}
		lastOff = off
	}
}

func TestPartitionRespectsBoundariesAndOrder(t *testing.T) {
	e := newEnv(t)
	sizes := []int{64, 128, 19200, 64, 4096, 640, 64}
	pages := contiguousPages(sizes...)
	chunks, _ := e.p.partition(pages)
	if len(chunks) == 0 || len(chunks) > e.geo.Channels {
		t.Fatalf("chunks = %d", len(chunks))
	}
	flat := 0
	for _, c := range chunks {
		for _, pg := range c {
			if pg.LPID != pages[flat].LPID {
				t.Fatal("partition reordered pages")
			}
			flat++
		}
	}
	if flat != len(pages) {
		t.Fatalf("partition lost pages: %d/%d", flat, len(pages))
	}
}

func TestEmptyBatch(t *testing.T) {
	e := newEnv(t)
	plan, err := e.p.ProvisionBatch(nil, e.clock, 1)
	if err != nil || len(plan.Pages) != 0 || len(plan.IOs) != 0 {
		t.Fatalf("empty batch: %+v %v", plan, err)
	}
}

// TestBenchGeometryDenseAndBalanced pins quota striping where bench/'s
// batch workloads run it: 8 channels x 32 KB WBLOCKs, 256 KB buffers of
// 128 B-4 KB pages. A buffer is 8 WBLOCKs of data, so it programs those
// plus at most page-boundary slack and a run split at an EBLOCK close,
// and the start-channel rotation keeps the channels level. (The equal-byte
// split programmed 15-16 per buffer with channel 0 ahead of the rest.)
func TestBenchGeometryDenseAndBalanced(t *testing.T) {
	geo := flash.Geometry{
		Channels: 8, EBlocksPerChannel: 64,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}
	st, err := summary.New(geo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(geo, st)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	clock := func() uint64 { seq++; return seq }
	programmed := make([]int, geo.Channels)
	for b := 0; b < 64; b++ {
		var sizes []int
		for total := 0; ; {
			s := 64 * (2 + rng.Intn(63)) // 128 B .. 4 KB
			if total+s > 256<<10 {
				break
			}
			sizes = append(sizes, s)
			total += s
		}
		plan, err := p.ProvisionBatch(contiguousPages(sizes...), clock, record.LSN(b+1))
		if err != nil {
			t.Fatal(err)
		}
		data := 0
		for _, io := range plan.IOs {
			programmed[io.Channel]++
			if io.Inline == nil {
				data++
			}
		}
		if data > 10 {
			t.Fatalf("batch %d: %d data IOs for a 256 KB buffer, want <= 10", b, data)
		}
	}
	lo, hi := programmed[0], programmed[0]
	for _, n := range programmed {
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 2 {
		t.Fatalf("programmed WBLOCKs per channel after 64 batches: %v (spread %d, want <= 2)", programmed, hi-lo)
	}
}
