package summary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/record"
)

// testGeometry is SmallGeometry with four times its EBLOCKs per channel,
// so its descriptors fill four summary pages.
func testGeometry() flash.Geometry {
	g := flash.SmallGeometry()
	g.EBlocksPerChannel = 4 * perPage / g.Channels
	return g
}

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tb, err := New(testGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestLifecycleTransitions(t *testing.T) {
	tb := newTestTable(t)
	d, err := tb.Desc(0, 0)
	if err != nil || d.State != Free {
		t.Fatalf("initial state: %+v %v", d, err)
	}
	if err := tb.OpenEBlock(0, 0, record.StreamUser, 5); err != nil {
		t.Fatal(err)
	}
	if err := tb.OpenEBlock(0, 0, record.StreamUser, 6); !errors.Is(err, ErrNotFree) {
		t.Fatalf("double open: %v", err)
	}
	d, _ = tb.Desc(0, 0)
	if d.State != Open || d.Stream != record.StreamUser {
		t.Fatalf("after open: %+v", d)
	}
	if err := tb.CloseEBlock(0, 0, 42, 2, 7); err != nil {
		t.Fatal(err)
	}
	d, _ = tb.Desc(0, 0)
	if d.State != Used || d.Timestamp != 42 || d.MetaWBlocks != 2 {
		t.Fatalf("after close: %+v", d)
	}
	if err := tb.CloseEBlock(0, 0, 43, 2, 8); !errors.Is(err, ErrNotOpen) {
		t.Fatalf("double close: %v", err)
	}
	if err := tb.FreeEBlock(0, 0, 9); err != nil {
		t.Fatal(err)
	}
	d, _ = tb.Desc(0, 0)
	if d.State != Free || d.EraseCount != 1 || d.Avail != 0 || d.Timestamp != 0 {
		t.Fatalf("after free: %+v", d)
	}
	if err := tb.FreeEBlock(0, 0, 10); !errors.Is(err, ErrNotUsed) {
		t.Fatalf("freeing free block: %v", err)
	}
}

func TestFreeOpenEBlockAfterMigration(t *testing.T) {
	tb := newTestTable(t)
	if err := tb.OpenEBlock(1, 1, record.StreamUser, 1); err != nil {
		t.Fatal(err)
	}
	// Migration erases open (write-failed) EBLOCKs too.
	if err := tb.FreeEBlock(1, 1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTakeFreeWearLevelling(t *testing.T) {
	tb := newTestTable(t)
	// Cycle eblock 0 a few times to raise its erase count.
	for i := 0; i < 3; i++ {
		if err := tb.OpenEBlock(0, 0, record.StreamUser, 1); err != nil {
			t.Fatal(err)
		}
		if err := tb.CloseEBlock(0, 0, 1, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := tb.FreeEBlock(0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	eb, ok := tb.TakeFree(0)
	if !ok || eb == 0 {
		t.Fatalf("TakeFree should avoid worn eblock 0, got %d %v", eb, ok)
	}
}

func TestFreeCountAndReserve(t *testing.T) {
	tb := newTestTable(t)
	g := testGeometry()
	if tb.FreeCount(0) != g.EBlocksPerChannel {
		t.Fatalf("FreeCount = %d", tb.FreeCount(0))
	}
	if err := tb.Reserve(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tb.Reserve(0, 1); err != nil {
		t.Fatal(err)
	}
	if tb.FreeCount(0) != g.EBlocksPerChannel-2 {
		t.Fatalf("FreeCount after reserve = %d", tb.FreeCount(0))
	}
	d, _ := tb.Desc(0, 0)
	if d.State != Reserved {
		t.Fatal("reserve did not stick")
	}
}

func TestAvailAndWBlockAccounting(t *testing.T) {
	tb := newTestTable(t)
	_ = tb.OpenEBlock(2, 3, record.StreamGC, 1)
	if err := tb.SetDataWBlocks(2, 3, 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddAvail(2, 3, 1000, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddAvail(2, 3, 24, 4); err != nil {
		t.Fatal(err)
	}
	d, _ := tb.Desc(2, 3)
	if d.DataWBlocks != 4 || d.Avail != 1024 {
		t.Fatalf("accounting: %+v", d)
	}
	if err := tb.SetDataWBlocks(2, 3, 7, 5); err != nil {
		t.Fatal(err)
	}
	d, _ = tb.Desc(2, 3)
	if d.DataWBlocks != 7 {
		t.Fatal("SetDataWBlocks failed")
	}
}

func TestMetaAppendOrderPreserved(t *testing.T) {
	tb := newTestTable(t)
	_ = tb.OpenEBlock(0, 2, record.StreamUser, 1)
	for i := 0; i < 10; i++ {
		e := MetaEntry{LPID: addr.LPID(i), Type: addr.PageUser, Offset: i * 64, Length: 64}
		if err := tb.AppendMeta(0, 2, e); err != nil {
			t.Fatal(err)
		}
	}
	m := tb.Meta(0, 2)
	if len(m) != 10 {
		t.Fatalf("meta len = %d", len(m))
	}
	for i, e := range m {
		if e.LPID != addr.LPID(i) || e.Offset != i*64 {
			t.Fatalf("meta[%d] = %+v", i, e)
		}
	}
	// Close keeps the metadata until the flushed copy is durable.
	_ = tb.CloseEBlock(0, 2, 1, 1, 2)
	if len(tb.Meta(0, 2)) != 10 {
		t.Fatal("close dropped in-memory metadata before ClearMeta")
	}
	tb.ClearMeta(0, 2)
	if len(tb.Meta(0, 2)) != 0 {
		t.Fatal("ClearMeta should drop in-memory metadata")
	}
}

func TestOpenEBlocks(t *testing.T) {
	tb := newTestTable(t)
	_ = tb.OpenEBlock(0, 2, record.StreamUser, 10)
	_ = tb.OpenEBlock(1, 3, record.StreamGC, 5)
	_ = tb.OpenEBlock(2, 4, record.StreamLog, 2)
	_ = tb.CloseEBlock(1, 3, 1, 0, 30)
	refs := tb.OpenEBlocks()
	want := []OpenRef{{0, 2, record.StreamUser, 10}, {2, 4, record.StreamLog, 2}}
	if !slices.Equal(refs, want) {
		t.Fatalf("open = %v, want %v", refs, want)
	}
}

func TestUsedEBlocks(t *testing.T) {
	tb := newTestTable(t)
	_ = tb.OpenEBlock(1, 0, record.StreamUser, 1)
	_ = tb.CloseEBlock(1, 0, 1, 0, 2)
	_ = tb.OpenEBlock(1, 5, record.StreamUser, 3)
	_ = tb.CloseEBlock(1, 5, 2, 0, 4)
	used := tb.UsedEBlocks(1)
	if len(used) != 2 || used[0] != 0 || used[1] != 5 {
		t.Fatalf("used = %v", used)
	}
}

func TestDirtyTrackingAndFlush(t *testing.T) {
	tb := newTestTable(t)
	if n := len(tb.DirtyPages()); n != 0 {
		t.Fatalf("fresh table dirty: %d", n)
	}
	_ = tb.OpenEBlock(0, 0, record.StreamUser, 100) // page 0
	_ = tb.AddAvail(3, 63, 64, 50)                  // last page
	dirty := tb.DirtyPages()
	if len(dirty) != 2 {
		t.Fatalf("dirty = %v", dirty)
	}
	if tb.MinRecLSN() != 50 {
		t.Fatalf("MinRecLSN = %d", tb.MinRecLSN())
	}
	img := tb.SerializePage(dirty[0], 200)
	a := addr.MustPack(1, 1, 0, addr.AlignUp(len(img)))
	tb.MarkFlushed(dirty[0], a, 200)
	if len(tb.DirtyPages()) != 1 {
		t.Fatal("flush did not clean page")
	}
	if tb.FlushLSNFor(0, 0) != 200 {
		t.Fatalf("FlushLSNFor = %d", tb.FlushLSNFor(0, 0))
	}
	loc := tb.Locator()
	if loc[dirty[0]] != a {
		t.Fatal("locator not updated")
	}
}

func TestSerializeLoadRoundTrip(t *testing.T) {
	tb := newTestTable(t)
	_ = tb.OpenEBlock(0, 3, record.StreamUser, 1)
	_ = tb.SetDataWBlocks(0, 3, 5, 2)
	_ = tb.AddAvail(0, 3, 4096, 3)
	_ = tb.OpenEBlock(1, 1, record.StreamGC, 4)
	_ = tb.CloseEBlock(1, 1, 77, 1, 5)

	store := map[addr.PhysAddr][]byte{}
	next := 1
	for _, idx := range tb.DirtyPages() {
		img := tb.SerializePage(idx, 99)
		a := addr.MustPack(2, next, 0, addr.AlignUp(len(img)))
		next++
		store[a] = img
		tb.MarkFlushed(idx, a, 99)
	}
	loc := tb.Locator()

	tb2 := newTestTable(t)
	err := tb2.LoadFromLocator(loc, func(a addr.PhysAddr) ([]byte, error) {
		b, ok := store[a]
		if !ok {
			return nil, errors.New("missing")
		}
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := tb2.Desc(0, 3)
	if d.State != Open || d.DataWBlocks != 5 || d.Avail != 4096 || d.Stream != record.StreamUser {
		t.Fatalf("recovered (0,3): %+v", d)
	}
	d, _ = tb2.Desc(1, 1)
	if d.State != Used || d.Timestamp != 77 || d.MetaWBlocks != 1 {
		t.Fatalf("recovered (1,1): %+v", d)
	}
	if tb2.FlushLSNFor(0, 3) != 99 {
		t.Fatalf("recovered flush LSN = %d", tb2.FlushLSNFor(0, 3))
	}
	// Untouched eblocks default to Free.
	d, _ = tb2.Desc(3, 15)
	if d.State != Free {
		t.Fatalf("default state: %+v", d)
	}
}

func TestLoadRejectsCorruptPage(t *testing.T) {
	tb := newTestTable(t)
	_ = tb.OpenEBlock(0, 0, record.StreamUser, 1)
	idx := tb.DirtyPages()[0]
	img := tb.SerializePage(idx, 1)
	img[25] ^= 0xFF
	tb2 := newTestTable(t)
	loc := make([]addr.PhysAddr, tb2.NumPages())
	loc[idx] = addr.MustPack(1, 1, 0, addr.AlignUp(len(img)))
	err := tb2.LoadFromLocator(loc, func(addr.PhysAddr) ([]byte, error) { return img, nil })
	if !errors.Is(err, ErrBadPage) {
		t.Fatalf("expected ErrBadPage, got %v", err)
	}
}

func TestPageAddrIf(t *testing.T) {
	tb := newTestTable(t)
	a1 := addr.MustPack(1, 1, 0, 64)
	a2 := addr.MustPack(1, 2, 0, 64)
	tb.MarkFlushed(0, a1, 1)
	if !tb.PageAddrIf(0, a1, a2) {
		t.Fatal("relocation should succeed")
	}
	if tb.PageAddrIf(0, a1, a2) {
		t.Fatal("stale relocation should fail")
	}
	if tb.Locator()[0] != a2 {
		t.Fatal("locator not updated")
	}
	if tb.PageAddrIf(1000, a1, a2) {
		t.Fatal("out-of-range relocation should fail")
	}
}

func TestDropVolatile(t *testing.T) {
	tb := newTestTable(t)
	_ = tb.OpenEBlock(0, 0, record.StreamUser, 1)
	_ = tb.AppendMeta(0, 0, MetaEntry{LPID: 1, Type: addr.PageUser, Offset: 0, Length: 64})
	tb.DropVolatile()
	d, _ := tb.Desc(0, 0)
	if d.State != Free {
		t.Fatal("DropVolatile should reset descriptors")
	}
	if len(tb.Meta(0, 0)) != 0 || len(tb.DirtyPages()) != 0 {
		t.Fatal("DropVolatile left volatile state")
	}
}

func TestMetaBlockRoundTrip(t *testing.T) {
	entries := []MetaEntry{
		{LPID: 1, Type: addr.PageUser, Offset: 0, Length: 64},
		{LPID: 999, Type: addr.PageMap, Offset: 128, Length: 1920},
		{LPID: addr.MakeTableLPID(addr.PageSummary, 3), Type: addr.PageSummary, Offset: 32768, Length: 4096},
	}
	img := EncodeMetaBlock(entries)
	if len(img)%addr.Align != 0 {
		t.Fatal("meta block not aligned")
	}
	if len(img) != MetaBlockSize(len(entries)) {
		t.Fatal("MetaBlockSize mismatch")
	}
	got, err := DecodeMetaBlock(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries = %d", len(got))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, got[i], entries[i])
		}
	}
}

func TestMetaBlockCorruption(t *testing.T) {
	img := EncodeMetaBlock([]MetaEntry{{LPID: 1, Type: addr.PageUser, Offset: 0, Length: 64}})
	img[13] ^= 0x01
	if _, err := DecodeMetaBlock(img); !errors.Is(err, ErrBadMeta) {
		t.Fatal("corruption not detected")
	}
	if _, err := DecodeMetaBlock(make([]byte, 64)); !errors.Is(err, ErrBadMeta) {
		t.Fatal("zero block not rejected")
	}
	if _, err := DecodeMetaBlock(nil); !errors.Is(err, ErrBadMeta) {
		t.Fatal("nil block not rejected")
	}
}

// metaPrefix is the part of a flushed metadata area GC reads: the first
// RBLOCK, then up to the length its header gives, never past the area.
func metaPrefix(area []byte, rblock int) []byte {
	n := min(rblock, len(area))
	if end := min(MetaBlockLen(area[:n]), len(area)); end > n {
		n = end
	}
	return area[:n]
}

// TestMetaBlockLenMatchesDecode: decoding the exact-length prefix of a
// metadata area gives what decoding the whole area gives — the same
// entries for every count up to 2 000, the same error for a bad magic, an
// erased area, a count past the area and a bad checksum — so reading
// fewer RBLOCKs never changes whether GC finds a victim unreadable.
func TestMetaBlockLenMatchesDecode(t *testing.T) {
	geo := flash.SmallGeometry()
	r, w := geo.RBlockBytes, geo.WBlockBytes
	same := func(name string, area []byte) {
		t.Helper()
		prefix := metaPrefix(area, r)
		want, wantErr := DecodeMetaBlock(area)
		got, err := DecodeMetaBlock(prefix)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("%s: the %d-byte prefix decodes to %d entries, %v; the %d-byte area to %d, %v",
				name, len(prefix), len(got), err, len(area), len(want), wantErr)
		}
		if wantErr == nil && len(prefix) > (MetaBlockLen(area)+r-1)/r*r {
			t.Fatalf("%s: read %d bytes for a %d-byte block", name, len(prefix), MetaBlockLen(area))
		}
	}
	// flushed lays a block out as a close does: at the start of its
	// WBLOCKs, the rest of the area stale.
	flushed := func(entries []MetaEntry) []byte {
		img := EncodeMetaBlock(entries)
		area := bytes.Repeat([]byte{0xEE}, (len(img)+w-1)/w*w)
		copy(area, img)
		return area
	}
	entries := make([]MetaEntry, 2000)
	for i := range entries {
		entries[i] = MetaEntry{LPID: addr.LPID(i + 1), Type: addr.PageUser, Offset: i * addr.Align, Length: addr.Align}
	}
	for n := 0; n <= len(entries); n++ {
		area := flushed(entries[:n])
		if got := MetaBlockLen(area); got != 12+16*n+4 {
			t.Fatalf("%d entries: MetaBlockLen %d", n, got)
		}
		same(fmt.Sprintf("%d entries", n), area)
	}

	valid := flushed(entries[:300]) // two RBLOCKs of one WBLOCK
	corrupt := func(name string, f func(area []byte)) {
		area := slices.Clone(valid)
		f(area)
		same(name, area)
	}
	corrupt("bad magic", func(a []byte) { a[0] ^= 0xFF })
	corrupt("erased", func(a []byte) { clear(a) })
	corrupt("count one entry past the area", func(a []byte) { binary.LittleEndian.PutUint32(a[4:], uint32(w/16)) })
	corrupt("count at the maximum", func(a []byte) { binary.LittleEndian.PutUint32(a[4:], math.MaxUint32) })
	corrupt("count short of the block", func(a []byte) { binary.LittleEndian.PutUint32(a[4:], 299) })
	corrupt("entry in the second RBLOCK", func(a []byte) { a[r+8] ^= 0x01 })
	corrupt("checksum", func(a []byte) { a[12+300*16] ^= 0x01 })
	for _, head := range [][]byte{nil, valid[:15], make([]byte, r)} {
		if got := MetaBlockLen(head); got != 0 {
			t.Fatalf("MetaBlockLen of a %d-byte head without a block = %d, want 0", len(head), got)
		}
	}
}

func TestMetaBlockRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		entries := make([]MetaEntry, n)
		for i := range entries {
			entries[i] = MetaEntry{
				LPID:   addr.LPID(rng.Uint64()),
				Type:   addr.PageType(1 + rng.Intn(5)),
				Offset: rng.Intn(1<<20) * addr.Align,
				Length: (1 + rng.Intn(1<<10)) * addr.Align,
			}
		}
		got, err := DecodeMetaBlock(EncodeMetaBlock(entries))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRange(t *testing.T) {
	tb := newTestTable(t)
	if _, err := tb.Desc(99, 0); err == nil {
		t.Fatal("range not enforced")
	}
	if err := tb.OpenEBlock(0, 99, record.StreamUser, 1); err == nil {
		t.Fatal("range not enforced")
	}
	if err := tb.AddAvail(-1, 0, 1, 1); err == nil {
		t.Fatal("range not enforced")
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Free: "free", Open: "open", Used: "used", Bad: "bad", Reserved: "reserved"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// scanFree counts a channel's Free descriptors the way FreeCount did
// before it became a counter.
func scanFree(t *testing.T, tb *Table, g flash.Geometry, ch int) int {
	t.Helper()
	n := 0
	for eb := 0; eb < g.EBlocksPerChannel; eb++ {
		d, err := tb.Desc(ch, eb)
		if err != nil {
			t.Fatal(err)
		}
		if d.State == Free {
			n++
		}
	}
	return n
}

// TestFreeCountMatchesScan: the per-channel free counter equals a scan of
// the descriptors after every step of seeded random histories over every
// method that can change an EBLOCK's state — the lifecycle transitions
// (legal or refused), MarkBad and Reserve from any state, SetDesc with an
// arbitrary descriptor, recovery's LoadFromLocator over an earlier image
// of the table, and DropVolatile.
func TestFreeCountMatchesScan(t *testing.T) {
	g := testGeometry()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := newTestTable(t)
		// image is the table as flushed at some earlier step: what
		// LoadFromLocator reads back.
		image := map[addr.PhysAddr][]byte{}
		locator := make([]addr.PhysAddr, tb.NumPages())
		for step := 0; step < 400; step++ {
			ch, eb, lsn := rng.Intn(g.Channels), rng.Intn(g.EBlocksPerChannel), record.LSN(step+1)
			op := rng.Intn(100)
			switch {
			case op < 30:
				_ = tb.OpenEBlock(ch, eb, record.StreamKind(1+rng.Intn(3)), lsn) // refused unless Free
			case op < 50:
				_ = tb.CloseEBlock(ch, eb, uint64(step), 1, lsn) // refused unless Open
			case op < 70:
				_ = tb.FreeEBlock(ch, eb, lsn) // refused unless Used or Open
			case op < 76:
				if err := tb.MarkBad(ch, eb, lsn); err != nil {
					t.Fatal(err)
				}
			case op < 80:
				if err := tb.Reserve(ch, eb); err != nil {
					t.Fatal(err)
				}
			case op < 90:
				d := Descriptor{State: State(rng.Intn(5)), EraseCount: uint32(rng.Intn(9))}
				if err := tb.SetDesc(ch, eb, d, lsn); err != nil {
					t.Fatal(err)
				}
			case op < 94: // flush every page: the image recovery will load
				for idx := range locator {
					img := tb.SerializePage(idx, lsn)
					locator[idx] = addr.MustPack(1, 1+idx, 0, len(img))
					image[locator[idx]] = img
				}
			case op < 98:
				if rng.Intn(2) == 0 {
					tb.DropVolatile() // a crash comes first, as in recovery
					for c := 0; c < g.Channels; c++ {
						if got := tb.FreeCount(c); got != g.EBlocksPerChannel {
							t.Fatalf("seed %d step %d: FreeCount(%d) = %d after DropVolatile, want %d", seed, step, c, got, g.EBlocksPerChannel)
						}
					}
				}
				if err := tb.LoadFromLocator(locator, func(a addr.PhysAddr) ([]byte, error) { return image[a], nil }); err != nil {
					t.Fatal(err)
				}
			default:
				tb.DropVolatile()
			}
			for c := 0; c < g.Channels; c++ {
				if got, want := tb.FreeCount(c), scanFree(t, tb, g, c); got != want {
					t.Fatalf("seed %d step %d (op %d on (%d,%d)): FreeCount(%d) = %d, a scan counts %d", seed, step, op, ch, eb, c, got, want)
				}
				if got := len(tb.FreeList(c)); got != tb.FreeCount(c) {
					t.Fatalf("seed %d step %d: FreeList(%d) has %d entries, FreeCount %d", seed, step, c, got, tb.FreeCount(c))
				}
			}
		}
	}
}

func TestFreeListWearOrder(t *testing.T) {
	tb := newTestTable(t)
	for eb, erases := range []int{2, 0, 1, 0, 2} {
		if err := tb.SetDesc(1, eb, Descriptor{State: Free, EraseCount: uint32(erases)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := tb.FreeList(1)[:6] // the rest of the channel: never erased, eblock order
	want := []int{1, 3, 5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeList = %v..., want %v... (erase count, then eblock)", got, want)
		}
	}
}

// TestMetaRunsLenAndWith covers the three methods a provisioning plan
// uses: AppendMetaRuns appends every run in order under one call, MetaLen
// counts without copying, MetaWith returns the table's entries followed by
// the caller's as a fresh exact-size list.
func TestMetaRunsLenAndWith(t *testing.T) {
	tb := newTestTable(t)
	entry := func(i int) MetaEntry {
		return MetaEntry{LPID: addr.LPID(i), Type: addr.PageUser, Offset: 64 * i, Length: 64}
	}
	for _, eb := range []int{2, 3} {
		if err := tb.OpenEBlock(0, eb, record.StreamUser, 1); err != nil {
			t.Fatal(err)
		}
	}
	if tb.MetaLen(0, 2) != 0 || tb.MetaWith(0, 2, nil) != nil {
		t.Fatal("a fresh EBLOCK has entries")
	}
	runs := []MetaRun{
		{Channel: 0, EBlock: 2, Entries: []MetaEntry{entry(0), entry(1)}},
		{Channel: 0, EBlock: 3, Entries: []MetaEntry{entry(2)}},
		{Channel: 0, EBlock: 2, Entries: []MetaEntry{entry(3)}},
	}
	if err := tb.AppendMetaRuns(runs); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendMetaRuns([]MetaRun{{Channel: 99, EBlock: 0}}); err == nil {
		t.Fatal("a run for a channel out of range was accepted")
	}
	if tb.MetaLen(0, 2) != 3 || tb.MetaLen(0, 3) != 1 {
		t.Fatalf("MetaLen = %d, %d, want 3, 1", tb.MetaLen(0, 2), tb.MetaLen(0, 3))
	}
	runs[0].Entries[0].LPID = 77 // the table copied the entries
	extra := []MetaEntry{entry(8), entry(9)}
	got := tb.MetaWith(0, 2, extra)
	want := []MetaEntry{entry(0), entry(1), entry(3), entry(8), entry(9)}
	if len(got) != len(want) {
		t.Fatalf("MetaWith returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MetaWith[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	got[0].LPID = 55 // a copy: the table's entries stay
	if m := tb.Meta(0, 2); len(m) != 3 || m[0] != entry(0) {
		t.Fatalf("Meta after MetaWith = %+v", m)
	}
}
