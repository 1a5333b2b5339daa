package mapping

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"eleos/internal/addr"
)

// flashFake stores flushed table pages by fake address and counts the
// loads the table asks of it.
type flashFake struct {
	next  int
	store map[addr.PhysAddr][]byte
	loads int
}

func newFlashFake() *flashFake {
	return &flashFake{next: 1, store: make(map[addr.PhysAddr][]byte)}
}

func (f *flashFake) put(b []byte) addr.PhysAddr {
	a := addr.MustPack(1, f.next, 0, addr.AlignUp(len(b)))
	f.next++
	cp := make([]byte, len(b))
	copy(cp, b)
	f.store[a] = cp
	return a
}

func (f *flashFake) loader(a addr.PhysAddr) ([]byte, error) {
	f.loads++
	b, ok := f.store[a]
	if !ok {
		return nil, errors.New("fake: unknown address")
	}
	return append([]byte(nil), b...), nil
}

func TestGetUnmapped(t *testing.T) {
	tb := New()
	a, err := tb.Get(42)
	if err != nil {
		t.Fatal(err)
	}
	if a.IsValid() {
		t.Fatal("unmapped LPID should return invalid address")
	}
}

func TestSetGet(t *testing.T) {
	tb := New()
	want := addr.MustPack(2, 3, 128, 256)
	if _, err := tb.Swap(5, want, 10); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Get(5)
	if err != nil || got != want {
		t.Fatalf("Get = %v, %v", got, err)
	}
	// Overwrite.
	want2 := addr.MustPack(2, 4, 0, 64)
	if _, err := tb.Swap(5, want2, 11); err != nil {
		t.Fatal(err)
	}
	got, _ = tb.Get(5)
	if got != want2 {
		t.Fatal("overwrite lost")
	}
}

func TestSetIfConditional(t *testing.T) {
	tb := New()
	a1 := addr.MustPack(0, 1, 0, 64)
	a2 := addr.MustPack(0, 2, 0, 64)
	a3 := addr.MustPack(0, 3, 0, 64)
	if _, err := tb.Swap(7, a1, 1); err != nil {
		t.Fatal(err)
	}
	ok, err := tb.SetIf(7, a1, a2, 2)
	if err != nil || !ok {
		t.Fatalf("SetIf should succeed: %v %v", ok, err)
	}
	ok, err = tb.SetIf(7, a1, a3, 3)
	if err != nil || ok {
		t.Fatalf("SetIf with stale old should fail: %v %v", ok, err)
	}
	got, _ := tb.Get(7)
	if got != a2 {
		t.Fatalf("Get = %v, want %v", got, a2)
	}
}

func TestDirtyTrackingAndMinRecLSN(t *testing.T) {
	tb := New()
	if tb.MinRecLSN() != 0 {
		t.Fatal("clean table should report 0")
	}
	_, _ = tb.Swap(0, addr.MustPack(0, 1, 0, 64), 100)                // page 0
	_, _ = tb.Swap(entriesPerPage+1, addr.MustPack(0, 1, 64, 64), 50) // page 1
	_, _ = tb.Swap(1, addr.MustPack(0, 1, 128, 64), 7)                // page 0 again: recLSN stays 100
	if got := tb.DirtyPages(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("DirtyPages = %v", got)
	}
	if tb.MinRecLSN() != 50 {
		t.Fatalf("MinRecLSN = %d", tb.MinRecLSN())
	}
	fake := newFlashFake()
	img, err := tb.SerializePage(1)
	if err != nil {
		t.Fatal(err)
	}
	tb.MarkFlushed(1, fake.put(img), 200)
	if got := tb.DirtyPages(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after flush DirtyPages = %v", got)
	}
	if tb.MinRecLSN() != 100 {
		t.Fatalf("MinRecLSN after flush = %d", tb.MinRecLSN())
	}
	// Flushing dirtied small page 0 (mapping page 1 lives in small page 0).
	if got := tb.DirtySmallPages(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("DirtySmallPages = %v", got)
	}
}

func TestFlushLoadRoundTrip(t *testing.T) {
	tb := New()
	fake := newFlashFake()
	tb.SetLoader(fake.loader)

	// 40 LPIDs over as many mapping pages and two small-table pages.
	addrs := map[addr.LPID]addr.PhysAddr{}
	for i := 0; i < 40; i++ {
		lpid := addr.LPID(i * entriesPerPage * addrsPerSmallPage / 32)
		a := addr.MustPack(1, 2, i*64, 64)
		addrs[lpid] = a
		if _, err := tb.Swap(lpid, a, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Flush all dirty mapping pages, then all dirty small pages.
	for _, idx := range tb.DirtyPages() {
		img, err := tb.SerializePage(idx)
		if err != nil {
			t.Fatal(err)
		}
		tb.MarkFlushed(idx, fake.put(img), 2)
	}
	for _, sp := range tb.DirtySmallPages() {
		tb.MarkSmallFlushed(sp, fake.put(tb.SerializeSmallPage(sp)))
	}
	tiny := tb.TinyTable()
	if len(tiny) != 2 {
		t.Fatalf("tiny table holds %d small pages after flush, want 2", len(tiny))
	}

	// Simulate crash: fresh table, rebuild from tiny.
	fake.loads = 0
	tb2 := New()
	tb2.SetLoader(fake.loader)
	if err := tb2.LoadFromTiny(tiny); err != nil {
		t.Fatal(err)
	}
	for lpid, want := range addrs {
		got, err := tb2.Get(lpid)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Get(%d) = %v, want %v", lpid, got, want)
		}
	}
	if want := len(tiny) + len(addrs); fake.loads != want {
		t.Fatalf("%d loads from flash, want %d: each small page and each mapping page once", fake.loads, want)
	}
}

func TestPageAddrConditionalRelocation(t *testing.T) {
	tb := New()
	fake := newFlashFake()
	tb.SetLoader(fake.loader)
	_, _ = tb.Swap(0, addr.MustPack(1, 1, 0, 64), 1)
	img, _ := tb.SerializePage(0)
	old := fake.put(img)
	tb.MarkFlushed(0, old, 2)
	if tb.PageAddr(0) != old {
		t.Fatal("PageAddr wrong after flush")
	}
	newA := fake.put(img)
	if !tb.SetPageAddrIf(0, old, newA, 3) {
		t.Fatal("conditional page relocation should succeed")
	}
	if tb.SetPageAddrIf(0, old, newA, 4) {
		t.Fatal("stale conditional relocation should fail")
	}
	if tb.PageAddr(0) != newA {
		t.Fatal("PageAddr not updated")
	}
	// Out-of-range index.
	if tb.SetPageAddrIf(99, old, newA, 5) {
		t.Fatal("out-of-range relocation should fail")
	}
}

func TestSmallPageConditionalRelocation(t *testing.T) {
	tb := New()
	a1 := addr.MustPack(1, 1, 0, 64)
	a2 := addr.MustPack(1, 2, 0, 64)
	tb.MarkSmallFlushed(0, a1)
	if !tb.SmallPageAddrIf(0, a1, a2) {
		t.Fatal("small relocation should succeed")
	}
	if tb.SmallPageAddrIf(0, a1, a2) {
		t.Fatal("stale small relocation should fail")
	}
	tiny := tb.TinyTable()
	if len(tiny) != 1 || tiny[0] != a2 {
		t.Fatalf("tiny = %v", tiny)
	}
}

// TestSmallPageDirtyAcrossItsOwnFlush: a checkpoint flushes mapping pages
// and their small page in one action, so a mapping page's new home reaches
// the small table after the small page's image was taken. The flush of that
// image must not leave the small page clean.
func TestSmallPageDirtyAcrossItsOwnFlush(t *testing.T) {
	tb := New()
	h1, h2 := addr.MustPack(1, 1, 0, 64), addr.MustPack(1, 2, 0, 64)
	tb.MarkFlushed(0, h1, 10)
	_ = tb.SerializeSmallPage(0)
	tb.MarkFlushed(0, h2, 20)
	tb.MarkSmallFlushed(0, addr.MustPack(1, 3, 0, 64))
	if got := tb.DirtySmallPages(); len(got) != 1 || got[0] != 0 || tb.MinRecLSN() != 20 {
		t.Fatalf("after a flush of the older image: dirty small pages %v, min rec LSN %d; want [0], 20", got, tb.MinRecLSN())
	}
	_ = tb.SerializeSmallPage(0)
	tb.MarkSmallFlushed(0, addr.MustPack(1, 4, 0, 64))
	if got := tb.DirtySmallPages(); len(got) != 0 || tb.MinRecLSN() != 0 {
		t.Fatalf("after a flush of the current image: dirty small pages %v, min rec LSN %d; want none", got, tb.MinRecLSN())
	}
}

func TestLoaderErrorsPropagate(t *testing.T) {
	tb := New()
	// Register a flushed page address but no loader.
	tb.SetPageAddr(0, addr.MustPack(1, 1, 0, 64), 1)
	if _, err := tb.Get(0); err == nil {
		t.Fatal("expected error without loader")
	}
	tb.SetLoader(func(a addr.PhysAddr) ([]byte, error) { return nil, errors.New("io error") })
	if _, err := tb.Get(0); err == nil {
		t.Fatal("expected loader error")
	}
	// Corrupt image.
	tb.SetLoader(func(a addr.PhysAddr) ([]byte, error) { return make([]byte, 64), nil })
	if _, err := tb.Get(0); !errors.Is(err, ErrBadPage) {
		t.Fatalf("expected ErrBadPage, got %v", err)
	}
}

func TestDropCache(t *testing.T) {
	tb := New()
	_, _ = tb.Swap(1, addr.MustPack(1, 1, 0, 64), 1)
	tb.DropCache()
	got, err := tb.Get(1)
	if err != nil || got.IsValid() {
		t.Fatal("DropCache should lose volatile state")
	}
	if len(tb.DirtyPages()) != 0 || tb.MinRecLSN() != 0 {
		t.Fatal("DropCache left dirty state")
	}
}

// Property: a sequence of random Swap/SetIf operations, interleaved with
// flush+reload cycles, always leaves Get returning the latest installed
// address per LPID.
func TestRandomOpsMatchModelQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New()
		fake := newFlashFake()
		tb.SetLoader(fake.loader)
		model := map[addr.LPID]addr.PhysAddr{}
		for op := 0; op < 300; op++ {
			lpid := addr.LPID(rng.Intn(64) * entriesPerPage / 4) // 16 pages
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				a := addr.MustPack(1, 1+rng.Intn(10), rng.Intn(100)*64, 64*(1+rng.Intn(4)))
				if _, err := tb.Swap(lpid, a, 1); err != nil {
					return false
				}
				model[lpid] = a
			case 6, 7:
				old := model[lpid]
				a := addr.MustPack(2, 1+rng.Intn(10), rng.Intn(100)*64, 64)
				ok, err := tb.SetIf(lpid, old, a, 1)
				if err != nil {
					return false
				}
				if ok != (old == model[lpid]) {
					return false
				}
				if ok {
					model[lpid] = a
				}
			default:
				// Flush everything dirty (checkpoint-like).
				for _, idx := range tb.DirtyPages() {
					img, err := tb.SerializePage(idx)
					if err != nil {
						return false
					}
					tb.MarkFlushed(idx, fake.put(img), 1)
				}
			}
			if op%37 == 0 {
				for lp, want := range model {
					got, err := tb.Get(lp)
					if err != nil || got != want {
						return false
					}
				}
			}
		}
		for lp, want := range model {
			got, err := tb.Get(lp)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
