package readcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"eleos/internal/flash"
	"eleos/internal/metrics"
)

func page(n, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(n + i)
	}
	return b
}

// fill inserts key via the flight protocol.
func fill(t *testing.T, c *Cache, key uint64, data []byte) {
	t.Helper()
	got, f, leader := c.GetOrStart(key)
	if got != nil {
		t.Fatalf("fill(%d): unexpected hit", key)
	}
	if !leader {
		t.Fatalf("fill(%d): not leader", key)
	}
	c.Complete(key, f, data, nil)
}

func TestHitMissAndByteBudget(t *testing.T) {
	reg := metrics.New()
	c := New(Config{CapacityBytes: 1000, Metrics: reg})

	fill(t, c, 1, page(1, 400))
	fill(t, c, 2, page(2, 400))
	if got, ok := c.Get(1); !ok || got[0] != page(1, 400)[0] {
		t.Fatalf("key 1 should hit")
	}
	// 400+400 cached; inserting 400 more must evict the LRU (key 2 —
	// key 1 was touched more recently).
	fill(t, c, 3, page(3, 400))
	if c.Bytes() > 1000 {
		t.Fatalf("byte budget exceeded: %d", c.Bytes())
	}
	if _, ok := c.Get(2); ok {
		t.Fatalf("key 2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatalf("key 1 (recently used) should survive")
	}
	snap := reg.Snapshot()
	if snap.Counter("read.cache_evictions") == 0 {
		t.Fatalf("expected evictions counted")
	}
	if snap.Gauge("read.cached_bytes") != c.Bytes() {
		t.Fatalf("cached_bytes gauge %d != %d", snap.Gauge("read.cached_bytes"), c.Bytes())
	}
}

func TestVariableSizePagesAreBudgetedInBytes(t *testing.T) {
	c := New(Config{CapacityBytes: 10_000})
	// Many tiny pages fit where few large ones would.
	for i := uint64(0); i < 50; i++ {
		fill(t, c, i, page(int(i), 100))
	}
	if c.Len() != 50 || c.Bytes() != 5000 {
		t.Fatalf("want 50 entries / 5000 bytes, got %d / %d", c.Len(), c.Bytes())
	}
	// One 8 KB page evicts dozens of small ones.
	fill(t, c, 100, page(100, 8000))
	if c.Bytes() > 10_000 {
		t.Fatalf("byte budget exceeded: %d", c.Bytes())
	}
	if _, ok := c.Get(100); !ok {
		t.Fatalf("large page should be cached")
	}
}

func TestOversizedPayloadNotCached(t *testing.T) {
	c := New(Config{CapacityBytes: 100})
	fill(t, c, 1, page(1, 200))
	if c.Len() != 0 {
		t.Fatalf("oversized payload must not be cached")
	}
}

func TestGhostListSecondChance(t *testing.T) {
	reg := metrics.New()
	c := New(Config{CapacityBytes: 300, Metrics: reg})
	fill(t, c, 1, page(1, 100))
	fill(t, c, 2, page(2, 100))
	fill(t, c, 3, page(3, 100))
	// Evict 1 (LRU tail).
	fill(t, c, 4, page(4, 100))
	if _, ok := c.Get(1); ok {
		t.Fatalf("key 1 should be evicted")
	}
	// Re-admit 1: its ghost entry marks it hot.
	fill(t, c, 1, page(1, 100))
	if reg.Snapshot().Counter("read.cache_ghost_hits") != 1 {
		t.Fatalf("expected one ghost hit")
	}
	// 1 is hot: scanning two cold keys through must not evict it.
	fill(t, c, 5, page(5, 100))
	fill(t, c, 6, page(6, 100))
	if _, ok := c.Get(1); !ok {
		t.Fatalf("hot key 1 should survive a cold scan (second chance)")
	}
}

func TestInvalidateRemovesAndSkipsGhost(t *testing.T) {
	c := New(Config{CapacityBytes: 1000})
	fill(t, c, 1, page(1, 100))
	c.Invalidate(1)
	if _, ok := c.Get(1); ok {
		t.Fatalf("invalidated key must miss")
	}
	if c.Bytes() != 0 {
		t.Fatalf("bytes not released: %d", c.Bytes())
	}
	// An invalidated key re-admitted is NOT a ghost hit (fresh write).
	fill(t, c, 1, page(1, 100))
	if c.ghost.Len() != 0 {
		t.Fatalf("invalidation must not feed the ghost list")
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	var loads atomic.Int64
	var wg sync.WaitGroup
	want := page(7, 512)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, f, leader := c.GetOrStart(7)
			if data != nil {
				return // late arrival hit the cache
			}
			if leader {
				loads.Add(1)
				c.Complete(7, f, want, nil)
				return
			}
			got, err := f.Wait()
			if err != nil || len(got) != len(want) {
				t.Errorf("waiter got err=%v len=%d", err, len(got))
			}
		}()
	}
	wg.Wait()
	if loads.Load() != 1 {
		t.Fatalf("single-flight violated: %d loads", loads.Load())
	}
}

func TestPoisonedFlightDeliversButDoesNotCache(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	_, f, leader := c.GetOrStart(9)
	if !leader {
		t.Fatalf("expected leadership")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, err := f.Wait()
		if err != nil || got == nil {
			panic(fmt.Sprintf("waiter got err=%v data=%v", err, got))
		}
	}()
	// Install races the fill: poison it.
	c.Invalidate(9)
	c.Complete(9, f, page(9, 64), nil)
	<-done
	if _, ok := c.Get(9); ok {
		t.Fatalf("poisoned fill must not populate the cache")
	}
	// A post-install lookup starts a FRESH flight (not the stale one).
	_, f2, leader2 := c.GetOrStart(9)
	if !leader2 || f2 == f {
		t.Fatalf("post-invalidate lookup must start a fresh flight")
	}
	c.Complete(9, f2, page(10, 64), nil)
}

func TestErrorFillNotCachedAndWaiterSeesError(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20})
	boom := errors.New("boom")
	_, f, _ := c.GetOrStart(3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, f2, leader := c.GetOrStart(3)
		if leader {
			// The error fill completed before we registered; fine.
			c.Complete(3, f2, nil, boom)
			return
		}
		if _, err := f2.Wait(); !errors.Is(err, boom) {
			t.Errorf("waiter err = %v, want boom", err)
		}
	}()
	c.Complete(3, f, nil, boom)
	wg.Wait()
	if _, ok := c.Get(3); ok {
		t.Fatalf("errored fill must not be cached")
	}
}

func TestConcurrentHammer(t *testing.T) {
	c := New(Config{CapacityBytes: 4096})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := uint64((w*31 + i) % 64)
				switch i % 5 {
				case 4:
					c.Invalidate(key)
				default:
					data, f, leader := c.GetOrStart(key)
					if data != nil {
						_ = data[0]
					} else if leader {
						c.Complete(key, f, page(int(key), 64+int(key)), nil)
					} else {
						f.Wait()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 4096 {
		t.Fatalf("byte budget exceeded after hammer: %d", c.Bytes())
	}
}

// TestChargedBytesAreRetainedBytes: after a kv-shaped fill from flash
// loads (1 KB values read out of 4 KB RBLOCKs, as core's read path loads
// them), the bytes the cache charges against its budget are the bytes it
// keeps alive: every cached payload's capacity is its length.
func TestChargedBytesAreRetainedBytes(t *testing.T) {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	g := dev.Geometry()
	for wb := 0; wb < 4; wb++ {
		if err := dev.Program(flash.SrcUser, 0, 0, wb, page(wb, g.WBlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(Config{CapacityBytes: 1 << 20})
	off := 0
	for key := uint64(0); off+1792 <= 4*g.WBlockBytes; key++ {
		length := 256 + 64*int(key%25) // 256..1792, mean 1 KB
		r := []flash.Read{{Channel: 0, EBlock: 0, Seg: flash.ReadSeg{Off: off, Dst: make([]byte, length)}}}
		if dev.ReadAll(r); r[0].Err != nil {
			t.Fatal(r[0].Err)
		}
		fill(t, c, key, r[0].Seg.Dst)
		off += length
	}
	var retained int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		retained += int64(cap(el.Value.(*entry).data))
	}
	if c.Len() < 50 || retained != c.Bytes() {
		t.Fatalf("%d entries charge %d bytes and retain %d", c.Len(), c.Bytes(), retained)
	}
}
