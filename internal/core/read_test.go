package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/flash"
	"eleos/internal/readcache"
)

func cachedConfig() Config {
	cfg := DefaultConfig()
	cfg.ReadCacheBytes = 1 << 20
	return cfg
}

func newFormattedCfg(t *testing.T, cfg Config) (*Controller, *flash.Device) {
	t.Helper()
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	c, err := Format(dev, cfg)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return c, dev
}

func TestReadBatchScatterGather(t *testing.T) {
	c, _ := newFormatted(t)
	var pages []LPage
	sizes := []int{100, 1920, 64, 4000, 777, 2048}
	for i, sz := range sizes {
		pages = append(pages, LPage{LPID: addr.LPID(i + 1), Data: pageContent(uint64(i+1), 1, sz)})
	}
	mustWrite(t, c, pages...)

	lpids := []addr.LPID{3, 1, 99, 6, 2, 4, 5} // out of order, one unmapped
	got, err := c.ReadBatch(lpids)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if len(got) != len(lpids) {
		t.Fatalf("ReadBatch returned %d results, want %d", len(got), len(lpids))
	}
	if got[2] != nil {
		t.Fatalf("unmapped LPID should yield nil, got %d bytes", len(got[2]))
	}
	for gi, lpid := range lpids {
		if lpid == 99 {
			continue
		}
		want := pageContent(uint64(lpid), 1, sizes[int(lpid)-1])
		if !bytes.Equal(got[gi][:len(want)], want) {
			t.Fatalf("ReadBatch entry for LPID %d differs", lpid)
		}
	}
}

func TestReadBatchEmptyAndAllMissing(t *testing.T) {
	c, _ := newFormatted(t)
	if got, err := c.ReadBatch(nil); err != nil || got != nil {
		t.Fatalf("empty batch: got %v, %v", got, err)
	}
	got, err := c.ReadBatch([]addr.LPID{7, 8, 9})
	if err != nil {
		t.Fatalf("all-missing batch must not error: %v", err)
	}
	for i, d := range got {
		if d != nil {
			t.Fatalf("entry %d should be nil", i)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		cfg := DefaultConfig()
		if cached {
			name = "cached"
			cfg = cachedConfig()
		}
		t.Run(name, func(t *testing.T) {
			c, _ := newFormattedCfg(t, cfg)
			const nPages = 32
			for i := 1; i <= nPages; i++ {
				mustWrite(t, c, LPage{LPID: addr.LPID(i), Data: pageContent(uint64(i), 1, 500+i)})
			}
			var wg, wwg sync.WaitGroup
			stop := make(chan struct{})
			// Writers keep overwriting a disjoint LPID range to force
			// GC/install churn under the readers.
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				v := uint64(2)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := nPages + 1; i <= nPages+8; i++ {
						c.WriteBatch(0, 0, []LPage{{LPID: addr.LPID(i), Data: pageContent(uint64(i), v, 900)}})
					}
					v++
				}
			}()
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 400; i++ {
						lpid := addr.LPID(1 + (w*7+i)%nPages)
						want := pageContent(uint64(lpid), 1, 500+int(lpid))
						got, err := c.Read(lpid)
						if err != nil {
							t.Errorf("Read(%d): %v", lpid, err)
							return
						}
						if !bytes.Equal(got[:len(want)], want) {
							t.Errorf("Read(%d) content differs", lpid)
							return
						}
					}
				}(w)
			}
			wg.Wait() // readers finish
			close(stop)
			wwg.Wait()
			if n := c.PinnedEBlocks(); n != 0 {
				t.Fatalf("reader pins leaked: %d", n)
			}
		})
	}
}

func TestCacheHitsSkipFlash(t *testing.T) {
	c, dev := newFormattedCfg(t, cachedConfig())
	data := pageContent(1, 1, 3000)
	mustWrite(t, c, LPage{LPID: 1, Data: data})

	if _, err := c.Read(1); err != nil { // cold: goes to flash
		t.Fatalf("Read: %v", err)
	}
	before := dev.Stats().RBlocksRead
	for i := 0; i < 50; i++ {
		got, err := c.Read(1)
		if err != nil || !bytes.Equal(got[:len(data)], data) {
			t.Fatalf("warm Read: %v", err)
		}
	}
	if after := dev.Stats().RBlocksRead; after != before {
		t.Fatalf("warm reads touched flash: %d extra RBLOCKs", after-before)
	}
	snap := c.MetricsSnapshot()
	if snap.Counter("read.cache_hits") < 50 {
		t.Fatalf("cache_hits = %d, want >= 50", snap.Counter("read.cache_hits"))
	}
}

func TestCacheInvalidatedOnOverwrite(t *testing.T) {
	c, _ := newFormattedCfg(t, cachedConfig())
	v1 := pageContent(1, 1, 1000)
	v2 := pageContent(1, 2, 1200)
	mustWrite(t, c, LPage{LPID: 1, Data: v1})
	if _, err := c.Read(1); err != nil {
		t.Fatalf("Read v1: %v", err)
	}
	mustWrite(t, c, LPage{LPID: 1, Data: v2}) // install must invalidate
	got, err := c.Read(1)
	if err != nil {
		t.Fatalf("Read v2: %v", err)
	}
	if !bytes.Equal(got[:len(v2)], v2) {
		t.Fatalf("read returned stale bytes after overwrite")
	}
}

// TestCacheCoherentAcrossGC: a GC relocation that moves a cached page
// drops its cache entry at the install (the coherence rule is uniform: any
// mapping change invalidates), so the next read loads the new location
// from flash and returns the page byte for byte, while a cached page GC
// did not move is still served from the cache.
func TestCacheCoherentAcrossGC(t *testing.T) {
	c, dev := newFormattedCfg(t, cachedConfig())
	const keep = 8
	where := func(lpid addr.LPID) addr.PhysAddr {
		t.Helper()
		a, err := c.mt.Get(lpid)
		if err != nil || !a.IsValid() {
			t.Fatalf("mapping of %d: %v %v", lpid, a, err)
		}
		return a
	}
	// readFromFlash reads the page, checks it, and reports whether the
	// read went to the device.
	readFromFlash := func(lpid addr.LPID) bool {
		t.Helper()
		before := dev.Stats().RBlocksRead
		want := pageContent(uint64(lpid), 1, 2000)
		got, err := c.Read(lpid)
		if err != nil {
			t.Fatalf("Read(%d): %v", lpid, err)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("Read(%d) content differs", lpid)
		}
		return dev.Stats().RBlocksRead != before
	}
	var home [keep + 1]addr.PhysAddr
	for i := addr.LPID(1); i <= keep; i++ {
		mustWrite(t, c, LPage{LPID: i, Data: pageContent(uint64(i), 1, 2000)})
		home[i] = where(i)
		if !readFromFlash(i) || readFromFlash(i) {
			t.Fatalf("warming page %d: the first read must load from flash and the second hit the cache", i)
		}
	}
	// Churn eight other pages until the device fills and GC, collecting the
	// EBLOCKs the cached pages share with dead churn versions, relocates
	// at least one of them.
	moved := func() (n int) {
		for i := addr.LPID(1); i <= keep; i++ {
			if where(i) != home[i] {
				n++
			}
		}
		return n
	}
	for flush := 0; moved() == 0; flush++ {
		if flush == 4000 {
			t.Fatalf("4 000 churn flushes (%d EBLOCKs freed by GC) relocated no cached page", c.Stats().GCEBlocksFreed)
		}
		lpid := addr.LPID(100 + flush%8)
		if err := c.WriteBatch(0, 0, []LPage{{LPID: lpid, Data: pageContent(uint64(lpid), uint64(flush), 8000)}}); err != nil {
			t.Fatalf("churn write: %v", err)
		}
	}
	t.Logf("GC relocated %d of the %d cached pages (%d EBLOCKs freed, %d pages moved)", moved(), keep, c.Stats().GCEBlocksFreed, c.Stats().GCPagesMoved)
	for i := addr.LPID(1); i <= keep; i++ {
		relocated := where(i) != home[i]
		if fromFlash := readFromFlash(i); fromFlash != relocated {
			t.Fatalf("page %d: relocated=%v but read from flash=%v (a relocated page's cache entry must be dropped at the install, an unmoved one kept)", i, relocated, fromFlash)
		}
		if readFromFlash(i) {
			t.Fatalf("page %d: the read after the reload missed the cache again", i)
		}
	}
}

func TestLengthExistsShortLockAndTypedErrors(t *testing.T) {
	c, _ := newFormatted(t)
	data := pageContent(5, 1, 999)
	mustWrite(t, c, LPage{LPID: 5, Data: data})

	n, err := c.Length(5)
	if err != nil || n != addr.AlignUp(len(data)) {
		t.Fatalf("Length = %d, %v", n, err)
	}
	if _, err := c.Length(6); !errors.Is(err, ErrNotFound) || !IsNotFound(err) {
		t.Fatalf("Length(unmapped) err = %v, want ErrNotFound", err)
	}
	if _, err := c.Read(6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read(unmapped) err = %v, want ErrNotFound", err)
	}
}

func TestReadAfterCrashRejected(t *testing.T) {
	for _, cached := range []bool{false, true} {
		cfg := DefaultConfig()
		if cached {
			cfg = cachedConfig()
		}
		c, _ := newFormattedCfg(t, cfg)
		mustWrite(t, c, LPage{LPID: 1, Data: pageContent(1, 1, 100)})
		if _, err := c.Read(1); err != nil {
			t.Fatalf("Read: %v", err)
		}
		c.Crash()
		if _, err := c.Read(1); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cached=%v: Read after crash err = %v, want ErrCrashed", cached, err)
		}
		if _, err := c.ReadBatch([]addr.LPID{1}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cached=%v: ReadBatch after crash err = %v, want ErrCrashed", cached, err)
		}
	}
}

// TestFlashLoadsAreExactLength: a page loaded from flash is a slice of
// exactly its own length, from Read and from ReadBatch, with and without
// the cache. The read cache charges len(data) for what it keeps; a
// sub-slice of an RBLOCK-granular transfer made a 1 KB value pin 4 or 8 KB.
func TestFlashLoadsAreExactLength(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), cachedConfig()} {
		c, _ := newFormattedCfg(t, cfg)
		var pages []LPage
		var lpids []addr.LPID
		for i := 1; i <= 64; i++ { // kv-shaped values: 256..1792 bytes, off every RBLOCK boundary
			lpids = append(lpids, addr.LPID(i))
			pages = append(pages, LPage{LPID: addr.LPID(i), Data: pageContent(uint64(i), 1, 256+24*i)})
		}
		mustWrite(t, c, pages...)
		for _, lpid := range lpids[:32] {
			got, err := c.Read(lpid)
			if err != nil || cap(got) != len(got) {
				t.Fatalf("Read(%d): len %d, cap %d, err %v", lpid, len(got), cap(got), err)
			}
		}
		batch, err := c.ReadBatch(lpids[32:])
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		for i, got := range batch {
			if len(got) == 0 || cap(got) != len(got) {
				t.Fatalf("ReadBatch[%d]: len %d, cap %d", i, len(got), cap(got))
			}
		}
		if c.rcache != nil && (c.rcache.Len() != len(lpids) || c.Stats().Reads != int64(len(lpids))) {
			t.Fatalf("%d pages cached after %d flash loads, want %d of each", c.rcache.Len(), c.Stats().Reads, len(lpids))
		}
	}
}

// readObservation is everything TestReadAndReadBatchAgree compares between
// the two entry points: per page the bytes or "absent", the call's error
// class, and how far the read counters and the device's ledger moved.
type readObservation struct {
	pages                                   [][]byte // nil = absent
	crashed, lookupFailed                   bool
	flashLoads, rblocks, notFound, devReads int64
	batches                                 int64
}

var errLoaderDown = errors.New("mapping page unreadable")

// TestReadAndReadBatchAgree: Read(l) is ReadBatch([l]). With the cache off
// and on, over every kind of page and failure the path distinguishes, the
// two entry points return the same bytes or the same class of error
// (absence is ErrNotFound from Read and a nil entry from ReadBatch), move
// read.flash_loads, read.rblocks, read.not_found and the device's
// RBlocksRead identically, and leave no pin; read.batches moves only for
// ReadBatch. A lookup that fails — a mapping page that will not load — is
// that page's error on both, never "unmapped".
func TestReadAndReadBatchAgree(t *testing.T) {
	type scenario struct {
		name      string
		lpids     []addr.LPID
		cacheOnly bool
		// arrange runs after the pages are written and before the read.
		arrange func(t *testing.T, c *Controller)
		// lead makes the test the leader of LPID 1's fill, so the read under
		// test joins it; the test completes the fill with the page (leadErr
		// nil) or with leadErr once the read is waiting.
		lead    bool
		leadErr error
	}
	scenarios := []scenario{
		{name: "mapped", lpids: []addr.LPID{1}},
		{name: "unmapped", lpids: []addr.LPID{99}},
		{name: "mapped and unmapped", lpids: []addr.LPID{2, 99, 1, 98, 3}},
		{name: "same page twice", lpids: []addr.LPID{1, 1}},
		{name: "crashed", lpids: []addr.LPID{1}, arrange: func(t *testing.T, c *Controller) { c.Crash() }},
		{name: "failed lookup", lpids: []addr.LPID{1}, arrange: func(t *testing.T, c *Controller) {
			// Flush the mapping page, drop it from memory (keeping its
			// small-table home, which DropCache forgets too) and break the
			// loader: the next lookup of LPID 1 must load the page and cannot.
			if err := c.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			home := c.mt.PageAddr(0)
			if !home.IsValid() {
				t.Fatal("the checkpoint did not flush mapping page 0")
			}
			c.mt.DropCache()
			c.mt.SetPageAddr(0, home, 0)
			c.mt.SetLoader(func(addr.PhysAddr) ([]byte, error) { return nil, errLoaderDown })
		}},
		{name: "joins a fill", lpids: []addr.LPID{1}, cacheOnly: true, lead: true},
		{name: "joins a fill that fails", lpids: []addr.LPID{1}, cacheOnly: true, lead: true, leadErr: errors.New("leader's load failed")},
	}
	content := func(lpid addr.LPID) []byte { return pageContent(uint64(lpid), 1, 700+300*int(lpid)) }

	observe := func(t *testing.T, sc scenario, cfg Config, batch bool) readObservation {
		c, dev := newFormattedCfg(t, cfg)
		mustWrite(t, c, LPage{LPID: 1, Data: content(1)}, LPage{LPID: 2, Data: content(2)}, LPage{LPID: 3, Data: content(3)})
		if sc.arrange != nil {
			sc.arrange(t, c)
		}
		var flight *readcache.Flight
		if sc.lead {
			var leader bool
			if _, flight, leader = c.rcache.GetOrStart(1); !leader {
				t.Fatal("the test could not lead LPID 1's fill")
			}
		}
		counter := func(name string) int64 { return c.MetricsSnapshot().Counter(name) }
		before := readObservation{
			flashLoads: counter("read.flash_loads"), rblocks: counter("read.rblocks"), notFound: counter("read.not_found"),
			batches: counter("read.batches"), devReads: dev.Stats().RBlocksRead,
		}
		misses := counter("read.cache_misses")

		var obs readObservation
		var callErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			if batch {
				obs.pages, callErr = c.ReadBatch(sc.lpids)
				return
			}
			for _, lpid := range sc.lpids {
				data, err := c.Read(lpid)
				if err != nil && !IsNotFound(err) {
					obs.pages, callErr = nil, err
					return
				}
				obs.pages = append(obs.pages, data)
			}
		}()
		if sc.lead {
			// The read has joined once the cache has counted its miss.
			for deadline := time.Now().Add(5 * time.Second); counter("read.cache_misses") == misses; {
				if time.Now().After(deadline) {
					t.Fatal("the read never reached the cache")
				}
				time.Sleep(100 * time.Microsecond)
			}
			var stored []byte // the page as flash holds it: padded to the LPAGE alignment
			if sc.leadErr == nil {
				stored = make([]byte, addr.AlignUp(len(content(1))))
				copy(stored, content(1))
			}
			c.rcache.Complete(1, flight, stored, sc.leadErr)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the read did not return")
		}

		obs.crashed, obs.lookupFailed = errors.Is(callErr, ErrCrashed), errors.Is(callErr, errLoaderDown)
		if callErr != nil && !obs.crashed && !obs.lookupFailed {
			t.Fatalf("unexpected error: %v", callErr)
		}
		obs.flashLoads = counter("read.flash_loads") - before.flashLoads
		obs.rblocks = counter("read.rblocks") - before.rblocks
		obs.notFound = counter("read.not_found") - before.notFound
		obs.batches = counter("read.batches") - before.batches
		obs.devReads = dev.Stats().RBlocksRead - before.devReads
		if n := c.PinnedEBlocks(); n != 0 {
			t.Fatalf("%d EBLOCKs left pinned", n)
		}
		if c.rcache != nil && sc.name == "failed lookup" {
			// The failed fill was completed: nobody who joined it hangs, and
			// the next reader starts a fresh one.
			_, f, leader := c.rcache.GetOrStart(1)
			if !leader {
				t.Fatal("the failed lookup left its flight registered")
			}
			c.rcache.Complete(1, f, nil, errLoaderDown)
		}
		return obs
	}

	for _, cached := range []bool{false, true} {
		cfg, mode := DefaultConfig(), "uncached"
		if cached {
			cfg, mode = cachedConfig(), "cached"
		}
		for _, sc := range scenarios {
			if sc.cacheOnly && !cached {
				continue
			}
			t.Run(mode+"/"+sc.name, func(t *testing.T) {
				single, batch := observe(t, sc, cfg, false), observe(t, sc, cfg, true)
				if single.batches != 0 || (batch.batches != 1) != (batch.crashed || batch.lookupFailed) {
					t.Errorf("read.batches moved by %d for Read and %d for ReadBatch", single.batches, batch.batches)
				}
				single.batches, batch.batches = 0, 0
				if !reflect.DeepEqual(single, batch) {
					t.Fatalf("Read and ReadBatch disagree:\n Read      %+v\n ReadBatch %+v", summarize(single), summarize(batch))
				}
				// And both are right, not just alike.
				switch sc.name {
				case "crashed":
					if !single.crashed {
						t.Fatal("a crashed controller served a read")
					}
				case "failed lookup":
					if !single.lookupFailed || single.notFound != 0 {
						t.Fatalf("a lookup that failed must be the page's error, not an unmapped page: %+v", summarize(single))
					}
				default:
					if single.crashed || single.lookupFailed || len(single.pages) != len(sc.lpids) {
						t.Fatalf("%+v", summarize(single))
					}
					absent := int64(0)
					for i, lpid := range sc.lpids {
						if lpid > 3 {
							absent++
							if single.pages[i] != nil {
								t.Fatalf("unmapped LPID %d returned %d bytes", lpid, len(single.pages[i]))
							}
						} else if want := content(lpid); len(single.pages[i]) != addr.AlignUp(len(want)) || !bytes.Equal(single.pages[i][:len(want)], want) {
							t.Fatalf("LPID %d content differs", lpid)
						}
					}
					if single.notFound != absent {
						t.Fatalf("read.not_found moved by %d for %d unmapped pages", single.notFound, absent)
					}
				}
			})
		}
	}
}

// summarize prints an observation without its page bytes.
func summarize(o readObservation) string {
	lens := make([]int, len(o.pages))
	for i, p := range o.pages {
		lens[i] = len(p)
	}
	o.pages = nil
	return fmt.Sprintf("page lengths %v %+v", lens, o)
}

// TestOnePinReadAllocs: a read that pins one EBLOCK allocates its page
// image and its result slices and nothing else — its pin, read and
// segment lists are on the stack for up to eight pages. Read returns the
// image itself (one allocation); ReadBatch adds its page list and its
// result slice (three), and for eight pages still only its images beyond.
func TestOnePinReadAllocs(t *testing.T) {
	c, _ := newFormatted(t)
	var pages []LPage
	for i := 1; i <= 8; i++ {
		pages = append(pages, LPage{LPID: addr.LPID(i), Data: pageContent(uint64(i), 1, 1920)})
	}
	mustWrite(t, c, pages...)
	lpids := []addr.LPID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name string
		read func() error
		want float64
	}{
		{"Read", func() error { _, err := c.Read(3); return err }, 1},
		{"ReadBatch/1", func() error { _, err := c.ReadBatch(lpids[2:3]); return err }, 3},
		{"ReadBatch/8", func() error { _, err := c.ReadBatch(lpids); return err }, 10},
	} {
		var err error
		if n := testing.AllocsPerRun(200, func() { err = tc.read() }); err != nil || n != tc.want {
			t.Errorf("%s: %v allocs/op (%v), want %v", tc.name, n, err, tc.want)
		}
	}
}
