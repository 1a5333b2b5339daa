package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/server"
)

// startReadServer is startServer with the tiered read cache enabled, so
// the loopback integration exercises the full production read path:
// wire decode → backpressure admit → cache → scatter-gather flash read
// → vectored reply.
func startReadServer(t *testing.T, scfg server.Config) (*core.Controller, *flash.Device, string) {
	t.Helper()
	dev := flash.MustNewDevice(testGeometry(), flash.Latency{})
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = 8 << 20
	cfg.ReadCacheBytes = 1 << 20
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ctl, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return ctl, dev, ln.Addr().String()
}

func readPage(lpid addr.LPID, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(uint64(lpid)*31 + uint64(i)*7)
	}
	return p
}

// TestReadPathIntegration is the loopback round-trip for the read wire
// protocol: read_page and read_batch replies must be byte-exact against
// what was flushed, per-page not-found must come back as typed errors
// (read_page) or nil entries (read_batch), and warm re-reads must be
// served from the cache without touching flash.
func TestReadPathIntegration(t *testing.T) {
	_, dev, addrStr := startReadServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sess, err2 := cl.NewSession()
	if err2 != nil {
		t.Fatal(err2)
	}
	sizes := []int{64, 517, 4096, 9000, 128, 3000}
	var pages []core.LPage
	for i, sz := range sizes {
		pages = append(pages, core.LPage{LPID: addr.LPID(i + 1), Data: readPage(addr.LPID(i+1), sz)})
	}
	if err := sess.Flush(pages); err != nil {
		t.Fatal(err)
	}

	// read_page: byte-exact for every size, including ones large enough
	// to take the vectored (writev) reply path.
	for i, sz := range sizes {
		lpid := addr.LPID(i + 1)
		got, err := cl.Read(lpid)
		if err != nil {
			t.Fatalf("Read(%d): %v", lpid, err)
		}
		want := readPage(lpid, sz)
		if len(got) != addr.AlignUp(sz) || !bytes.Equal(got[:sz], want) {
			t.Fatalf("Read(%d): %d bytes, content mismatch", lpid, len(got))
		}
	}

	// read_page of an unmapped LPID: typed not-found across the wire.
	if _, err := cl.Read(999); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Read(unmapped) err = %v, want core.ErrNotFound", err)
	}

	// read_batch: mixed found/missing, out of order; nil-ness is the
	// per-page not-found signal.
	lpids := []addr.LPID{4, 999, 1, 6, 2}
	got, err := cl.ReadBatch(lpids)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if len(got) != len(lpids) {
		t.Fatalf("ReadBatch: %d entries, want %d", len(got), len(lpids))
	}
	if got[1] != nil {
		t.Fatalf("unmapped entry not nil (%d bytes)", len(got[1]))
	}
	for gi, lpid := range lpids {
		if lpid == 999 {
			continue
		}
		want := readPage(lpid, sizes[int(lpid)-1])
		if !bytes.Equal(got[gi][:len(want)], want) {
			t.Fatalf("ReadBatch entry for LPID %d differs", lpid)
		}
	}

	// Warm reads are cache hits: flash RBLOCK reads must not grow.
	before := dev.Stats().RBlocksRead
	for i := 0; i < 40; i++ {
		if _, err := cl.Read(3); err != nil {
			t.Fatalf("warm Read: %v", err)
		}
	}
	if after := dev.Stats().RBlocksRead; after != before {
		t.Fatalf("warm wire reads touched flash: %d extra RBLOCKs", after-before)
	}
	snap, err := cl.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counter("read.cache_hits") < 40 {
		t.Fatalf("read.cache_hits = %d, want >= 40", snap.Counter("read.cache_hits"))
	}
	if snap.Counter("read.reads") == 0 || snap.Counter("read.flash_loads") == 0 {
		t.Fatalf("read metrics missing: reads=%d flash_loads=%d",
			snap.Counter("read.reads"), snap.Counter("read.flash_loads"))
	}
}

// TestReadPathConcurrentClients drives overlapping reads and writes from
// many connections at once — the CI -race gate for the concurrent read
// path over the wire.
func TestReadPathConcurrentClients(t *testing.T) {
	_, _, addrStr := startReadServer(t, server.Config{})

	seed, err := client.Dial(addrStr, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := seed.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const nPages = 24
	for i := 1; i <= nPages; i++ {
		if err := sess.Flush([]core.LPage{{LPID: addr.LPID(i), Data: readPage(addr.LPID(i), 400+i*13)}}); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addrStr, fastOpts(int64(10+w)))
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 120; i++ {
				lpid := addr.LPID(1 + (w*11+i)%nPages)
				want := readPage(lpid, 400+int(lpid)*13)
				var got []byte
				var err error
				if i%4 == 0 {
					var batch [][]byte
					batch, err = cl.ReadBatch([]addr.LPID{lpid})
					if err == nil {
						got = batch[0]
					}
				} else {
					got, err = cl.Read(lpid)
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", w, err)
					return
				}
				if !bytes.Equal(got[:len(want)], want) {
					errc <- fmt.Errorf("reader %d: LPID %d content differs", w, lpid)
					return
				}
			}
		}(w)
	}
	// A writer churns a disjoint range through the same server while the
	// readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := client.Dial(addrStr, fastOpts(99))
		if err != nil {
			errc <- err
			return
		}
		defer cl.Close()
		s, err := cl.NewSession()
		if err != nil {
			errc <- err
			return
		}
		for v := 0; v < 60; v++ {
			if err := s.Flush([]core.LPage{{LPID: addr.LPID(nPages + 1 + v%4), Data: readPage(addr.LPID(v), 1500)}}); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errc:
		t.Fatal(err)
	case <-done:
	}
}

// TestReadBackpressureDrain checks that reads blocked in the admit gate
// observe draining instead of hanging forever.
func TestReadBackpressureDrain(t *testing.T) {
	_, _, addrStr := startReadServer(t, server.Config{MaxInflightBytes: 1 << 20})
	cl, err := client.Dial(addrStr, client.Options{
		DialTimeout:    time.Second,
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush([]core.LPage{{LPID: 1, Data: readPage(1, 2048)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(1); err != nil {
		t.Fatal(err)
	}
}
