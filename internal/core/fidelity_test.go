package core

import (
	"math/rand"
	"sync"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/flash"
)

// TestReadPathRBlockAmplification verifies §V's read path accounting: an
// LPAGE stored across k RBLOCKs transfers exactly k RBLOCKs from the
// media, and the host receives exactly the stored extent.
func TestReadPathRBlockAmplification(t *testing.T) {
	c, _ := newFormatted(t)
	rb := c.Geometry().RBlockBytes // 4 KB in SmallGeometry

	cases := []struct {
		size    int
		maxRBlk int64 // upper bound on RBLOCKs one read may transfer
	}{
		{64, 1},         // tiny page: one RBLOCK
		{rb, 2},         // one RBLOCK worth, possibly straddling a boundary
		{2*rb + 128, 4}, // spans at least 3 RBLOCKs
	}
	for i, tc := range cases {
		lpid := addr.LPID(100 + i)
		mustWrite(t, c, LPage{LPID: lpid, Data: pageContent(uint64(lpid), 1, tc.size)})
		before := c.Stats().ReadRBlocks
		checkRead(t, c, lpid, pageContent(uint64(lpid), 1, tc.size))
		got := c.Stats().ReadRBlocks - before
		minNeeded := int64((tc.size + rb - 1) / rb)
		if got < minNeeded || got > tc.maxRBlk {
			t.Fatalf("size %d: transferred %d rblocks, want in [%d,%d]", tc.size, got, minNeeded, tc.maxRBlk)
		}
	}
}

// TestAdjacentPagesNotRevealed verifies §V's security property: a read
// returns exactly the requested LPAGE even when neighbours share its
// RBLOCKs.
func TestAdjacentPagesNotRevealed(t *testing.T) {
	c, _ := newFormatted(t)
	// Three small pages packed into the same WBLOCK (single-channel GC
	// path would guarantee adjacency; a single small batch chunk does too).
	a := pageContent(1, 1, 100)
	b := pageContent(2, 1, 100)
	d := pageContent(3, 1, 100)
	mustWrite(t, c,
		LPage{LPID: 1, Data: a},
		LPage{LPID: 2, Data: b},
		LPage{LPID: 3, Data: d},
	)
	got, err := c.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != addr.AlignUp(100) {
		t.Fatalf("read returned %d bytes, want the exact aligned extent %d", len(got), addr.AlignUp(100))
	}
	// The neighbours' content must not appear in the returned extent.
	for i := range got[:100] {
		if got[i] != b[i] {
			t.Fatal("wrong page content")
		}
	}
}

// TestShuffledWSNArrival delivers a session's WSNs from concurrent
// goroutines in random order; the controller must apply them in WSN order
// and finish with the highest WSN's content visible.
func TestShuffledWSNArrival(t *testing.T) {
	c, _ := newFormatted(t)
	sid, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	order := rand.New(rand.NewSource(61)).Perm(n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, idx := range order {
		wsn := uint64(idx + 1)
		wg.Add(1)
		go func(wsn uint64) {
			defer wg.Done()
			errs <- c.WriteBatch(sid, wsn, []LPage{{LPID: 7, Data: pageContent(7, wsn, 256)}})
		}(wsn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	high, err := c.SessionHighestWSN(sid)
	if err != nil || high != n {
		t.Fatalf("highest = %d (%v)", high, err)
	}
	// The last WSN's write wins (applied in order regardless of arrival).
	checkRead(t, c, 7, pageContent(7, n, 256))
}

// TestDeviceImageSurvivesControllerState checks the eleosctl workflow:
// format, write, save image, load image, recover, read — across two
// controller generations on the same persisted media.
func TestDeviceImageSurvivesControllerState(t *testing.T) {
	c, dev := newFormatted(t)
	mustWrite(t, c, LPage{LPID: 5, Data: pageContent(5, 1, 900)})
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dev.img"
	if err := dev.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	dev2, err := loadDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dev2, DefaultConfig())
	if err != nil {
		t.Fatalf("recover from image: %v", err)
	}
	checkRead(t, c2, 5, pageContent(5, 1, 900))
	// And the second generation keeps working and persists again.
	mustWrite(t, c2, LPage{LPID: 6, Data: pageContent(6, 1, 300)})
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dev2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	dev3, err := loadDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dev3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkRead(t, c3, 5, pageContent(5, 1, 900))
	checkRead(t, c3, 6, pageContent(6, 1, 300))
}

// loadDevice is a tiny helper around flash.LoadFile with zero latency.
func loadDevice(path string) (*flash.Device, error) {
	return flash.LoadFile(path, flash.Latency{})
}
