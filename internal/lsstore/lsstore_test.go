package lsstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"eleos/internal/blockftl"
	"eleos/internal/flash"
	"eleos/internal/nvme"
)

func newStore(t *testing.T, segKB int) (*Store, *nvme.Meter) {
	t.Helper()
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	// Use half the device as logical space (over-provisioning for the FTL).
	lbas := int(dev.Geometry().CapacityBytes() / 4096 / 2)
	ftl, err := blockftl.New(dev, 4096, lbas, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	meter := nvme.NewMeter(nvme.HighEnd())
	cfg := DefaultConfig()
	cfg.SegmentBytes = segKB << 10
	st, err := New(ftl, meter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, meter
}

func content(lpid, version uint64, size int) []byte {
	b := make([]byte, size)
	rng := rand.New(rand.NewSource(int64(lpid*31 + version)))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, _ := newStore(t, 64)
	want := content(1, 1, 1000)
	if err := s.Write(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read mismatch: %v", err)
	}
	// Also readable after the segment flushes.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = s.Read(1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("read after flush mismatch")
	}
}

func TestVariableSizesPacked(t *testing.T) {
	s, _ := newStore(t, 64)
	sizes := []int{1, 64, 777, 3000, 4096, 100}
	for i, sz := range sizes {
		if err := s.Write(uint64(i+1), content(uint64(i+1), 1, sz)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, sz := range sizes {
		got, err := s.Read(uint64(i + 1))
		if err != nil || !bytes.Equal(got, content(uint64(i+1), 1, sz)) {
			t.Fatalf("page %d mismatch: %v", i+1, err)
		}
	}
}

func TestBlockContextsPerSegment(t *testing.T) {
	s, m := newStore(t, 64)
	// Fill one 64 KB segment exactly: the flush is one range command whose
	// packets each become an SSD write context (§IX-C1 — the paper's 1 MB
	// buffer turns into 17 contexts; a 64 KB segment needs 2 packets).
	payload := 64<<10 - entryHeader - segHeaderBytes
	if err := s.Write(1, content(1, 1, payload)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	wantCtx := int64(nvme.Packets(64 << 10))
	if m.Commands != 1 || m.Contexts != wantCtx {
		t.Fatalf("commands=%d contexts=%d, want 1 and %d", m.Commands, m.Contexts, wantCtx)
	}
}

func TestSegmentContextsMatchPaperAt1MB(t *testing.T) {
	// The paper's exact number: a 1 MB buffer becomes 17 write contexts on
	// the block SSD.
	dev := flash.MustNewDevice(flash.Geometry{
		Channels: 8, EBlocksPerChannel: 16,
		EBlockBytes: 1 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10,
	}, flash.Latency{})
	lbas := int(dev.Geometry().CapacityBytes() / 4096 / 2)
	ftl, err := blockftl.New(dev, 4096, lbas, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	meter := nvme.NewMeter(nvme.HighEnd())
	st, err := New(ftl, meter, DefaultConfig()) // 1 MB segments
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(1, content(1, 1, 1<<20-entryHeader-segHeaderBytes)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if meter.Contexts != 17 {
		t.Fatalf("contexts = %d, want the paper's 17", meter.Contexts)
	}
}

func TestOverwriteAndLiveAccounting(t *testing.T) {
	s, _ := newStore(t, 64)
	for v := uint64(1); v <= 5; v++ {
		if err := s.Write(9, content(9, v, 500)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Read(9)
	if err != nil || !bytes.Equal(got, content(9, 5, 500)) {
		t.Fatal("latest version lost")
	}
}

func TestCleaningMovesLivePages(t *testing.T) {
	s, _ := newStore(t, 64)
	// Write a cold page, then churn a hot one until cleaning must run.
	if err := s.Write(100, content(100, 1, 2000)); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4000; v++ {
		if err := s.Write(1, content(1, v, 3000)); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SegmentsCleaned == 0 {
		t.Fatalf("cleaning never ran: %+v", st)
	}
	if st.GCBytesRead == 0 {
		t.Fatal("cleaning must read whole segments")
	}
	// Both pages still correct.
	got, err := s.Read(100)
	if err != nil || !bytes.Equal(got, content(100, 1, 2000)) {
		t.Fatal("cold page lost by cleaning")
	}
	got, err = s.Read(1)
	if err != nil || !bytes.Equal(got, content(1, 4000, 3000)) {
		t.Fatal("hot page wrong")
	}
	if st.PagesMoved == 0 {
		t.Fatal("expected live pages moved")
	}
}

func TestReadAmplificationOfCleaning(t *testing.T) {
	s, _ := newStore(t, 64)
	// Mostly-dead segments: cleaning reads far more than it moves. One
	// LPID rewritten until the log has wrapped the store's 128 segments
	// (half of the 16 MB device at 64 KB each) and cleaning ran.
	for v := uint64(1); v <= 4000; v++ {
		if err := s.Write(1, content(1, v, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Flush()
	st := s.Stats()
	if st.SegmentsCleaned == 0 {
		t.Fatal("no cleaning triggered")
	}
	moved := st.PagesMoved * 4000
	if st.GCBytesRead <= moved*2 {
		t.Fatalf("expected high read amplification: read %d, moved %d bytes", st.GCBytesRead, moved)
	}
}

func TestErrors(t *testing.T) {
	s, _ := newStore(t, 64)
	if _, err := s.Read(404); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing page readable")
	}
	if err := s.Write(1, make([]byte, 65<<10)); !errors.Is(err, ErrTooLarge) {
		t.Fatal("oversized page accepted")
	}
	if err := s.Write(0, []byte{1}); err == nil {
		t.Fatal("lpid 0 accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	ftl, _ := blockftl.New(dev, 4096, 256, 0.1)
	m := nvme.NewMeter(nvme.HighEnd())
	if _, err := New(ftl, m, Config{SegmentBytes: 5000}); err == nil {
		t.Fatal("non-multiple segment accepted")
	}
	if _, err := New(ftl, m, Config{SegmentBytes: 1 << 20}); err == nil {
		t.Fatal("too-few-segments accepted")
	}
}

func TestChurnBeyondCapacityIntegrity(t *testing.T) {
	s, _ := newStore(t, 64)
	version := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4000; i++ {
		lpid := uint64(rng.Intn(50) + 1)
		version[lpid]++
		if err := s.Write(lpid, content(lpid, version[lpid], 500+rng.Intn(2500))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	_ = s.Flush()
	for lpid, v := range version {
		got, err := s.Read(lpid)
		if err != nil {
			t.Fatalf("read %d: %v", lpid, err)
		}
		// Size varies per write; regenerate with the read length.
		if !bytes.Equal(got, content(lpid, v, len(got))) {
			t.Fatalf("lpid %d content wrong", lpid)
		}
	}
}

func TestMappingSnapshotsPersist(t *testing.T) {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	lbas := int(dev.Geometry().CapacityBytes() / 4096 / 2)
	ftl, err := blockftl.New(dev, 4096, lbas, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	meter := nvme.NewMeter(nvme.HighEnd())
	cfg := DefaultConfig()
	cfg.SegmentBytes = 64 << 10
	cfg.PersistMappingEvery = 2
	s, err := New(ftl, meter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		lpid := uint64(i%40 + 1)
		if err := s.Write(lpid, content(lpid, uint64(i), 2000)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MappingSnapshots == 0 || st.SnapshotBytes == 0 {
		t.Fatalf("no mapping snapshots taken: %+v", st)
	}
	// Snapshots consume real log bandwidth: bytes written must exceed the
	// payload alone by at least the snapshot volume.
	payload := int64(600 * (2000 + 12))
	if st.BytesWritten < payload+st.SnapshotBytes/2 {
		t.Fatalf("snapshot I/O not visible: wrote %d, payload %d, snapshots %d",
			st.BytesWritten, payload, st.SnapshotBytes)
	}
	// User data still intact despite interleaved snapshots and cleaning.
	for lpid := uint64(1); lpid <= 40; lpid++ {
		got, err := s.Read(lpid)
		if err != nil {
			t.Fatalf("lpid %d: %v", lpid, err)
		}
		if len(got) != 2000 {
			t.Fatalf("lpid %d size %d", lpid, len(got))
		}
	}
	// Reserved LPIDs rejected for user writes.
	if err := s.Write(^uint64(0), []byte{1}); err == nil {
		t.Fatal("reserved lpid accepted")
	}
}

func TestHostRecoveryRebuildsMapping(t *testing.T) {
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	lbas := int(dev.Geometry().CapacityBytes() / 4096 / 2)
	ftl, err := blockftl.New(dev, 4096, lbas, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	meter := nvme.NewMeter(nvme.HighEnd())
	cfg := DefaultConfig()
	cfg.SegmentBytes = 64 << 10
	s, err := New(ftl, meter, cfg)
	if err != nil {
		t.Fatal(err)
	}
	version := map[uint64]uint64{}
	for i := 0; i < 500; i++ {
		lpid := uint64(i%30 + 1)
		version[lpid]++
		if err := s.Write(lpid, content(lpid, version[lpid], 1500)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// One more write left UNFLUSHED in the host buffer: lost at the crash.
	if err := s.Write(99, content(99, 1, 100)); err != nil {
		t.Fatal(err)
	}

	// Host crash: rebuild a store from the SSD alone.
	s2, err := Recover(ftl, nvme.NewMeter(nvme.HighEnd()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lpid, v := range version {
		got, err := s2.Read(lpid)
		if err != nil {
			t.Fatalf("lpid %d lost in host recovery: %v", lpid, err)
		}
		if !bytes.Equal(got, content(lpid, v, 1500)) {
			t.Fatalf("lpid %d content wrong after recovery", lpid)
		}
	}
	// The buffered-only page is gone — host log structuring loses what was
	// not flushed (the burden ELEOS removes).
	if _, err := s2.Read(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unflushed page survived a host crash: %v", err)
	}
	// The recovered store keeps working: writes, cleaning, reads.
	for i := 0; i < 500; i++ {
		lpid := uint64(i%30 + 1)
		version[lpid]++
		if err := s2.Write(lpid, content(lpid, version[lpid], 1500)); err != nil {
			t.Fatalf("post-recovery write %d: %v", i, err)
		}
	}
	_ = s2.Flush()
	for lpid, v := range version {
		got, err := s2.Read(lpid)
		if err != nil || !bytes.Equal(got, content(lpid, v, 1500)) {
			t.Fatalf("lpid %d wrong after post-recovery churn: %v", lpid, err)
		}
	}
}

func TestHostRecoveryAfterCleaning(t *testing.T) {
	// Segments relocated by cleaning must still recover correctly (their
	// sequence numbers changed; latest position wins).
	dev := flash.MustNewDevice(flash.SmallGeometry(), flash.Latency{})
	lbas := int(dev.Geometry().CapacityBytes() / 4096 / 2)
	ftl, _ := blockftl.New(dev, 4096, lbas, 0.15)
	meter := nvme.NewMeter(nvme.HighEnd())
	cfg := DefaultConfig()
	cfg.SegmentBytes = 64 << 10
	s, _ := New(ftl, meter, cfg)
	if err := s.Write(500, content(500, 1, 2000)); err != nil { // cold
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4000; v++ { // hot churn forces cleaning
		if err := s.Write(1, content(1, v, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Flush()
	if s.Stats().SegmentsCleaned == 0 {
		t.Skip("no cleaning happened")
	}
	s2, err := Recover(ftl, nvme.NewMeter(nvme.HighEnd()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Read(500)
	if err != nil || !bytes.Equal(got, content(500, 1, 2000)) {
		t.Fatalf("cold page wrong after clean+recover: %v", err)
	}
	got, err = s2.Read(1)
	if err != nil || !bytes.Equal(got, content(1, 4000, 3000)) {
		t.Fatalf("hot page wrong after clean+recover: %v", err)
	}
}
