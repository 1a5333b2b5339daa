package flash

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"eleos/internal/metrics"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(SmallGeometry(), Latency{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// eraseNow erases (ch, eb) on the calling goroutine, as a channel's FIFO
// runs a queued erase, and returns its error, which a BatchResult reports
// only as a failed EBLOCK.
func eraseNow(d *Device, ch, eb int) error { return d.erase(d.arrival(), ch, eb) }

func TestGeometryValidate(t *testing.T) {
	paper := Geometry{Channels: 8, EBlocksPerChannel: 64, EBlockBytes: 8 << 20, WBlockBytes: 32 << 10, RBlockBytes: 4 << 10} // Table I
	good := []Geometry{paper, SmallGeometry()}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("%+v should validate: %v", g, err)
		}
	}
	bad := []Geometry{
		{},
		{Channels: 1},
		{Channels: 1, EBlocksPerChannel: 1, RBlockBytes: 100, WBlockBytes: 400, EBlockBytes: 800},
		{Channels: 1, EBlocksPerChannel: 1, RBlockBytes: 4096, WBlockBytes: 4000, EBlockBytes: 8000},
		{Channels: 1, EBlocksPerChannel: 1, RBlockBytes: 4096, WBlockBytes: 8192, EBlockBytes: 10000},
		{Channels: 1, EBlocksPerChannel: 1, RBlockBytes: 4096, WBlockBytes: 8192, EBlockBytes: 16384, EraseLimit: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d validated", i)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := SmallGeometry()
	if g.WBlocksPerEBlock() != 16 {
		t.Fatalf("WBlocksPerEBlock = %d", g.WBlocksPerEBlock())
	}
	want := int64(4) * 16 * (256 << 10)
	if g.CapacityBytes() != want {
		t.Fatalf("CapacityBytes = %d, want %d", g.CapacityBytes(), want)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := testDevice(t)
	data := bytes.Repeat([]byte{0xAB}, d.Geometry().WBlockBytes)
	if err := d.Program(SrcUser, 1, 2, 0, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := readExtent(d, 1, 2, 0, d.Geometry().WBlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs from programmed data")
	}
}

func TestProgramShortDataZeroPadded(t *testing.T) {
	d := testDevice(t)
	if err := d.Program(SrcUser, 0, 1, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _, err := readExtent(d, 0, 1, 0, d.Geometry().RBlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 0 {
		t.Fatalf("unexpected prefix %v", got[:4])
	}
	for _, b := range got[3:] {
		if b != 0 {
			t.Fatal("padding not zero")
		}
	}
}

func TestEraseBeforeWriteEnforced(t *testing.T) {
	d := testDevice(t)
	if err := d.Program(SrcUser, 0, 0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	err := d.Program(SrcUser, 0, 0, 0, []byte{2})
	if !errors.Is(err, ErrWriteTwice) {
		t.Fatalf("expected ErrWriteTwice, got %v", err)
	}
	if err := eraseNow(d, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(SrcUser, 0, 0, 0, []byte{2}); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestSequentialProgramOrder(t *testing.T) {
	d := testDevice(t)
	err := d.Program(SrcUser, 0, 0, 1, []byte{1})
	if !errors.Is(err, ErrWriteOrder) {
		t.Fatalf("expected ErrWriteOrder, got %v", err)
	}
	for wb := 0; wb < 3; wb++ {
		if err := d.Program(SrcUser, 0, 0, wb, []byte{byte(wb)}); err != nil {
			t.Fatal(err)
		}
	}
	np, _ := d.NextProgramPosition(0, 0)
	if np != 3 {
		t.Fatalf("NextProgramPosition = %d", np)
	}
}

func TestReadSpansWBlocks(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	a := bytes.Repeat([]byte{0x11}, g.WBlockBytes)
	b := bytes.Repeat([]byte{0x22}, g.WBlockBytes)
	if err := d.Program(SrcUser, 2, 3, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(SrcUser, 2, 3, 1, b); err != nil {
		t.Fatal(err)
	}
	// Read the last RBLOCK of wblock 0 and the first of wblock 1.
	start := g.WBlockBytes/g.RBlockBytes - 1
	got, _, err := readExtent(d, 2, 3, start*g.RBlockBytes, 2*g.RBlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x11 || got[g.RBlockBytes] != 0x22 {
		t.Fatal("cross-wblock read wrong")
	}
}

func TestReadExtent(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	data := make([]byte, g.WBlockBytes)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := d.Program(SrcUser, 0, 5, 0, data); err != nil {
		t.Fatal(err)
	}
	// An extent crossing an RBLOCK boundary.
	off, length := g.RBlockBytes-100, 300
	got, nR, err := readExtent(d, 0, 5, off, length)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[off:off+length]) {
		t.Fatal("extent content wrong")
	}
	if nR != 2 {
		t.Fatalf("expected 2 rblocks transferred, got %d", nR)
	}
	if _, _, err := readExtent(d, 0, 5, g.EBlockBytes-10, 20); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestExplicitWriteFailureDisablesEBlock(t *testing.T) {
	d := testDevice(t)
	d.FailNextProgram(1, 1, 1)
	if err := d.Program(SrcUser, 1, 1, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	err := d.Program(SrcUser, 1, 1, 1, []byte{2})
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("expected ErrWriteFailed, got %v", err)
	}
	// Subsequent WBLOCKs of the same EBLOCK cannot be written (§VII).
	err = d.Program(SrcUser, 1, 1, 2, []byte{3})
	if !errors.Is(err, ErrEBlockDisabled) {
		t.Fatalf("expected ErrEBlockDisabled, got %v", err)
	}
	// Prior data remains readable.
	got, _, err := readExtent(d, 1, 1, 0, d.Geometry().RBlockBytes)
	if err != nil || got[0] != 1 {
		t.Fatalf("prior data unreadable: %v %v", got[:1], err)
	}
	// Erase restores writability.
	if err := eraseNow(d, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(SrcUser, 1, 1, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if d.Stats().WriteFailures != 1 {
		t.Fatalf("WriteFailures = %d", d.Stats().WriteFailures)
	}
}

func TestProbabilisticFailuresDeterministic(t *testing.T) {
	run := func() int64 {
		d := testDevice(t)
		d.SetFailureProbability(0.3, 7)
		for eb := 0; eb < 8; eb++ {
			for wb := 0; wb < 4; wb++ {
				_ = d.Program(SrcUser, 0, eb, wb, []byte{1})
			}
		}
		return d.Stats().WriteFailures
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic failures: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("expected some failures at p=0.3")
	}
}

func TestEraseLimit(t *testing.T) {
	g := SmallGeometry()
	g.EraseLimit = 2
	d := MustNewDevice(g, Latency{})
	if err := eraseNow(d, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := eraseNow(d, 0, 0); err != nil {
		t.Fatal(err)
	}
	err := eraseNow(d, 0, 0)
	if !errors.Is(err, ErrBadBlock) {
		t.Fatalf("expected ErrBadBlock, got %v", err)
	}
	bad, _ := d.IsBad(0, 0)
	if !bad {
		t.Fatal("block should be bad")
	}
	if err := d.Program(SrcUser, 0, 0, 0, []byte{1}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program to bad block: %v", err)
	}
	n, _ := d.EraseCount(0, 0)
	if n != 3 {
		t.Fatalf("EraseCount = %d", n)
	}
}

// TestNextProgramPosition: a WBLOCK is programmed since its EBLOCK's last
// erase exactly when it lies below the next program position.
func TestNextProgramPosition(t *testing.T) {
	d := testDevice(t)
	for _, step := range []struct {
		do   func() error
		want int
	}{
		{func() error { return nil }, 0},
		{func() error { return d.Program(SrcUser, 0, 0, 0, []byte{1}) }, 1},
		{func() error { return d.Program(SrcUser, 0, 0, 1, []byte{2}) }, 2},
		{func() error { return eraseNow(d, 0, 0) }, 0},
	} {
		if err := step.do(); err != nil {
			t.Fatal(err)
		}
		if pos, err := d.NextProgramPosition(0, 0); err != nil || pos != step.want {
			t.Fatalf("next program position %d (%v), want %d", pos, err, step.want)
		}
	}
	if _, err := d.NextProgramPosition(0, d.Geometry().EBlocksPerChannel); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range eblock: %v", err)
	}
}

func TestVirtualTimeAccounting(t *testing.T) {
	lat := Latency{
		ReadRBlock:    10 * time.Microsecond,
		ProgramWBlock: 100 * time.Microsecond,
		EraseEBlock:   time.Millisecond,
	}
	d := MustNewDevice(SmallGeometry(), lat)
	if err := d.Program(SrcUser, 0, 0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(SrcUser, 1, 0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readExtent(d, 0, 0, 0, 3*d.Geometry().RBlockBytes); err != nil {
		t.Fatal(err)
	}
	if err := eraseNow(d, 2, 5); err != nil {
		t.Fatal(err)
	}
	if got := d.ChannelTime(0); got != 130*time.Microsecond {
		t.Fatalf("channel 0 time = %v", got)
	}
	if got := d.ChannelTime(1); got != 100*time.Microsecond {
		t.Fatalf("channel 1 time = %v", got)
	}
	if got := d.MediaTime(); got != time.Millisecond {
		t.Fatalf("media time = %v (erase channel should dominate)", got)
	}
	d.ResetTime()
	if d.MediaTime() != 0 {
		t.Fatal("ResetTime did not zero")
	}
}

func TestFailedProgramStillConsumesTime(t *testing.T) {
	lat := Latency{ProgramWBlock: 50 * time.Microsecond}
	d := MustNewDevice(SmallGeometry(), lat)
	d.FailNextProgram(0, 0, 0)
	if err := d.Program(SrcUser, 0, 0, 0, []byte{1}); !errors.Is(err, ErrWriteFailed) {
		t.Fatal("expected failure")
	}
	if d.ChannelTime(0) != 50*time.Microsecond {
		t.Fatal("failed program should consume program time")
	}
}

func TestStatsCounting(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	_ = d.Program(SrcUser, 0, 0, 0, make([]byte, 100))
	_, _, _ = readExtent(d, 0, 0, 0, 2*g.RBlockBytes)
	_ = eraseNow(d, 3, 3)
	s := d.Stats()
	if s.WBlocksWritten != 1 || s.RBlocksRead != 2 || s.EBlocksErased != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.BytesWritten != int64(g.WBlockBytes) || s.BytesRead != int64(2*g.RBlockBytes) {
		t.Fatalf("byte stats: %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	if err := d.Program(SrcUser, g.Channels, 0, 0, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("channel range not enforced")
	}
	if err := d.Program(SrcUser, 0, g.EBlocksPerChannel, 0, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("eblock range not enforced")
	}
	if err := d.Program(SrcUser, 0, 0, g.WBlocksPerEBlock(), nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("wblock range not enforced")
	}
	if err := d.Program(SrcUser, 0, 0, 0, make([]byte, g.WBlockBytes+1)); !errors.Is(err, ErrDataTooLarge) {
		t.Fatal("oversized data not rejected")
	}
	if _, _, err := readExtent(d, 0, 0, 0, g.EBlockBytes+g.RBlockBytes); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("read range not enforced")
	}
	if _, _, err := readExtent(d, 0, 0, 0, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("zero-length read not rejected")
	}
	if err := eraseNow(d, -1, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("erase range not enforced")
	}
	res := d.SubmitBatch([]BatchCmd{
		{Src: SrcUser, Channel: g.Channels, EBlock: 1, Data: []byte{1}},
		{Op: OpErase, Channel: -1, EBlock: 2},
		{Src: SrcUser, Channel: 0, EBlock: g.EBlocksPerChannel, Data: []byte{1}},
		{Src: SrcUser, Channel: 1, EBlock: 3, Data: []byte{1}},
	}).Wait()
	want := [][2]int{{-1, 2}, {0, g.EBlocksPerChannel}, {g.Channels, 1}}
	if !slices.Equal(res.FailedEBlocks, want) || res.Attempted != 4 {
		t.Fatalf("batch with commands outside the device: %+v, want %v failed of 4", res, want)
	}
	if pos, _ := d.NextProgramPosition(1, 3); pos != 1 {
		t.Fatalf("the batch's in-range program: position %d, want 1", pos)
	}
}

// TestProgramNeedsSource: a program that names no source, or one past
// NumSources, fails with ErrOutOfRange before it touches the media, the
// channel's time or a counter, whether it comes through Program or a batch.
func TestProgramNeedsSource(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), TypicalNANDLatency())
	reg := metrics.New()
	d.SetMetrics(reg)
	unmoved := func(what string) {
		t.Helper()
		if st := d.Stats(); st != (Stats{}) {
			t.Fatalf("%s: Stats moved: %+v", what, st)
		}
		if got := d.ChannelTime(1); got != 0 {
			t.Fatalf("%s: channel time %v, want 0", what, got)
		}
		if pos, _ := d.NextProgramPosition(1, 2); pos != 0 {
			t.Fatalf("%s: program position %d, want 0", what, pos)
		}
		if got := reg.Snapshot().Counter("flash.programs"); got != 0 {
			t.Fatalf("%s: flash.programs = %d, want 0", what, got)
		}
	}
	for _, src := range []Source{0, NumSources} {
		if err := d.Program(src, 1, 2, 0, []byte{1}); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Program with source %d: %v, want ErrOutOfRange", src, err)
		}
		unmoved(src.String())
	}
	res := d.SubmitBatch([]BatchCmd{{Channel: 1, EBlock: 2, Data: []byte{1}}}).Wait()
	if len(res.FailedEBlocks) != 1 || res.FailedEBlocks[0] != [2]int{1, 2} {
		t.Fatalf("batched program without a source: %+v, want (1,2) failed", res)
	}
	unmoved("batch")
	if err := d.Program(SrcUser, 1, 2, 0, []byte{1}); err != nil {
		t.Fatalf("the same program with a source: %v", err)
	}
	if st := d.Stats(); st.SrcWBlocks[SrcUser] != 1 || st.WBlocksWritten != 1 {
		t.Fatalf("Stats after the program with a source: %+v", st)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := testDevice(t)
	got, _, err := readExtent(d, 3, 7, 0, 4*d.Geometry().RBlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten flash should read zero")
		}
	}
}

// TestRecycledWBlockProgramAllocFree: a WBLOCK's first program stores its
// payload at exact size; the first reprogram after an erase that needs more
// grows the slot to a whole WBLOCK, so from then on reprogramming the
// recycled WBLOCK at any size allocates nothing.
func TestRecycledWBlockProgramAllocFree(t *testing.T) {
	d := testDevice(t)
	w := d.Geometry().WBlockBytes
	small, full := make([]byte, 100), make([]byte, w)
	cycle := func(data []byte) {
		if err := eraseNow(d, 2, 3); err != nil {
			t.Fatal(err)
		}
		if err := d.Program(SrcUser, 2, 3, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	cycle(small)
	if got := cap(d.channels[2].eblocks[3].wblocks[0]); got != len(small) {
		t.Fatalf("first program stored %d bytes of capacity, want %d", got, len(small))
	}
	cycle(make([]byte, 200)) // the one growth
	if got := cap(d.channels[2].eblocks[3].wblocks[0]); got != w {
		t.Fatalf("a grown slot has %d bytes of capacity, want a whole WBLOCK (%d)", got, w)
	}
	size := 0
	if n := testing.AllocsPerRun(100, func() {
		size = (size + 4099) % (w + 1)
		cycle(full[:size])
	}); n != 0 {
		t.Fatalf("reprogramming a recycled WBLOCK allocates %v times per program", n)
	}
}
