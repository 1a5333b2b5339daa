package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refReadExtent is the media read as it was before ReadInto, kept as the
// reference the primitive is compared against: allocate and zero the
// covering RBLOCKs, copy RBLOCK by RBLOCK out of the WBLOCK backing arrays,
// charge the channel and the stats per RBLOCK, return a sub-slice.
func refReadExtent(d *Device, ch, eb, off, length int) ([]byte, int, error) {
	if length <= 0 || off < 0 || off+length > d.geo.EBlockBytes {
		return nil, 0, fmt.Errorf("%w: extent [%d,%d)", ErrOutOfRange, off, off+length)
	}
	if err := d.checkAddr(ch, eb); err != nil {
		return nil, 0, err
	}
	start := off / d.geo.RBlockBytes
	n := (off+length-1)/d.geo.RBlockBytes - start + 1
	cs := &d.channels[ch]
	cs.mu.Lock()
	out := make([]byte, n*d.geo.RBlockBytes)
	rPerW := d.geo.RBlocksPerWBlock()
	ebs := &cs.eblocks[eb]
	for i := 0; i < n; i++ {
		r := start + i
		wb, rInW := r/rPerW, r%rPerW
		if wb >= ebs.nextWBlock {
			continue
		}
		src := ebs.wblocks[wb]
		if lo := rInW * d.geo.RBlockBytes; lo < len(src) {
			copy(out[i*d.geo.RBlockBytes:], src[lo:min(lo+d.geo.RBlockBytes, len(src))])
		}
	}
	cs.busy += time.Duration(n) * d.lat.ReadRBlock
	cs.mu.Unlock()
	d.statsMu.Lock()
	d.stats.RBlocksRead += int64(n)
	d.stats.BytesRead += int64(n * d.geo.RBlockBytes)
	d.statsMu.Unlock()
	lo := off - start*d.geo.RBlockBytes
	return out[lo : lo+length], n, nil
}

// mixedEBlockDevice programs EBLOCK (1, 2) with full, short, one-byte and
// full WBLOCKs and leaves the rest unprogrammed. An earlier generation of
// the EBLOCK was programmed in full and erased first, so the backing arrays
// past every program's length, and those of the unprogrammed WBLOCKs, hold
// stale nonzero bytes a read must not reveal.
func mixedEBlockDevice(t testing.TB) *Device {
	t.Helper()
	d := MustNewDevice(SmallGeometry(), Latency{ReadRBlock: 7 * time.Microsecond})
	g := d.Geometry()
	stale := bytes.Repeat([]byte{0xEE}, g.WBlockBytes)
	for wb := 0; wb < g.WBlocksPerEBlock(); wb++ {
		if err := d.Program(1, 2, wb, stale); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Erase(1, 2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for wb, n := range []int{g.WBlockBytes, g.WBlockBytes - 100, g.RBlockBytes + 1, 1, g.WBlockBytes, 5000} {
		data := make([]byte, n)
		rng.Read(data)
		if err := d.Program(1, 2, wb, data); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	d.ResetTime()
	return d
}

// TestReadIntoMatchesReference: over random extents of an EBLOCK holding
// full, short and unprogrammed WBLOCKs, ReadInto into a poisoned buffer
// yields the reference's bytes, RBLOCK count, Stats and channel time, and
// ReadExtent returns exactly that in a slice of exactly the extent's length.
func TestReadIntoMatchesReference(t *testing.T) {
	ref, dev, ext := mixedEBlockDevice(t), mixedEBlockDevice(t), mixedEBlockDevice(t)
	g := dev.Geometry()
	rng := rand.New(rand.NewSource(11))
	dst := make([]byte, g.EBlockBytes)
	for i := 0; i < 3000; i++ {
		var off, length int
		switch i % 4 {
		case 0: // a page-sized extent anywhere in the programmed prefix and a little beyond
			off, length = rng.Intn(8*g.WBlockBytes), 1+rng.Intn(2*g.RBlockBytes)
		case 1: // several WBLOCKs
			off, length = rng.Intn(g.EBlockBytes/2), 1+rng.Intn(3*g.WBlockBytes)
		case 2: // RBLOCK- and WBLOCK-aligned edges
			off = g.RBlockBytes * rng.Intn(g.RBlocksPerEBlock())
			length = g.RBlockBytes * (1 + rng.Intn(g.RBlocksPerWBlock()+2))
		default: // anywhere, the EBLOCK's last byte included
			off = rng.Intn(g.EBlockBytes)
			length = 1 + rng.Intn(g.EBlockBytes-off)
		}
		length = min(length, g.EBlockBytes-off)
		want, wantN, err := refReadExtent(ref, 1, 2, off, length)
		if err != nil {
			t.Fatalf("reference [%d,+%d): %v", off, length, err)
		}
		got := dst[:length]
		for j := range got {
			got[j] = 0xDB
		}
		gotN, err := dev.ReadInto(got, 1, 2, off)
		if err != nil || gotN != wantN || !bytes.Equal(got, want) {
			t.Fatalf("ReadInto [%d,+%d): rblocks %d (want %d), err %v, bytes equal %v", off, length, gotN, wantN, err, bytes.Equal(got, want))
		}
		e, eN, err := ext.ReadExtent(1, 2, off, length)
		if err != nil || eN != wantN || !bytes.Equal(e, want) || cap(e) != length {
			t.Fatalf("ReadExtent [%d,+%d): rblocks %d (want %d), err %v, cap %d", off, length, eN, wantN, err, cap(e))
		}
	}
	for _, d := range []*Device{dev, ext} {
		if d.Stats() != ref.Stats() {
			t.Fatalf("stats diverge: %+v, reference %+v", d.Stats(), ref.Stats())
		}
		for ch := 0; ch < g.Channels; ch++ {
			if d.ChannelTime(ch) != ref.ChannelTime(ch) {
				t.Fatalf("channel %d time %v, reference %v", ch, d.ChannelTime(ch), ref.ChannelTime(ch))
			}
		}
	}
	if ref.Stats().RBlocksRead == 0 || ref.ChannelTime(1) == 0 {
		t.Fatal("reference charged nothing")
	}
}

// TestReadIntoRejectsWhatTheReferenceRejects: bad addresses and extents
// fail with ErrOutOfRange in both, charge nothing and leave dst alone.
func TestReadIntoRejectsWhatTheReferenceRejects(t *testing.T) {
	ref, dev := mixedEBlockDevice(t), mixedEBlockDevice(t)
	g := dev.Geometry()
	for _, c := range []struct{ ch, eb, off, length int }{
		{-1, 0, 0, 8}, {g.Channels, 0, 0, 8}, {0, -1, 0, 8}, {0, g.EBlocksPerChannel, 0, 8},
		{1, 2, -1, 8}, {1, 2, 0, 0}, {1, 2, g.EBlockBytes - 4, 8}, {1, 2, g.EBlockBytes, 1},
	} {
		_, _, refErr := refReadExtent(ref, c.ch, c.eb, c.off, c.length)
		dst := bytes.Repeat([]byte{0xDB}, c.length)
		n, err := dev.ReadInto(dst, c.ch, c.eb, c.off)
		if !errors.Is(refErr, ErrOutOfRange) || !errors.Is(err, ErrOutOfRange) || n != 0 {
			t.Errorf("%+v: ReadInto (%d, %v), reference %v", c, n, err, refErr)
		}
		if _, _, err := dev.ReadExtent(c.ch, c.eb, c.off, c.length); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%+v: ReadExtent %v", c, err)
		}
		if bytes.Count(dst, []byte{0xDB}) != len(dst) {
			t.Errorf("%+v: a rejected read wrote dst", c)
		}
	}
	if s := dev.Stats(); s.RBlocksRead != 0 || dev.MediaTime() != 0 {
		t.Fatalf("rejected reads were charged: %+v, %v", s, dev.MediaTime())
	}
}

// TestReadIntoAllocFree: the media read allocates nothing, whatever mix of
// full, short and unprogrammed WBLOCKs the extent covers.
func TestReadIntoAllocFree(t *testing.T) {
	d := mixedEBlockDevice(t)
	g := d.Geometry()
	dst := make([]byte, 3*g.WBlockBytes)
	if n := testing.AllocsPerRun(200, func() {
		for _, off := range []int{64, g.WBlockBytes - 100, 3 * g.WBlockBytes, 5 * g.WBlockBytes} {
			if _, err := d.ReadInto(dst, 1, 2, off); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ReadInto(dst[:1920], 1, 2, off); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("ReadInto allocates: %v allocs/op", n)
	}
}

// TestSubmitReadsExactLength: a queued read's result is a slice of exactly
// the extent's length, so a holder (the read cache) retains what it charges.
func TestSubmitReadsExactLength(t *testing.T) {
	d := mixedEBlockDevice(t)
	defer d.Close()
	g := d.Geometry()
	want, _, err := refReadExtent(mixedEBlockDevice(t), 1, 2, g.WBlockBytes-300, 1000)
	if err != nil {
		t.Fatal(err)
	}
	res := d.SubmitReads(1, []ReadCmd{{Channel: 1, EBlock: 2, Offset: g.WBlockBytes - 300, Length: 1000}}).Wait()[0]
	if res.Err != nil || !bytes.Equal(res.Data, want) || cap(res.Data) != 1000 || res.RBlocks != 2 {
		t.Fatalf("queued read: err %v, cap %d, rblocks %d", res.Err, cap(res.Data), res.RBlocks)
	}
}
