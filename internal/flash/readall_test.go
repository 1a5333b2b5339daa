package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refReadExtent is the media read as it was before the gather, kept as the
// reference ReadAll is compared against: allocate and zero the covering
// RBLOCKs, copy RBLOCK by RBLOCK out of the WBLOCK backing arrays, charge
// the channel and the stats per RBLOCK, return a sub-slice.
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
	rPerW := d.geo.WBlockBytes / d.geo.RBlockBytes
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

// readInto reads the EBLOCK's bytes [off, off+len(dst)) into dst with a
// one-segment ReadAll.
func readInto(d *Device, dst []byte, ch, eb, off int) (rblocks int, err error) {
	r := [1]Read{{Channel: ch, EBlock: eb, Seg: ReadSeg{Off: off, Dst: dst}}}
	d.ReadAll(r[:])
	return r[0].RBlocks, r[0].Err
}

// readExtent is readInto into a new slice of exactly length bytes.
func readExtent(d *Device, ch, eb, off, length int) ([]byte, int, error) {
	out := make([]byte, max(length, 0))
	n, err := readInto(d, out, ch, eb, off)
	return out, n, err
}

// gather reads a segment list of one EBLOCK with a one-read ReadAll.
func gather(d *Device, ch, eb int, segs []ReadSeg) (rblocks int, err error) {
	r := [1]Read{{Channel: ch, EBlock: eb, Segs: segs}}
	d.ReadAll(r[:])
	return r[0].RBlocks, r[0].Err
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
		if err := d.Program(SrcUser, 1, 2, wb, stale); err != nil {
			t.Fatal(err)
		}
	}
	if err := eraseNow(d, 1, 2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for wb, n := range []int{g.WBlockBytes, g.WBlockBytes - 100, g.RBlockBytes + 1, 1, g.WBlockBytes, 5000} {
		data := make([]byte, n)
		rng.Read(data)
		if err := d.Program(SrcUser, 1, 2, wb, data); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	d.ResetTime()
	return d
}

// TestReadIntoMatchesReference: over random extents of an EBLOCK holding
// full, short and unprogrammed WBLOCKs, a one-segment read into a poisoned
// buffer yields the reference's bytes, RBLOCK count, Stats and channel time,
// and readExtent returns exactly that in a slice of exactly the extent's
// length.
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
			off = g.RBlockBytes * rng.Intn(g.EBlockBytes/g.RBlockBytes)
			length = g.RBlockBytes * (1 + rng.Intn(g.WBlockBytes/g.RBlockBytes+2))
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
		if gotN, err := readInto(dev, got, 1, 2, off); err != nil || gotN != wantN || !bytes.Equal(got, want) {
			t.Fatalf("readInto [%d,+%d): rblocks %d (want %d), err %v, bytes equal %v", off, length, gotN, wantN, err, bytes.Equal(got, want))
		}
		e, eN, err := readExtent(ext, 1, 2, off, length)
		if err != nil || eN != wantN || !bytes.Equal(e, want) || cap(e) != length {
			t.Fatalf("readExtent [%d,+%d): rblocks %d (want %d), err %v, cap %d", off, length, eN, wantN, err, cap(e))
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
// fail with ErrOutOfRange in the reference and in a one-segment read alike,
// charge nothing and leave dst alone.
func TestReadIntoRejectsWhatTheReferenceRejects(t *testing.T) {
	ref, dev := mixedEBlockDevice(t), mixedEBlockDevice(t)
	g := dev.Geometry()
	for _, c := range []struct{ ch, eb, off, length int }{
		{-1, 0, 0, 8}, {g.Channels, 0, 0, 8}, {0, -1, 0, 8}, {0, g.EBlocksPerChannel, 0, 8},
		{1, 2, -1, 8}, {1, 2, 0, 0}, {1, 2, g.EBlockBytes - 4, 8}, {1, 2, g.EBlockBytes, 1},
	} {
		_, _, refErr := refReadExtent(ref, c.ch, c.eb, c.off, c.length)
		dst := bytes.Repeat([]byte{0xDB}, c.length)
		n, err := readInto(dev, dst, c.ch, c.eb, c.off)
		if !errors.Is(refErr, ErrOutOfRange) || !errors.Is(err, ErrOutOfRange) || n != 0 {
			t.Errorf("%+v: readInto (%d, %v), reference %v", c, n, err, refErr)
		}
		if _, _, err := readExtent(dev, c.ch, c.eb, c.off, c.length); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%+v: readExtent %v", c, err)
		}
		if bytes.Count(dst, []byte{0xDB}) != len(dst) {
			t.Errorf("%+v: a rejected read wrote dst", c)
		}
	}
	if s := dev.Stats(); s != (Stats{}) || dev.MediaTime() != 0 {
		t.Fatalf("rejected reads were charged: %+v, %v", s, dev.MediaTime())
	}
}

// TestReadIntoAllocFree: a one-segment read (the segment in Read.Seg)
// allocates nothing, whatever mix of full, short and unprogrammed WBLOCKs
// the extent covers.
func TestReadIntoAllocFree(t *testing.T) {
	d := mixedEBlockDevice(t)
	g := d.Geometry()
	dst, one := make([]byte, 3*g.WBlockBytes), make([]Read, 1)
	if a := testing.AllocsPerRun(200, func() {
		for _, off := range []int{64, g.WBlockBytes - 100, 3 * g.WBlockBytes, 5 * g.WBlockBytes} {
			for _, n := range []int{len(dst), 1920} {
				one[0] = Read{Channel: 1, EBlock: 2, Seg: ReadSeg{Off: off, Dst: dst[:n]}}
				d.ReadAll(one)
				if one[0].Err != nil {
					t.Fatal(one[0].Err)
				}
			}
		}
	}); a != 0 {
		t.Fatalf("one-segment reads allocate: %v allocs/op", a)
	}
}

// randomSegs draws 1–40 ascending extents of the EBLOCK: gaps of zero
// (adjacent), a few bytes (RBLOCK-sharing) or several RBLOCKs, lengths from
// one byte to past a WBLOCK, starting anywhere — the unprogrammed tail
// included. Every Dst is a poisoned slice of its own.
func randomSegs(rng *rand.Rand, g Geometry) []ReadSeg {
	var segs []ReadSeg
	off := rng.Intn(g.EBlockBytes)
	if rng.Intn(3) > 0 {
		off = rng.Intn(7 * g.WBlockBytes) // mostly in and around the programmed prefix
	}
	for want := 1 + rng.Intn(40); len(segs) < want && off < g.EBlockBytes; {
		var length int
		switch rng.Intn(4) {
		case 0:
			length = 1 + rng.Intn(64)
		case 1:
			length = 1 + rng.Intn(2*g.RBlockBytes) // a page
		case 2:
			length = g.RBlockBytes * (1 + rng.Intn(3)) // RBLOCK multiples
		default:
			length = 1 + rng.Intn(g.WBlockBytes+g.RBlockBytes) // may span a whole WBLOCK
		}
		length = min(length, g.EBlockBytes-off)
		segs = append(segs, ReadSeg{Off: off, Dst: bytes.Repeat([]byte{0xDB}, length)})
		off += length
		switch rng.Intn(3) {
		case 1:
			off += 1 + rng.Intn(g.RBlockBytes/2)
		case 2:
			off += rng.Intn(3 * g.RBlockBytes)
		}
	}
	return segs
}

// unionRBlocks marks each segment's covering RBLOCKs in a bitmap and counts
// the marks.
func unionRBlocks(g Geometry, segs []ReadSeg) int {
	covered := make([]bool, g.EBlockBytes/g.RBlockBytes)
	n := 0
	for _, s := range segs {
		for r := s.Off / g.RBlockBytes; r <= (s.Off+len(s.Dst)-1)/g.RBlockBytes; r++ {
			if !covered[r] {
				covered[r] = true
				n++
			}
		}
	}
	return n
}

// TestReadGatherMatchesReference: over random segment sets, every Dst gets
// the bytes the reference reads for its extent, and the RBLOCK count, Stats
// and the channel's virtual time each move by exactly the bitmap-computed
// union of covering RBLOCKs — an RBLOCK two segments share is charged once.
func TestReadGatherMatchesReference(t *testing.T) {
	ref, dev := mixedEBlockDevice(t), mixedEBlockDevice(t)
	g := dev.Geometry()
	rng := rand.New(rand.NewSource(29))
	var gathered, perSeg int
	for i := 0; i < 3000; i++ {
		segs := randomSegs(rng, g)
		union := unionRBlocks(g, segs)
		before, busy := dev.Stats(), dev.ChannelTime(1)
		n, err := gather(dev, 1, 2, segs)
		if err != nil || n != union {
			t.Fatalf("set %d (%d segments from %d): %d rblocks, %v; want %d", i, len(segs), segs[0].Off, n, err, union)
		}
		after := dev.Stats()
		if d := after.RBlocksRead - before.RBlocksRead; d != int64(union) || after.BytesRead-before.BytesRead != d*int64(g.RBlockBytes) {
			t.Fatalf("set %d: Stats moved by %d rblocks, %d bytes; want %d", i, d, after.BytesRead-before.BytesRead, union)
		}
		if d := dev.ChannelTime(1) - busy; d != time.Duration(union)*7*time.Microsecond {
			t.Fatalf("set %d: channel time moved by %v for %d rblocks", i, d, union)
		}
		for _, s := range segs {
			want, wantN, err := refReadExtent(ref, 1, 2, s.Off, len(s.Dst))
			if err != nil || !bytes.Equal(s.Dst, want) {
				t.Fatalf("set %d: segment [%d,+%d) differs from the reference (%v)", i, s.Off, len(s.Dst), err)
			}
			perSeg += wantN
		}
		gathered += union
	}
	if after := dev.Stats(); after.RBlocksRead != int64(gathered) || gathered >= perSeg {
		t.Fatalf("gathers transferred %d rblocks, counted %d, per-segment reads %d: nothing was shared", after.RBlocksRead, gathered, perSeg)
	}
	for _, ch := range []int{0, 2, 3} {
		if dev.ChannelTime(ch) != 0 {
			t.Fatalf("channel %d was charged", ch)
		}
	}
}

// TestReadGatherRejectsMalformedSets: a set with an empty Dst, an overlap,
// a descending pair or an extent past the EBLOCK, an empty set and a bad
// address each fail with ErrOutOfRange before anything happens — no Dst byte
// written (the good segments ahead of the bad one included), nothing charged.
func TestReadGatherRejectsMalformedSets(t *testing.T) {
	dev := mixedEBlockDevice(t)
	g := dev.Geometry()
	seg := func(off, length int) ReadSeg {
		return ReadSeg{Off: off, Dst: bytes.Repeat([]byte{0xDB}, length)}
	}
	for name, c := range map[string]struct {
		ch, eb int
		segs   []ReadSeg
	}{
		"empty list":      {1, 2, []ReadSeg{}},
		"empty dst":       {1, 2, []ReadSeg{seg(0, 100), seg(200, 0), seg(300, 8)}},
		"only empty dst":  {1, 2, []ReadSeg{seg(64, 0)}},
		"overlap":         {1, 2, []ReadSeg{seg(0, 100), seg(99, 10)}},
		"same offset":     {1, 2, []ReadSeg{seg(4096, 8), seg(4096, 8)}},
		"descending":      {1, 2, []ReadSeg{seg(8192, 64), seg(100, 64)}},
		"negative offset": {1, 2, []ReadSeg{seg(-1, 8)}},
		"past the eblock": {1, 2, []ReadSeg{seg(0, 64), seg(g.EBlockBytes-4, 8)}},
		"at the end":      {1, 2, []ReadSeg{seg(g.EBlockBytes, 1)}},
		"bad channel":     {g.Channels, 2, []ReadSeg{seg(0, 64)}},
		"bad eblock":      {1, -1, []ReadSeg{seg(0, 64)}},
	} {
		n, err := gather(dev, c.ch, c.eb, c.segs)
		if !errors.Is(err, ErrOutOfRange) || n != 0 {
			t.Errorf("%s: (%d, %v), want ErrOutOfRange", name, n, err)
		}
		for _, s := range c.segs {
			if bytes.Count(s.Dst, []byte{0xDB}) != len(s.Dst) {
				t.Errorf("%s: a rejected gather wrote segment [%d,+%d)", name, s.Off, len(s.Dst))
			}
		}
	}
	if s := dev.Stats(); s != (Stats{}) || dev.MediaTime() != 0 {
		t.Fatalf("rejected gathers were charged: %+v, %v", s, dev.MediaTime())
	}
}

// TestReadGatherAllocFree: a gather over a caller-owned segment list
// allocates nothing, whatever its segments cover.
func TestReadGatherAllocFree(t *testing.T) {
	d := mixedEBlockDevice(t)
	g := d.Geometry()
	segs := []ReadSeg{{Off: g.WBlockBytes - 100, Dst: make([]byte, 3*g.WBlockBytes)}}
	for len(segs) < 40 { // pages 700 bytes apart, out into the unprogrammed WBLOCKs
		last := segs[len(segs)-1]
		segs = append(segs, ReadSeg{Off: last.Off + len(last.Dst) + 700, Dst: make([]byte, 1920)})
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := gather(d, 1, 2, segs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a gather allocates: %v allocs/op", n)
	}
}

// TestReadAllAllocFree: a ReadAll over caller-owned reads and segments
// allocates nothing, one read or eight on four channels, their segments in
// a list or (every other one) in the Read itself.
func TestReadAllAllocFree(t *testing.T) {
	d := mixedEBlockDevice(t)
	reads := make([]Read, 8)
	for k := range reads {
		seg := ReadSeg{Off: k * 700, Dst: make([]byte, 1920)}
		if reads[k] = (Read{Channel: k % 4, EBlock: 2, Seg: seg}); k%2 == 0 {
			reads[k] = Read{Channel: k % 4, EBlock: 2, Segs: []ReadSeg{seg}}
		}
	}
	for _, n := range []int{1, len(reads)} {
		if a := testing.AllocsPerRun(200, func() { d.ReadAll(reads[:n]) }); a != 0 || reads[n-1].Err != nil {
			t.Fatalf("ReadAll of %d: %v allocs/op, err %v", n, a, reads[n-1].Err)
		}
	}
}

// TestReadAllExactLength: a read fills exactly the Dst it was given — a
// slice of the extent's length, so a holder (the read cache) retains what
// it charges — and not a byte around it.
func TestReadAllExactLength(t *testing.T) {
	d := mixedEBlockDevice(t)
	off := d.Geometry().WBlockBytes - 300
	want, _, err := refReadExtent(mixedEBlockDevice(t), 1, 2, off, 1000)
	for _, inline := range []bool{false, true} { // the segment in Segs, or in Seg
		buf := bytes.Repeat([]byte{0xDB}, 1200)
		seg := ReadSeg{Off: off, Dst: buf[100:1100:1100]}
		reads := []Read{{Channel: 1, EBlock: 2, Segs: []ReadSeg{seg}}}
		if inline {
			reads[0] = Read{Channel: 1, EBlock: 2, Seg: seg}
		}
		d.ReadAll(reads)
		if r := reads[0]; err != nil || r.Err != nil || !bytes.Equal(buf[100:1100], want) || r.RBlocks != 2 ||
			bytes.Count(buf[:100], []byte{0xDB})+bytes.Count(buf[1100:], []byte{0xDB}) != 200 {
			t.Fatalf("read (inline %v): err %v / %v, rblocks %d, or it wrote outside its Dst", inline, err, r.Err, r.RBlocks)
		}
	}
}

// TestReadAllIsReadGather: the seeded segment sets of
// TestReadGatherMatchesReference, one to three to a call, run one read per
// ReadAll on one device and as one ReadAll on its twin, give identical
// bytes, RBLOCK counts, Stats and channel time.
func TestReadAllIsReadGather(t *testing.T) {
	direct, twin := mixedEBlockDevice(t), mixedEBlockDevice(t)
	g := direct.Geometry()
	rd, rt := rand.New(rand.NewSource(29)), rand.New(rand.NewSource(29)) // one stream of sets each
	for i := 0; i < 600; i++ {
		reads := make([]Read, 1+i%3)
		for k := range reads {
			reads[k] = Read{Channel: 1, EBlock: 2, Segs: randomSegs(rt, g)}
		}
		twin.ReadAll(reads)
		for k, r := range reads {
			segs := randomSegs(rd, g)
			n, err := gather(direct, 1, 2, segs)
			if err != nil || r.Err != nil || r.RBlocks != n || n == 0 {
				t.Fatalf("call %d, read %d: alone (%d, %v), in the call (%d, %v)", i, k, n, err, r.RBlocks, r.Err)
			}
			for j := range segs {
				if !bytes.Equal(segs[j].Dst, r.Segs[j].Dst) {
					t.Fatalf("call %d, read %d: segment %d differs", i, k, j)
				}
			}
		}
		// Equal ledgers after every call are equal deltas for every call.
		if direct.Stats() != twin.Stats() || direct.ChannelTime(1) != twin.ChannelTime(1) {
			t.Fatalf("call %d: ledgers diverge: %+v %v, %+v %v", i, direct.Stats(), direct.ChannelTime(1), twin.Stats(), twin.ChannelTime(1))
		}
	}
}

// TestReadGatherOneSegmentIsReadInto: a read's one segment in Seg and the
// same segment as a one-element Segs agree in bytes, count, ledger and
// error, for good and bad extents alike.
func TestReadGatherOneSegmentIsReadInto(t *testing.T) {
	a, b := mixedEBlockDevice(t), mixedEBlockDevice(t)
	g := a.Geometry()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		off := rng.Intn(g.EBlockBytes+64) - 32
		length := rng.Intn(2 * g.WBlockBytes)
		da, db := bytes.Repeat([]byte{0xDB}, length), bytes.Repeat([]byte{0xDB}, length)
		na, errA := readInto(a, da, 1, 2, off)
		nb, errB := gather(b, 1, 2, []ReadSeg{{Off: off, Dst: db}})
		if na != nb || !bytes.Equal(da, db) || fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("[%d,+%d): in Seg (%d, %v), in Segs (%d, %v)", off, length, na, errA, nb, errB)
		}
	}
	if a.Stats() != b.Stats() || a.ChannelTime(1) != b.ChannelTime(1) || a.Stats().RBlocksRead == 0 {
		t.Fatalf("ledgers diverge: %+v %v, %+v %v", a.Stats(), a.ChannelTime(1), b.Stats(), b.ChannelTime(1))
	}
}

// TestReadAllFailsOnlyTheMalformedRead: a malformed read gets its own Err
// and writes nothing (and, as a rejected gather, charges nothing); the
// reads beside it in the same call, before and after, still read.
func TestReadAllFailsOnlyTheMalformedRead(t *testing.T) {
	d, g := mixedEBlockDevice(t), SmallGeometry()
	want, n, _ := refReadExtent(mixedEBlockDevice(t), 1, 2, 0, 2*g.WBlockBytes)
	read := func(ch, off, n int) Read {
		return Read{Channel: ch, EBlock: 2, Segs: []ReadSeg{{Off: off, Dst: bytes.Repeat([]byte{0xDB}, n)}}}
	}
	reads := []Read{read(1, 0, len(want)), read(1, g.EBlockBytes-4, 8), read(g.Channels, 0, 8), read(1, 0, len(want))}
	d.ReadAll(reads)
	for k, r := range reads {
		good := k == 0 || k == 3
		if good && (r.Err != nil || r.RBlocks != n || !bytes.Equal(r.Segs[0].Dst, want)) ||
			!good && (!errors.Is(r.Err, ErrOutOfRange) || r.RBlocks != 0 || bytes.Count(r.Segs[0].Dst, []byte{0xDB}) != 8) {
			t.Fatalf("read %d: err %v, rblocks %d (good ones read %d)", k, r.Err, r.RBlocks, n)
		}
	}
}
