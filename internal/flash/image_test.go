package flash

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestImageRoundTrip(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	// Program a few wblocks, erase one eblock, fail another.
	if err := d.Program(SrcUser, 0, 0, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(SrcUser, 1, 2, 0, bytes.Repeat([]byte{7}, d.Geometry().WBlockBytes)); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(SrcUser, 1, 2, 1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := eraseNow(d, 2, 3); err != nil {
		t.Fatal(err)
	}
	d.FailNextProgram(3, 1, 0)
	_ = d.Program(SrcUser, 3, 1, 0, []byte{1}) // leaves eblock disabled

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDevice(bytes.NewReader(buf.Bytes()), Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Geometry() != d.Geometry() {
		t.Fatal("geometry mismatch")
	}
	got, _, err := readExtent(d2, 0, 0, 0, d2.Geometry().RBlockBytes)
	if err != nil || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatal("data lost in image")
	}
	got, _, _ = readExtent(d2, 1, 2, 0, d2.Geometry().RBlockBytes)
	if got[0] != 7 {
		t.Fatal("full wblock lost")
	}
	np, _ := d2.NextProgramPosition(1, 2)
	if np != 2 {
		t.Fatalf("program position lost: %d", np)
	}
	ec, _ := d2.EraseCount(2, 3)
	if ec != 1 {
		t.Fatal("erase count lost")
	}
	// Disabled eblock stays disabled.
	if err := d2.Program(SrcUser, 3, 1, 1, []byte{1}); !errors.Is(err, ErrEBlockDisabled) {
		t.Fatalf("failed state lost: %v", err)
	}
}

func TestImageFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev.img")
	d := MustNewDevice(SmallGeometry(), Latency{})
	if err := d.Program(SrcUser, 0, 5, 0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadFile(path, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := readExtent(d2, 0, 5, 0, d2.Geometry().RBlockBytes)
	if err != nil || got[0] != 42 {
		t.Fatal("file image roundtrip lost data")
	}
}

func TestImageRejectsCorruption(t *testing.T) {
	d := MustNewDevice(SmallGeometry(), Latency{})
	_ = d.Program(SrcUser, 0, 0, 0, []byte{1, 2, 3})
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Corrupt the programmed data of eblock (0,0): header is 64 bytes,
	// its per-eblock metadata 24, the written bitmap 8, the length 8 —
	// data starts at offset 104.
	img[104] ^= 0xFF
	if _, err := ReadDevice(bytes.NewReader(img), Latency{}); !errors.Is(err, ErrBadImage) {
		t.Fatalf("corruption not detected: %v", err)
	}
	img[104] ^= 0xFF // restore
	// Truncated.
	if _, err := ReadDevice(bytes.NewReader(img[:20]), Latency{}); !errors.Is(err, ErrBadImage) {
		t.Fatal("truncation not detected")
	}
	// Bad magic.
	img[0] ^= 0xFF
	if _, err := ReadDevice(bytes.NewReader(img), Latency{}); !errors.Is(err, ErrBadImage) {
		t.Fatal("bad magic not detected")
	}
}
