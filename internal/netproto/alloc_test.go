package netproto

import (
	"bytes"
	"io"
	"testing"
)

// Allocation regression tests for the pooled frame path (the tentpole's
// "≈0 allocs/op in the steady-state frame loop" claim, pinned here so a
// refactor that silently reintroduces a per-frame allocation fails CI
// rather than a benchmark eyeball). Each test warms its scratch once,
// then asserts testing.AllocsPerRun sees nothing.

func TestAppendHelpersAllocFree(t *testing.T) {
	scratch := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		scratch = AppendU64(scratch[:0], 0xDEADBEEF)
		scratch = AppendErrorBody(scratch[:0], CodeBadRequest, "bad batch")
		scratch = AppendFlushHead(scratch[:0], 7, 3, 41)
	}); n != 0 {
		t.Fatalf("append helpers allocate: %v allocs/op", n)
	}
}

func TestReadFrameBufAllocFree(t *testing.T) {
	var buf bytes.Buffer
	body := bytes.Repeat([]byte{0x5A}, 2048)
	if _, err := buf.Write(appendFrame(nil, MsgFlushBatch, body)); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	r := bytes.NewReader(wire)

	// Warm the pool's size class once outside the measured runs.
	_, _, pb, err := ReadFrameBuf(r)
	if err != nil {
		t.Fatal(err)
	}
	pb.Release()

	if n := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		typ, got, pb, err := ReadFrameBuf(r)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgFlushBatch || len(got) != len(body) {
			t.Fatalf("frame mismatch: typ=%d len=%d", typ, len(got))
		}
		pb.Release()
	}); n != 0 {
		t.Fatalf("ReadFrameBuf allocates: %v allocs/op", n)
	}
}

func TestFrameWriterAllocFree(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	small := bytes.Repeat([]byte{1}, 64)         // copied path
	large := bytes.Repeat([]byte{2}, 64<<10)     // vectored path
	head := []byte{9, 9, 9, 9, 9, 9, 9, 9, 1, 2} // flush prefix shape

	// Warm: grows fw's scratch to the largest copied frame.
	for _, f := range []func() error{
		func() error { return fw.WriteFrame(MsgRespFlushBatch, small) },
		func() error { return fw.WriteFrame2(MsgFlushBatch, head, large) },
	} {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}

	if n := testing.AllocsPerRun(200, func() {
		if err := fw.WriteFrame(MsgRespFlushBatch, small); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("small (copied) WriteFrame allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := fw.WriteFrame2(MsgFlushBatch, head, large); err != nil {
			t.Fatalf("WriteFrame2: %v", err)
		}
	}); n != 0 {
		t.Fatalf("large (vectored) WriteFrame2 allocates: %v allocs/op", n)
	}
}

// BenchmarkPooledFrameLoop is the steady-state frame loop end to end —
// read a flush-sized request frame from a pooled buffer, emit a
// vectored response borrowing it, release — shaped for the CI gate
// that greps its -benchmem output for "0 allocs/op".
func BenchmarkPooledFrameLoop(b *testing.B) {
	var buf bytes.Buffer
	body := bytes.Repeat([]byte{0x3C}, 32<<10)
	if _, err := buf.Write(appendFrame(nil, MsgFlushBatch, body)); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	r := bytes.NewReader(wire)
	fw := NewFrameWriter(io.Discard)
	var head [16]byte

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(wire)
		typ, got, pb, err := ReadFrameBuf(r)
		if err != nil {
			b.Fatal(err)
		}
		if err := fw.WriteFrame2(typ, head[:], got); err != nil {
			b.Fatal(err)
		}
		pb.Release()
	}
	b.SetBytes(int64(len(wire)))
}
