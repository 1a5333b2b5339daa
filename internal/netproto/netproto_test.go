package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"eleos/internal/core"
	"eleos/internal/session"
)

// appendFrame appends a whole frame (header, type, body) to dst: the
// wire form a FrameWriter sends, built in memory for readers under test.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(body)))
	dst = append(dst, typ)
	return append(dst, body...)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {}, []byte("x"), make([]byte, 4096)}
	for i, body := range bodies {
		buf.Reset()
		if _, err := buf.Write(appendFrame(nil, byte(i+1), body)); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, body) {
			t.Fatalf("frame %d: type %d body %d bytes", i, typ, len(got))
		}
	}
}

// TestReadFrameRejectsOversize sends a length one past the cap and no
// body: the cap must fail the frame before any body byte is read, or the
// missing body would surface as a torn frame instead.
func TestReadFrameRejectsOversize(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], DefaultMaxFrameBytes+1)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: %v, want ErrFrameTooLarge", err)
	}
	if _, _, _, err := ReadFrameBuf(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize pooled frame: %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameForgedLengthNoAlloc(t *testing.T) {
	// A hostile 4-byte prefix claiming 4 GB must be rejected by the cap,
	// never allocated.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 0xFFFFFFFF)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("forged length accepted: %v", err)
	}
}

func TestReadFrameShortAndTorn(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
	// Zero-length frame (no type byte) is malformed.
	var zero [4]byte
	if _, _, err := ReadFrame(bytes.NewReader(zero[:])); !errors.Is(err, ErrShortBody) {
		t.Fatalf("zero frame: %v", err)
	}
	// Header promises more than the stream holds.
	var buf bytes.Buffer
	buf.Write(appendFrame(nil, MsgRead, []byte("abcdefgh")))
	torn := buf.Bytes()[:7]
	if _, _, err := ReadFrame(bytes.NewReader(torn)); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: %v", err)
	}
}

// TestFlushBodyRoundTrip: the one flush encoder round-trips through
// ParseFlush with the core batch encoder's bytes, and a body one byte
// short of the header is ErrShortBody.
func TestFlushBodyRoundTrip(t *testing.T) {
	wire := core.EncodeBatch([]core.LPage{{LPID: 7, Data: []byte("hello")}})
	body := append(AppendFlushHead(nil, 77, 11, 22), wire...)
	traceID, sid, wsn, gotWire, err := ParseFlush(body)
	if err != nil || traceID != 77 || sid != 11 || wsn != 22 || !bytes.Equal(gotWire, wire) {
		t.Fatalf("round trip: trace=%d sid=%d wsn=%d err=%v", traceID, sid, wsn, err)
	}
	if _, _, _, _, err := ParseFlush(body[:23]); !errors.Is(err, ErrShortBody) {
		t.Fatalf("short body accepted: %v", err)
	}
}

func TestU64Body(t *testing.T) {
	v, err := ParseU64(AppendU64(nil, 1<<60))
	if err != nil || v != 1<<60 {
		t.Fatalf("u64 round trip: %d %v", v, err)
	}
	if _, err := ParseU64([]byte{1, 2, 3}); !errors.Is(err, ErrShortBody) {
		t.Fatal("short u64 accepted")
	}
}

func TestErrorCodesRoundTrip(t *testing.T) {
	re, err := ParseError(AppendErrorBody(nil, CodeNotFound, "lpid 9"))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(re, core.ErrNotFound) {
		t.Fatal("CodeNotFound does not unwrap to core.ErrNotFound")
	}
	if _, err := ParseError([]byte{1}); !errors.Is(err, ErrShortBody) {
		t.Fatal("short error body accepted")
	}
}

func TestCodeForMapsSentinels(t *testing.T) {
	cases := []struct {
		err  error
		code uint16
	}{
		{core.ErrBadBatch, CodeBadBatch},
		{session.ErrUnknownSession, CodeUnknownSession},
		{core.ErrNotFound, CodeNotFound},
		{core.ErrWriteFailed, CodeWriteFailed},
		{errors.New("anything else"), CodeInternal},
	}
	for _, c := range cases {
		if got := CodeFor(c.err); got != c.code {
			t.Fatalf("CodeFor(%v) = %d, want %d", c.err, got, c.code)
		}
		// Whatever comes back over the wire must Is-match the original
		// sentinel (internal errors map to no sentinel).
		re := &RemoteError{Code: c.code, Msg: c.err.Error()}
		if c.code != CodeInternal && !errors.Is(re, c.err) {
			t.Fatalf("code %d does not unwrap to %v", c.code, c.err)
		}
	}
}

func TestRetryable(t *testing.T) {
	for _, code := range []uint16{CodeWriteFailed, CodeBusy, CodeShuttingDown} {
		if !Retryable(code) {
			t.Fatalf("code %d should be retryable", code)
		}
	}
	for _, code := range []uint16{CodeBadRequest, CodeBadBatch, CodeUnknownSession, CodeNotFound, CodeInternal} {
		if Retryable(code) {
			t.Fatalf("code %d should not be retryable", code)
		}
	}
}

// TestReadFrameNeverPanics hammers the frame reader with random bytes —
// a hostile peer must not crash the server.
func TestReadFrameNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		_, _, _ = ReadFrame(bytes.NewReader(b))
	}
}
