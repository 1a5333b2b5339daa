package netproto

import (
	"encoding/binary"
	"io"
	"net"
	"sync"

	"eleos/internal/bufpool"
)

// The pooled frame path. A request's bytes are read from the socket
// once, into a reference-counted pooled buffer, and borrowed — never
// copied — by the decode, coalescing and program stages downstream
// (bufpool documents the ownership rules). Responses are emitted through
// a per-connection FrameWriter that assembles small frames in reused
// scratch and sends large bodies as vectored [header, body] writes
// (writev on TCP), so the steady-state frame loop performs zero heap
// allocations.

// hdrPool recycles the 4-byte length-header scratch: a stack array
// would escape through the io.Reader interface call and cost one
// allocation per frame.
var hdrPool = sync.Pool{New: func() any { return new([4]byte) }}

// ReadFrameBuf is ReadFrame into a pooled buffer. The returned body
// aliases buf's storage; the caller owns one reference and must
// buf.Release() when every borrower of body is done. On error no buffer
// is retained.
func ReadFrameBuf(r io.Reader) (typ byte, body []byte, buf *bufpool.Buf, err error) {
	hdr := hdrPool.Get().(*[4]byte)
	n, err := readFrameLen(r, hdr)
	hdrPool.Put(hdr)
	if err != nil {
		return 0, nil, nil, err
	}
	buf = bufpool.Get(n)
	payload := buf.Bytes()
	if err := readFramePayload(r, payload); err != nil {
		buf.Release()
		return 0, nil, nil, err
	}
	return payload[0], payload[1:], buf, nil
}

// vecCopyLimit is the body size below which a vectored write degrades
// into a copy: one writev costs more in setup than the memcpy it
// saves, and tiny acks dominate the reply mix.
const vecCopyLimit = 1024

// FrameWriter emits frames over one connection from reused internal
// scratch. Not safe for concurrent use; each connection handler owns
// one. Frame bodies totalling at most vecCopyLimit are copied after the
// header and written as one Write (one TCP segment; no interleaving
// hazard between goroutines sharing a conn through their own locks);
// larger bodies go out as a vectored [header, body] write with no copy.
//
// Body slices passed in are read synchronously and not retained, but
// they must not alias the writer's own scratch (callers build bodies in
// their own buffers; the writer only ever assembles frames).
type FrameWriter struct {
	w       io.Writer
	scratch []byte
	// The vectored write's net.Buffers lives in vecs (a field: a local
	// would escape through WriteTo's pointer receiver and allocate its
	// header per call) backed by vecArr (WriteTo consumes the slice it
	// advances over, so the header is rebuilt over this fixed array each
	// write rather than relying on surviving capacity).
	vecs   net.Buffers
	vecArr [2][]byte
}

// NewFrameWriter wraps a connection. The scratch grows to the largest
// copied frame and stays.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, scratch: make([]byte, 0, 512)}
}

// WriteFrame writes one frame with the given body.
func (fw *FrameWriter) WriteFrame(typ byte, body []byte) error {
	return fw.WriteFrame2(typ, body, nil)
}

// WriteFrame2 writes one frame whose body is the concatenation
// head||tail, without materialising the concatenation: small frames are
// copied into scratch and written once; for large frames the header and
// head are copied and the tail rides the vectored write untouched. The
// split fits flush requests exactly — a small fixed prefix (trace ID,
// sid, wsn) ahead of a large borrowed batch buffer.
func (fw *FrameWriter) WriteFrame2(typ byte, head, tail []byte) error {
	n := len(head) + len(tail)
	if n <= vecCopyLimit {
		frame := fw.frameBuf(5 + n)
		binary.LittleEndian.PutUint32(frame, uint32(1+n))
		frame[4] = typ
		copy(frame[5:], head)
		copy(frame[5+len(head):], tail)
		_, err := fw.w.Write(frame)
		return err
	}
	pre := fw.frameBuf(5 + len(head))
	binary.LittleEndian.PutUint32(pre, uint32(1+n))
	pre[4] = typ
	copy(pre[5:], head)
	fw.vecArr[0], fw.vecArr[1] = pre, tail
	fw.vecs = net.Buffers(fw.vecArr[:])
	_, err := fw.vecs.WriteTo(fw.w)
	// Drop the tail references: the writer must not pin a caller's
	// (possibly pooled) buffer past the write.
	fw.vecs = nil
	fw.vecArr[0], fw.vecArr[1] = nil, nil
	return err
}

// frameBuf returns the scratch resized to n bytes, growing as needed.
func (fw *FrameWriter) frameBuf(n int) []byte {
	if cap(fw.scratch) < n {
		fw.scratch = make([]byte, 0, n)
	}
	return fw.scratch[:n]
}

// AppendErrorBody appends a RespError body (code u16 | message) to dst.
func AppendErrorBody(dst []byte, code uint16, msg string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, code)
	return append(dst, msg...)
}

// AppendFlushHead appends the fixed flush_batch body prefix to dst: the
// trace ID (0 = server assigns), sid and wsn. The batch wire bytes travel
// separately (WriteFrame2 tail).
func AppendFlushHead(dst []byte, traceID, sid, wsn uint64) []byte {
	dst = AppendU64(dst, traceID)
	dst = AppendU64(dst, sid)
	return AppendU64(dst, wsn)
}
