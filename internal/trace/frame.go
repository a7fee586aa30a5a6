package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire framing
//
// The v2 trace format's length-framed, CRC32-checksummed section encoding
// doubles as a network wire format: each frame is
//
//	type    uvarint
//	length  uvarint            payload length in bytes
//	payload length bytes
//	crc32   4 bytes LE         IEEE CRC32 of the encoded type+length+payload
//
// FrameWriter and FrameReader expose that framing for stream protocols (the
// internal/serve prediction service is the consumer), and AppendRecords /
// DecodeRecords expose the count-prefixed record-chunk codec used for
// secRecords payloads, so a network frame carries branch records in exactly
// the bytes a v2 trace file would. Frame type numbers are the protocol's
// business; the file decoder's section types (1..3) are reserved.

// Frame is one decoded, checksum-verified wire frame.
type Frame struct {
	// Type is the frame type tag.
	Type uint64
	// Payload is the frame body. From a plain NewFrameReader it is freshly
	// allocated per frame and holding it across Next calls is safe. From a
	// NewPooledFrameReader it is borrowed from the reader's BufferPool and
	// only valid until Release — callers that need the old guarantee copy
	// via Copy, or extend the borrow via Retain.
	Payload []byte
	// Start is the byte offset of the frame's first byte, counted from
	// where the FrameReader started.
	Start int64

	// buf is the pooled buffer backing Payload; nil for unpooled frames.
	buf *PooledBuf
}

// Release returns a borrowed payload to its pool. After Release the Payload
// bytes must not be touched. On an unpooled frame (plain NewFrameReader, or
// the zero Frame) Release is a no-op, so callers can release unconditionally.
func (f *Frame) Release() {
	if f.buf != nil {
		f.buf.Release()
		f.buf = nil
		f.Payload = nil
	}
}

// Retain adds a reference to a borrowed payload so it survives a Release by
// another holder; each Retain needs its own Release. No-op on unpooled
// frames (their payload is garbage-collected, holding it is always safe).
func (f *Frame) Retain() { f.buf.Retain() }

// Buffer returns the pooled buffer backing Payload, or nil for unpooled
// frames. It is the ownership hand-off hook: pass it (with the frame's
// reference) to whatever outlives the frame, and have that holder Release.
func (f *Frame) Buffer() *PooledBuf { return f.buf }

// Copy returns a freshly allocated copy of Payload — the escape hatch for
// callers that want the pre-pool "holding it is safe forever" guarantee.
func (f *Frame) Copy() []byte { return append([]byte(nil), f.Payload...) }

// FrameWriter emits checksummed frames onto a stream. It buffers; callers
// decide flush points (a network writer flushes after each response batch).
type FrameWriter struct {
	bw *bufio.Writer
}

// NewFrameWriter returns a FrameWriter over w. The 64 KiB buffer lets a
// writer that defers its flush points coalesce several frames per syscall.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{bw: bufio.NewWriterSize(w, 64<<10)}
}

// WriteFrame appends one frame to the stream buffer.
func (fw *FrameWriter) WriteFrame(typ uint64, payload []byte) error {
	return writeSection(fw.bw, typ, payload)
}

// Flush writes any buffered frames to the underlying stream.
func (fw *FrameWriter) Flush() error { return fw.bw.Flush() }

// FrameReader decodes checksummed frames from a stream. Any framing or
// checksum violation is reported as a *CorruptError (matching ErrCorrupt);
// a clean end of stream between frames is io.EOF.
type FrameReader struct {
	s sectionScanner
}

// NewFrameReader returns a FrameReader over r. maxPayload bounds the payload
// size a frame may declare (<= 0 selects the trace format's default limit),
// so a hostile length can never force a huge allocation.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = maxSectionPayload
	}
	// 64 KiB of read buffer batches many small frames (acks, control) into
	// one syscall; payloads at or above the buffer size bypass it entirely
	// (bufio reads them straight into the destination).
	return &FrameReader{s: sectionScanner{br: bufio.NewReaderSize(r, 64<<10), max: maxPayload}}
}

// NewPooledFrameReader is NewFrameReader with payloads borrowed from pool
// instead of allocated per frame: each returned Frame holds one reference and
// the caller must Release it (see Frame.Release/Retain/Copy). A nil pool
// falls back to plain allocation, with Release a cheap no-op.
func NewPooledFrameReader(r io.Reader, maxPayload int, pool *BufferPool) *FrameReader {
	fr := NewFrameReader(r, maxPayload)
	fr.s.pool = pool
	return fr
}

// Next reads and verifies the next frame. It returns io.EOF untouched only
// at a clean frame boundary; any other failure is a *CorruptError locating
// the damage.
func (fr *FrameReader) Next() (Frame, error) {
	sec, err := fr.s.next()
	if err == io.EOF {
		return Frame{Start: sec.start}, io.EOF
	}
	if err != nil {
		return Frame{Start: sec.start}, corrupt(0, sec.start, "wire frame", err)
	}
	return Frame{Type: sec.typ, Payload: sec.payload, Start: sec.start, buf: sec.buf}, nil
}

// Offset returns the stream offset of the next unread byte.
func (fr *FrameReader) Offset() int64 { return fr.s.off }

// AppendRecords appends the count-prefixed delta-encoding of recs to buf and
// returns the extended slice. Delta state starts at zero, so every encoded
// chunk decodes independently (the same property v2 file chunks have).
//
// The loop is putRecord with its dominant shape — every field single-byte —
// open-coded as one 4-byte store, because this is the streaming client's
// per-record encode cost; everything else defers to putRecord.
func AppendRecords(buf []byte, recs []Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	buf, _ = appendBody(buf, recs, false)
	return buf
}

// AppendIndirectRecords is AppendRecords over only the indirect records of
// recs (Kind.Indirect), in order, without materializing the subsequence:
// the chunk equals AppendRecords(buf, Trace(recs).Indirect()). It is the
// streaming client's encoder for sessions whose predictor reads no other
// kind. It walks recs once: the count prefix is reserved at the width
// len(recs) needs and rewritten, closing the gap, once the count is known.
func AppendIndirectRecords(buf []byte, recs []Record) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	w := len(buf) - start
	buf, n := appendBody(buf, recs, true)
	if nw := binary.PutUvarint(buf[start:], uint64(n)); nw < w {
		buf = append(buf[:start+nw], buf[start+w:]...)
	}
	return buf
}

// appendBody appends the delta-encoded records of recs, skipping
// non-indirect ones when indirectOnly is set, and returns how many it
// encoded.
func appendBody(buf []byte, recs []Record, indirectOnly bool) ([]byte, int) {
	n := 0
	var prevPC, prevTgt uint32
	for _, r := range recs {
		if indirectOnly && !r.Kind.Indirect() {
			continue
		}
		n++
		upc := zigzag(int64(int32(r.PC-prevPC)) >> 2)
		utg := zigzag(int64(int32(r.Target-prevTgt)) >> 2)
		if upc|utg|uint64(r.Gap)|uint64(r.Kind) < 1<<7 && cap(buf)-len(buf) >= 4 {
			k := len(buf)
			binary.LittleEndian.PutUint32(buf[k:cap(buf)],
				uint32(upc)|uint32(utg)<<8|uint32(r.Kind)<<16|r.Gap<<24)
			buf = buf[:k+4]
		} else {
			buf = putRecord(buf, r, prevPC, prevTgt)
		}
		prevPC, prevTgt = r.PC, r.Target
	}
	return buf, n
}

// DecodeRecords decodes a payload produced by AppendRecords. maxRecords
// bounds the count the payload may declare (<= 0 selects the v2 file chunk
// limit); trailing bytes after the declared records are rejected. Failures
// wrap ErrBadFormat or describe the truncation. It is a convenience wrapper
// over RecordIter for callers that want a materialized Trace; the hot path
// iterates in place instead.
func DecodeRecords(payload []byte, maxRecords int) (Trace, error) {
	tr, err := decodeChunk(payload, maxRecords)
	if err != nil {
		return nil, fmt.Errorf("trace: records payload: %w", err)
	}
	return tr, nil
}
