package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/oocsb/ibp/internal/faultio"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		if err := fw.WriteFrame(uint64(16+i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 0)
	for i, p := range payloads {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != uint64(16+i) {
			t.Fatalf("frame %d: type %d, want %d", i, f.Type, 16+i)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: payload %q, want %q", i, f.Payload, p)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

func TestFrameReaderRejectsCorruption(t *testing.T) {
	mk := func() []byte {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		fw.WriteFrame(17, []byte("payload bytes"))
		fw.Flush()
		return buf.Bytes()
	}
	// Flip every byte position in turn; each must surface as ErrCorrupt,
	// never a panic or silent acceptance.
	clean := mk()
	for off := range clean {
		r := faultio.FlipBit(bytes.NewReader(mk()), int64(off), 0x40)
		fr := NewFrameReader(r, 0)
		f, err := fr.Next()
		if err == nil && bytes.Equal(f.Payload, []byte("payload bytes")) && f.Type == 17 {
			t.Fatalf("offset %d: corrupted frame decoded as clean", off)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("offset %d: error %v does not match ErrCorrupt", off, err)
		}
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.WriteFrame(17, []byte("some payload"))
	fw.Flush()
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		fr := NewFrameReader(faultio.TruncateAfter(bytes.NewReader(full), int64(n)), 0)
		_, err := fr.Next()
		if n == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: want ErrCorrupt, got %v", n, err)
		}
	}
}

func TestFrameReaderPayloadLimit(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.WriteFrame(17, make([]byte, 512))
	fw.Flush()
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()), 256)
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized payload: want ErrCorrupt, got %v", err)
	}
	fr = NewFrameReader(bytes.NewReader(buf.Bytes()), 512)
	if _, err := fr.Next(); err != nil {
		t.Fatalf("payload at the limit should decode: %v", err)
	}
}

func TestRecordsPayloadRoundTrip(t *testing.T) {
	tr := genTrace(300)
	payload := AppendRecords(nil, tr)
	back, err := DecodeRecords(payload, len(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("decoded %d records, want %d", len(back), len(tr))
	}
	for i := range tr {
		if back[i] != tr[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], tr[i])
		}
	}
	// Chunks are self-delimiting: delta state resets, so a chunk decoded in
	// isolation equals the same records decoded mid-trace.
	if _, err := DecodeRecords(payload, len(tr)-1); err == nil {
		t.Fatal("over-limit record count accepted")
	}
	if _, err := DecodeRecords(append(payload, 0x00), len(tr)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeRecords(payload[:len(payload)-1], len(tr)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestAppendIndirectRecords: the filtering encoder writes exactly the chunk
// AppendRecords writes for the materialized indirect subsequence, appends
// after existing bytes, and an all-filtered input is the empty chunk. The
// sizes cross the one-, two- and three-byte count prefixes, so the reserved
// prefix is both kept and narrowed.
func TestAppendIndirectRecords(t *testing.T) {
	tr := genTrace(20000)
	for _, n := range []int{0, 1, 100, 127, 128, 200, 500, 20000} {
		want := AppendRecords([]byte{0xab}, tr[:n].Indirect())
		if got := AppendIndirectRecords([]byte{0xab}, tr[:n]); !bytes.Equal(got, want) {
			t.Fatalf("%d records: indirect-only chunk differs from AppendRecords over Indirect(): %d vs %d bytes", n, len(got), len(want))
		}
	}
	conds := tr[:500].OfKind(Cond, Return)
	if got := AppendIndirectRecords(nil, conds); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("chunk of no indirect records = %x, want 00", got)
	}
}

// TestFrameWriteZeroAllocs: framing a payload — header, checksum, trailer —
// allocates nothing, so a streaming writer's per-frame cost is the copy.
func TestFrameWriteZeroAllocs(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	payload := AppendRecords(nil, genTrace(300))
	allocs := testing.AllocsPerRun(200, func() {
		if err := fw.WriteFrame(17, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrame allocates %.1f times per frame, want 0", allocs)
	}
}
