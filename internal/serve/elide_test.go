package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/trace"
)

// tapConn counts the bytes a client connection carries in both directions
// and, when sent is non-nil, keeps a copy of every byte the client writes.
type tapConn struct {
	net.Conn
	wire atomic.Int64
	sent *bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.Add(int64(n))
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if c.sent != nil {
		c.sent.Write(p)
	}
	n, err := c.Conn.Write(p)
	c.wire.Add(int64(n))
	return n, err
}

// dialTap opens a session over a tapConn, recording the client's bytes —
// preamble, Hello and every frame after — when record is set. The caller
// closes the client.
func dialTap(tb testing.TB, addr string, hello Hello, record bool) (*Client, *tapConn) {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tc := &tapConn{Conn: conn}
	if record {
		tc.sent = new(bytes.Buffer)
	}
	c, err := handshake(tc, hello, 30*time.Second)
	if err != nil {
		conn.Close()
		tb.Fatal(err)
	}
	return c, tc
}

// TestServeElisionWireBytes: an elided gcc session puts at most an eighth of
// a full session's bytes on the wire, and the server still accepts full
// frames on a granted session (an old client ignores the grant) with the
// identical Summary.
func TestServeElisionWireBytes(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	tr := benchTrace(t, "gcc", 4000)

	elided, etap := dialTap(t, addr, Hello{Benchmark: "gcc"}, false)
	defer elided.Close()
	if !elided.Session().IndirectOnly {
		t.Fatal("default predictor session not granted elision")
	}
	esum, err := elided.Stream(tr, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}

	full, ftap := dialTap(t, addr, Hello{Benchmark: "gcc"}, false)
	defer full.Close()
	full.ack.IndirectOnly = false // an old client: the grant goes unread
	fsum, err := full.Stream(tr, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}

	esum.Session, fsum.Session = 0, 0
	if esum != fsum {
		t.Fatalf("elided summary %+v != full-frame summary %+v", esum, fsum)
	}
	if esum.Records != len(tr) {
		t.Fatalf("elided summary counts %d records, trace holds %d", esum.Records, len(tr))
	}
	eb, fb := etap.wire.Load(), ftap.wire.Load()
	t.Logf("wire bytes: elided %d, full %d (%.1fx); %.1f vs %.1f per indirect branch",
		eb, fb, float64(fb)/float64(eb), float64(eb)/float64(len(tr.Indirect())), float64(fb)/float64(len(tr.Indirect())))
	if eb*8 > fb {
		t.Fatalf("elided session sent %d bytes, more than 1/8 of the full session's %d", eb, fb)
	}
}

// condConsumerStreamSHA256 is the SHA-256 of the client byte stream of
// TestServeCondConsumerSendsFullFrames, recorded before record elision
// existed: a session whose predictor reads conditional records must keep
// sending exactly these bytes.
const condConsumerStreamSHA256 = "170d5a97dc835e2d890bad63655bc8515ffbb53e92a8fcd63cfe169f637cd136"

// TestServeCondConsumerSendsFullFrames: a tcache session reads every
// conditional record, so it is not granted elision, and its client sends
// FrameRecords bytes identical to the full-frame encoding — pinned by hash
// to the stream as it was before elision existed.
func TestServeCondConsumerSendsFullFrames(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	tr := benchTrace(t, "gcc", 4000)
	const frame = 1000
	over := defaultFlags()
	over.Pred = "tcache"
	hello := Hello{Benchmark: "gcc", Predictor: &over}

	c, tap := dialTap(t, addr, hello, true)
	defer c.Close()
	if c.Session().IndirectOnly {
		t.Fatal("tcache session granted elision")
	}
	sum, err := c.Stream(tr, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != len(tr) {
		t.Fatalf("summary counts %d records, trace holds %d", sum.Records, len(tr))
	}

	var want bytes.Buffer
	want.WriteString(Preamble)
	want.WriteByte(ProtocolVersion)
	fw := trace.NewFrameWriter(&want)
	fw.WriteFrame(FrameHello, marshalJSON(hello))
	for seq, start := uint64(1), 0; start < len(tr); seq, start = seq+1, start+frame {
		fw.WriteFrame(FrameRecords, appendRecordsFrame(nil, seq, tr[start:min(start+frame, len(tr))]))
	}
	fw.WriteFrame(FrameDone, nil)
	fw.Flush()
	if !bytes.Equal(tap.sent.Bytes(), want.Bytes()) {
		t.Fatalf("client sent %d bytes, full-frame encoding is %d bytes", tap.sent.Len(), want.Len())
	}
	sha := sha256.Sum256(tap.sent.Bytes())
	if got := hex.EncodeToString(sha[:]); got != condConsumerStreamSHA256 {
		t.Fatalf("client stream SHA-256 %s, pinned %s", got, condConsumerStreamSHA256)
	}
}

// expectWireError sends one raw frame on c and requires the server to end
// the session with an Error frame carrying code.
func expectWireError(t *testing.T, c *Client, typ uint64, payload []byte, code string) {
	t.Helper()
	if err := c.WriteFrame(typ, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	if f.Type != FrameError {
		t.Fatalf("frame type %#x, want FrameError", f.Type)
	}
	var we WireError
	if err := unmarshalPayload(f.Payload, &we); err != nil {
		t.Fatal(err)
	}
	if we.Code != code {
		t.Fatalf("error %q (%s), want code %q", we.Code, we.Msg, code)
	}
}

// TestServeRejectsUngrantedIndirectFrame: a FrameIndirect on a session that
// was not granted elision would drop records its predictor reads, so the
// session fails instead of skipping the frame.
func TestServeRejectsUngrantedIndirectFrame(t *testing.T) {
	_, addr := startServer(t, Config{})
	over := defaultFlags()
	over.Pred = "tcache"
	c, err := Dial(addr, Hello{Predictor: &over}, DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := benchTrace(t, "gcc", 4000)
	expectWireError(t, c, FrameIndirect, appendIndirectFrame(nil, 1, tr[:500]), CodeBadFrame)
}

// TestServeRejectsLogicalCountBelowChunk: an elided frame may leave records
// out, never claim fewer than it carries.
func TestServeRejectsLogicalCountBelowChunk(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := Dial(addr, Hello{}, DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ind := benchTrace(t, "gcc", 4000).Indirect()
	payload := binary.AppendUvarint(nil, 1)
	payload = binary.AppendUvarint(payload, 9)
	payload = trace.AppendRecords(payload, ind[:10])
	expectWireError(t, c, FrameIndirect, payload, CodeBadFrame)
}

// TestServeRejectsLogicalCountOverLimit: the logical count obeys the
// session's MaxFrameRecords like a full frame's chunk does.
func TestServeRejectsLogicalCountOverLimit(t *testing.T) {
	_, addr := startServer(t, Config{MaxFrameRecords: 1000})
	c, err := Dial(addr, Hello{}, DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ind := benchTrace(t, "gcc", 4000).Indirect()
	payload := binary.AppendUvarint(nil, 1)
	payload = binary.AppendUvarint(payload, 1001)
	payload = trace.AppendRecords(payload, ind[:10])
	expectWireError(t, c, FrameIndirect, payload, CodeBadFrame)
}

// FuzzIndirectFrame drives the FrameIndirect payload decoder — the part of
// an elided frame the server's reader parses off an untrusted socket — over
// arbitrary bytes: it must never panic, every rejection must be typed
// (truncation or bad format), and an accepted frame whose chunk decodes
// must carry no more records than its logical count and re-encode to the
// same seq, count and records.
func FuzzIndirectFrame(f *testing.F) {
	tr := trace.Trace{
		{PC: 0x1000, Target: 0x2000, Kind: trace.Cond, Gap: 2},
		{PC: 0x1004, Target: 0x3000, Kind: trace.VirtualCall, Gap: 3},
		{PC: 0x1010, Target: 0x2000, Kind: trace.Return, Gap: 1},
		{PC: 0x1020, Target: 0x4000, Kind: trace.SwitchJump, Gap: 9},
	}
	f.Add(appendIndirectFrame(nil, 1, tr))
	f.Add(appendIndirectFrame(nil, 1<<40, tr[:1]))
	f.Add(appendIndirectFrame(nil, 3, nil))
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00})
	f.Add([]byte{})
	const maxRecords = 64
	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, logical, chunk, err := splitIndirectFrame(payload, maxRecords)
		if err != nil {
			if !errors.Is(err, trace.ErrBadFormat) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		if logical < 0 || logical > maxRecords {
			t.Fatalf("accepted logical count %d outside [0, %d]", logical, maxRecords)
		}
		recs, err := trace.DecodeRecords(chunk, maxRecords)
		if err != nil {
			return // the worker's iteration rejects it
		}
		if len(recs) > logical {
			t.Fatalf("accepted chunk of %d records under logical count %d", len(recs), logical)
		}
		again := binary.AppendUvarint(nil, seq)
		again = binary.AppendUvarint(again, uint64(logical))
		again = trace.AppendRecords(again, recs)
		seq2, logical2, chunk2, err := splitIndirectFrame(again, maxRecords)
		if err != nil || seq2 != seq || logical2 != logical {
			t.Fatalf("re-encoded frame: seq %d logical %d err %v, want seq %d logical %d", seq2, logical2, err, seq, logical)
		}
		back, err := trace.DecodeRecords(chunk2, maxRecords)
		if err != nil || len(back) != len(recs) {
			t.Fatalf("re-encoded chunk decodes to %d records (%v), want %d", len(back), err, len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
			}
		}
	})
}
