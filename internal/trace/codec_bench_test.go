package trace_test

import (
	"testing"

	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// benchEncode times enc over the gcc benchmark trace (32 conditional records
// padded around each indirect branch) in 2048-record frames, the streaming
// client's frame size, reporting ns per indirect branch.
func benchEncode(b *testing.B, enc func([]byte, []trace.Record) []byte) {
	wl, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	tr := wl.MustGenerate(20000)
	buf := make([]byte, 0, 2048*16+32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < len(tr); s += 2048 {
			buf = enc(buf[:0], tr[s:min(s+2048, len(tr))])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Indirect())), "ns/indirect")
}

// BenchmarkAppendRecords is the full-frame encoder (every record).
func BenchmarkAppendRecords(b *testing.B) { benchEncode(b, trace.AppendRecords) }

// BenchmarkAppendIndirectRecords is the elided-frame encoder (indirect
// records only, filtered in the same pass).
func BenchmarkAppendIndirectRecords(b *testing.B) { benchEncode(b, trace.AppendIndirectRecords) }
