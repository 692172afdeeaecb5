package tracestore

import (
	"testing"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/simtime"
	"microscope/internal/traffic"
)

// evalTrace runs the paper's 16-NF evaluation topology under rate for dur
// (plus a drain) and returns the collected trace.
func evalTrace(tb testing.TB, seed int64, rate simtime.Rate, dur simtime.Duration) *collector.Trace {
	tb.Helper()
	col := collector.New(collector.Config{})
	topo := nfsim.BuildEvalTopology(col, nfsim.EvalTopologyConfig{Seed: seed})
	mix := traffic.NewMix(traffic.MixConfig{Seed: seed + 1})
	topo.Sim.LoadSchedule(traffic.Generate(mix, traffic.ScheduleConfig{Rate: rate, Duration: dur, Seed: seed + 2}))
	topo.Sim.Run(simtime.Time(dur + 2*simtime.Millisecond))
	return col.Trace(collector.MetaOf(topo.Sim))
}

// shiftedRecords copies recs into dst with every timestamp moved on by d;
// the IPID and tuple payloads are shared.
func shiftedRecords(dst, recs []collector.BatchRecord, d simtime.Duration) []collector.BatchRecord {
	dst = append(dst[:0], recs...)
	for i := range dst {
		dst[i].At = dst[i].At.Add(d)
	}
	return dst
}

// BenchmarkSeal seals one 2 ms segment of the 16-NF topology at 1.2 Mpps
// over and over through one warmed stream — the steady state of msserve's
// feed goroutine on serve-bulk-sat. Window 2 ms with no overlap makes each
// Advance seal exactly that segment and retire the one before the last, so
// shells come off the free list. ns/record is the figure to watch; B/op
// and allocs/op are per sealed segment.
func BenchmarkSeal(b *testing.B) {
	const window = 2 * simtime.Millisecond
	tr := evalTrace(b, 1, simtime.MPPS(1.2), window)
	var seg []collector.BatchRecord
	for _, r := range tr.Records {
		if r.At > 0 && r.At < simtime.Time(window) {
			seg = append(seg, r)
		}
	}
	s, err := NewStream(tr.Meta, StreamConfig{Window: window})
	if err != nil {
		b.Fatal(err)
	}
	var recs []collector.BatchRecord
	k := simtime.Time(0)
	advance := func() {
		recs = shiftedRecords(recs, seg, simtime.Duration(k)*window)
		k++
		s.Advance(k*simtime.Time(window), recs)
	}
	for i := 0; i < 4; i++ {
		advance()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance()
	}
	b.StopTimer()
	if st := s.Stats(); st.Records != int64(len(seg))*int64(k) || st.Journeys == 0 {
		b.Fatalf("sealed %d records, %d journeys; want %d records", st.Records, st.Journeys, int64(len(seg))*int64(k))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(seg)), "ns/record")
	b.ReportMetric(float64(len(seg)), "records/op")
}
