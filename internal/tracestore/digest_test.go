package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"microscope/internal/collector"
	"microscope/internal/faults"
	"microscope/internal/simtime"
)

// storeDump feeds a canonical binary dump of a made store to a hash: the
// interner, every view's arrivals, reads and period search arrays, the
// journeys with their hops, the delay moments, the sorted delivered
// latencies, the trace end, the reconstruction counters and the health.
// The digests below were taken from the code before derive's hot loops
// were rewritten, and hold every rewrite since to the same stores.
type storeDump struct {
	h   hash.Hash
	buf []byte
}

func (d *storeDump) int(v int64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	if len(d.buf) >= 4096 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *storeDump) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *storeDump) str(s string) {
	d.int(int64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *storeDump) times(ts []simtime.Time) {
	d.int(int64(len(ts)))
	for _, t := range ts {
		d.int(int64(t))
	}
}

func (d *storeDump) store(s *Store) {
	d.int(int64(len(s.names)))
	for id, v := range s.views {
		d.str(s.names[id])
		d.int(int64(len(v.Arrivals)))
		for _, a := range v.Arrivals {
			d.int(int64(a.At))
			d.int(int64(a.Journey))
			d.int(int64(a.From))
			d.int(int64(a.IPID))
			d.bool(a.Quarantined)
		}
		d.int(int64(len(v.Reads)))
		for _, r := range v.Reads {
			d.int(int64(r.At))
			d.int(int64(r.N))
			d.bool(r.Drained)
			d.int(int64(r.FirstEntry))
		}
		pi := &v.pidx
		d.times(pi.arrivalTimes)
		d.times(pi.drainTimes)
		d.times(pi.readTimes)
		d.int(int64(len(pi.readCum)))
		for _, c := range pi.readCum {
			d.int(int64(c))
		}
	}
	d.int(int64(len(s.Journeys)))
	for i := range s.Journeys {
		j := &s.Journeys[i]
		d.int(int64(j.IPID))
		t := j.Tuple
		d.int(int64(t.SrcIP)<<32 | int64(t.DstIP))
		d.int(int64(t.SrcPort)<<24 | int64(t.DstPort)<<8 | int64(t.Proto))
		d.bool(j.HasTuple)
		d.int(int64(j.EmittedAt))
		d.bool(j.Delivered)
		d.bool(j.Quarantined)
		d.int(int64(len(j.Hops)))
		for _, h := range j.Hops {
			d.int(int64(h.Comp))
			d.int(int64(h.ArriveAt))
			d.int(int64(h.ReadAt))
			d.int(int64(h.DepartAt))
			d.int(int64(h.ReadEvent))
			d.int(int64(h.Arrival))
		}
	}
	d.int(int64(len(s.moments)))
	for _, m := range s.moments {
		d.str(fmt.Sprintf("%+v", m)) // every field, unexported ones included
	}
	d.int(int64(len(s.latRun)))
	for _, l := range s.latRun {
		d.int(int64(math.Float64bits(l)))
	}
	d.int(int64(s.traceEnd))
	d.str(s.Health().String())
	h := s.Health()
	for _, v := range []int{
		h.Records, h.Journeys,
		h.Integrity.DecodeSkipped, h.Integrity.DecodeResyncs, h.Integrity.Resorted, h.Integrity.DroppedRecords, h.Integrity.TruncatedRecords,
		h.Recon.Matched, h.Recon.Reordered, h.Recon.LookaheadFix, h.Recon.Unmatched, h.Recon.DupCollisions, h.Recon.Quarantined,
	} {
		d.int(int64(v))
	}
}

func (d *storeDump) sum() string {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(d.h.Sum(nil))[:16]
}

func newStoreDump() *storeDump { return &storeDump{h: sha256.New()} }

// digestTraces is the eval trace, clean and with each of the faults that
// change what reconstruction sees: records delivered late (reorder), lost
// (drop) and re-emitted so that IPIDs repeat (dup); and the clean trace
// with every IPID cut to four bits (narrow), so that upstream heads
// collide and the order side channel and quarantine have work.
func digestTraces(t *testing.T) []struct {
	name string
	tr   *collector.Trace
} {
	eval := evalTrace(t, 4, simtime.MPPS(1.2), simtime.Duration(4*simtime.Millisecond))
	out := []struct {
		name string
		tr   *collector.Trace
	}{{"clean", eval}}
	for _, f := range []struct {
		name string
		cfg  faults.Config
	}{
		{"reorder", faults.Config{Seed: 11, ReorderRate: 0.05}},
		{"drop", faults.Config{Seed: 12, DropRate: 0.02, BurstDropRate: 0.002}},
		{"dup", faults.Config{Seed: 13, DupRate: 0.03}},
	} {
		damaged, _ := faults.Inject(eval, f.cfg)
		out = append(out, struct {
			name string
			tr   *collector.Trace
		}{f.name, damaged})
	}
	narrow := *eval
	narrow.Records = slices.Clone(eval.Records)
	for i := range narrow.Records {
		r := &narrow.Records[i]
		r.IPIDs = slices.Clone(r.IPIDs)
		for k := range r.IPIDs {
			r.IPIDs[k] &= 0xf
		}
	}
	return append(out, struct {
		name string
		tr   *collector.Trace
	}{"narrow", &narrow})
}

// TestBuildDigest pins Build's whole output over the eval trace, clean and
// damaged, beyond what a diagnosis fingerprint sees.
func TestBuildDigest(t *testing.T) {
	want := map[string]string{
		"clean":   "c7c7b70d91eece84",
		"reorder": "77fddb267e1603ca",
		"drop":    "44dffa6574a39de1",
		"dup":     "4166c857656a4885",
		"narrow":  "13c2925c860bebf7",
	}
	for _, c := range digestTraces(t) {
		d := newStoreDump()
		d.store(Build(c.tr))
		if got := d.sum(); got != want[c.name] {
			t.Errorf("%s: store digest %s, want %s", c.name, got, want[c.name])
		}
	}
}

// TestSealDigest pins the segments a stream seals over the same traces:
// each segment's grid span, record count, size estimate and store, and
// the stream's cumulative stats.
func TestSealDigest(t *testing.T) {
	want := map[string]string{
		"clean":   "80886fda1bfb5621",
		"reorder": "bd217cfe97dcff33",
		"drop":    "4c546e82ac9de394",
		"dup":     "3fc9fd642c55f5da",
		"narrow":  "bcfa171e60433719",
	}
	const w, o = 500 * simtime.Microsecond, 250 * simtime.Microsecond
	for _, c := range digestTraces(t) {
		s, err := NewStream(c.tr.Meta, StreamConfig{Window: w, Overlap: o})
		if err != nil {
			t.Fatal(err)
		}
		d := newStoreDump()
		for end := simtime.Time(w); end <= simtime.Time(6*simtime.Millisecond); end += simtime.Time(w) {
			st := s.Advance(end, c.tr.Records)
			for _, g := range s.segs[len(s.segs)-st.SealedSegments:] {
				d.int(int64(g.lo))
				d.int(int64(g.hi))
				d.bool(g.point)
				d.int(int64(len(g.records)))
				d.int(g.bytes)
				d.store(g.st)
			}
			d.int(st.Records)
			d.int(st.Journeys)
			d.int(st.RetainedBytes)
			d.int(int64(st.Recon.Unmatched))
			d.int(int64(st.Integrity.Resorted))
		}
		if got := d.sum(); got != want[c.name] {
			t.Errorf("%s: sealed segments digest %s, want %s", c.name, got, want[c.name])
		}
	}
}

// TestSortInts holds summarize's radix sort to slices.Sort: empty and
// single-value inputs, repeats, spans of every width up to the whole int64
// range, and negative latencies (skewed clocks).
func TestSortInts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 100, 2500} {
		for _, span := range []int64{1, 2, 255, 256, 1 << 20, 1 << 40, math.MaxInt64} {
			a := make([]int64, n)
			for i := range a {
				a[i] = rng.Int63n(span) - span/2
				if i%97 == 3 {
					a[i] = math.MinInt64
				} else if i%89 == 5 {
					a[i] = math.MaxInt64
				}
			}
			want := slices.Clone(a)
			slices.Sort(want)
			got := sortInts(slices.Clone(a), make([]int64, n))
			if !slices.Equal(got, want) {
				t.Fatalf("%d values over a span of %d: sorted wrong", n, span)
			}
		}
	}
}
