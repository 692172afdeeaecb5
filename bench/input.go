package main

import (
	"encoding/json"
	"math/rand"
	"sort"

	"microscope"
	"microscope/internal/collector"
)

// Simulated traffic of every generated trace: the paper's 16-NF
// evaluation topology under 1.2 Mpps, one injected fault per slot (a trace
// shorter than a slot is one slot).
const (
	trafficMpps = 1.2
	injectSlot  = 10 * microscope.Millisecond
	drainTime   = 20 * microscope.Millisecond
	// burstGap spaces an injected burst's packets; with it a burst's
	// duration is known to the ground truth.
	burstGap = 400 * microscope.Nanosecond
	// hitSlack widens the ground-truth interval an alert's onset must
	// fall in.
	hitSlack = microscope.Millisecond
)

// injection is one fault the harness put into a trace: ground truth for
// the culprit check. Comp is the interrupted NF, or the source for a burst.
type injection struct {
	Comp string
	At   microscope.Time
	Dur  microscope.Duration
}

// lap is one generated trace. Long runs replay it with every timestamp
// moved on by period per replay.
type lap struct {
	meta   microscope.TraceMeta
	recs   []collector.BatchRecord
	inj    []injection
	period microscope.Duration
}

// genLap simulates dur of traffic (plus the drain) on the evaluation
// topology. Every random choice comes from seed. Slots alternate between an
// interrupt of a random NF and a burst of a random flow, each at a random
// offset in its slot's second quarter so the rest of the slot shows its
// effect.
func genLap(seed int64, dur microscope.Duration) *lap {
	rng := rand.New(rand.NewSource(seed + 1000))
	dep := microscope.NewEvalDeployment(microscope.EvalTopologyConfig{Seed: seed})
	wl := microscope.NewWorkload(microscope.WorkloadConfig{
		Rate:     microscope.MPPS(trafficMpps),
		Duration: dur,
		Seed:     seed + 1,
	})
	nfs := dep.NFs()
	l := &lap{period: dur + drainTime}
	slot := min(injectSlot, dur)
	for s := 0; s < int(dur/slot); s++ {
		off := slot/4 + microscope.Duration(rng.Int63n(int64(slot/4)))
		at := microscope.Time(microscope.Duration(s)*slot + off)
		if s%2 == 0 {
			nf := nfs[rng.Intn(len(nfs))]
			d := 500*microscope.Microsecond + microscope.Duration(rng.Int63n(int64(500*microscope.Microsecond)))
			dep.InjectInterrupt(nf, at, d)
			l.inj = append(l.inj, injection{Comp: nf, At: at, Dur: d})
		} else {
			count := 500 + rng.Intn(2000)
			wl.InjectBurst(microscope.Burst{At: at, Flow: wl.PickFlow(rng.Intn(1024)), Count: count, Gap: burstGap})
			l.inj = append(l.inj, injection{Comp: collector.SourceName, At: at, Dur: microscope.Duration(count) * burstGap})
		}
	}
	dep.Replay(wl)
	dep.Run(l.period)
	tr := dep.Trace()
	l.meta, l.recs = tr.Meta, tr.Records
	return l
}

// shifted copies recs into dst with every timestamp moved on by shift. The
// IPID and tuple slices are shared with recs, not copied.
func shifted(dst, recs []collector.BatchRecord, shift microscope.Duration) []collector.BatchRecord {
	dst = append(dst[:0], recs...)
	for i := range dst {
		dst[i].At = dst[i].At.Add(shift)
	}
	return dst
}

// bodies cuts an endless replay of a lap into request bodies of n records.
// Body i is body i%perLap of replay i/perLap; the last body of a replay may
// be short, so a body never spans two replays.
type bodies struct {
	lap    *lap
	n      int
	perLap int
	// lastAt[b] is the newest timestamp in body b of the first replay.
	lastAt  []microscope.Time
	scratch []collector.BatchRecord
}

func newBodies(l *lap, n int) *bodies {
	b := &bodies{lap: l, n: n, perLap: (len(l.recs) + n - 1) / n}
	for i := 0; i < b.perLap; i++ {
		b.lastAt = append(b.lastAt, l.recs[min((i+1)*n, len(l.recs))-1].At)
	}
	return b
}

// records returns body i's records. The slice is reused by the next call.
func (b *bodies) records(i int) []collector.BatchRecord {
	k, j := i/b.perLap, i%b.perLap
	lo, hi := j*b.n, min((j+1)*b.n, len(b.lap.recs))
	b.scratch = shifted(b.scratch, b.lap.recs[lo:hi], microscope.Duration(k)*b.lap.period)
	return b.scratch
}

// recordsBefore counts the records in bodies 0..i-1.
func (b *bodies) recordsBefore(i int) int {
	return i/b.perLap*len(b.lap.recs) + min(i%b.perLap*b.n, len(b.lap.recs))
}

// closing returns the first body holding a record newer than end: the body
// whose arrival lets the monitor close the window ending at end.
func (b *bodies) closing(end microscope.Time) int {
	k := int(microscope.Duration(end) / b.lap.period)
	e := end - microscope.Time(microscope.Duration(k)*b.lap.period)
	j := sort.Search(b.perLap, func(j int) bool { return b.lastAt[j] > e })
	// j == perLap: the replay has nothing newer, so the next replay's
	// first body closes the window; k*perLap+perLap is that body.
	return k*b.perLap + j
}

// encodeMST2 renders records as one self-contained MST2 stream.
func encodeMST2(recs []collector.BatchRecord) []byte {
	enc := collector.NewEncoder()
	for i := range recs {
		enc.Append(&recs[i])
	}
	return enc.Bytes()
}

// encodeJSON renders records as the JSON array msserve documents for curl.
func encodeJSON(recs []collector.BatchRecord) []byte {
	b, err := json.Marshal(recs)
	if err != nil {
		panic(err) // BatchRecord holds only numbers and strings
	}
	return b
}
