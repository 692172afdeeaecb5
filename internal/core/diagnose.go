package core

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"microscope/internal/obs"
	"microscope/internal/par"
	"microscope/internal/resilience"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// Engine runs Microscope diagnosis over a reconstructed trace store. It is
// safe for concurrent use; per-victim diagnoses fan out over a bounded
// worker pool (Config.Workers) and share one memoized view of the trace.
type Engine struct {
	cfg Config

	// mu guards the per-store memo below (see memo.go) and spare.
	mu        sync.Mutex
	memoStore *tracestore.Store
	memoGen   uint64
	memo      *diagMemo
	// spare holds the scratch arenas no call is using. A run takes one per
	// worker and gives them all back when it ends, so the list holds at most
	// as many arenas as the engine's calls have ever used at once.
	spare []*workerArena

	// panics counts victims quarantined by the ContainPanics boundary.
	panics atomic.Int64
}

// NewEngine creates a diagnosis engine.
func NewEngine(cfg Config) *Engine {
	cfg.setDefaults()
	return &Engine{cfg: cfg}
}

// diagnoser is per-run state: the engine config bound to one store and
// memo. Its methods are safe to call from many goroutines at once.
type diagnoser struct {
	cfg  Config
	st   *tracestore.Store
	memo *diagMemo
	// src is the interned traffic source (NoComp when the trace has none).
	src tracestore.CompID
	// walkedN counts the arrivals this run added to the memo's
	// busy-period walks (walk.go).
	walkedN atomic.Int64

	// Observability handles, all nil (zero-cost no-ops) when neither the
	// config nor the process default carries a registry.
	victims       *obs.Counter
	victimNS      *obs.Histogram
	victimPanics  *obs.Counter
	walked        *obs.Counter
	memoHits      *obs.Counter
	memoMisses    *obs.Counter
	memoReused    *obs.Counter
	scratchNew    *obs.Counter
	scratchReused *obs.Counter
	tracer        *obs.Tracer
}

// newDiagnoser binds the engine to a store, warming its §7 timelines for
// the engine's queue threshold before any goroutine queries them.
func (e *Engine) newDiagnoser(st *tracestore.Store) *diagnoser {
	st.WarmQueueThreshold(e.cfg.QueueThreshold)
	d := &diagnoser{
		cfg:  e.cfg,
		st:   st,
		memo: e.memoFor(st),
		src:  st.SourceID(),
	}
	if reg := obs.Or(e.cfg.Obs); reg != nil {
		d.victims = reg.Counter("microscope_diag_victims_total")
		d.victimNS = reg.Histogram("microscope_diag_victim_ns")
		d.victimPanics = reg.Counter("microscope_diag_victim_panics_total")
		d.walked = reg.Counter("microscope_diag_arrivals_walked_total")
		d.memoHits = reg.Counter("microscope_diag_memo_hits_total")
		d.memoMisses = reg.Counter("microscope_diag_memo_misses_total")
		d.memoReused = reg.Counter("microscope_stream_memo_reused_hits_total")
		d.scratchNew = reg.Counter("microscope_diag_scratch_new_total")
		d.scratchReused = reg.Counter("microscope_diag_scratch_reused_total")
		d.tracer = reg.Tracer()
	}
	return d
}

// bookWalks counts, once a run's workers have joined, the arrivals the
// run walked.
func (d *diagnoser) bookWalks() {
	d.walked.Add(d.walkedN.Load())
}

// takeArena lends a caller a scratch arena for the length of a run (or a
// one-shot call): a spare one when the engine has it, else a new one. The
// scratch counters record which.
func (e *Engine) takeArena(d *diagnoser) *workerArena {
	var a *workerArena
	e.mu.Lock()
	if n := len(e.spare); n > 0 {
		a = e.spare[n-1]
		e.spare[n-1] = nil
		e.spare = e.spare[:n-1]
	}
	e.mu.Unlock()
	if a == nil {
		d.scratchNew.Add(1)
		return new(workerArena)
	}
	d.scratchReused.Add(1)
	return a
}

// putArenas returns lent arenas to the engine's spares.
func (e *Engine) putArenas(as ...*workerArena) {
	e.mu.Lock()
	e.spare = append(e.spare, as...)
	e.mu.Unlock()
}

// Diagnose selects victims and produces a ranked diagnosis for each,
// fanning the per-victim causal analyses out over the worker pool. Results
// are merged in victim order, so the output is byte-identical for any
// worker count.
func (e *Engine) Diagnose(st *tracestore.Store) []Diagnosis {
	d := e.newDiagnoser(st)
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is DiagnoseVictimsContext
	out, _ := e.diagnoseAll(context.Background(), d, d.findVictims())
	return out
}

// DiagnoseVictims diagnoses an externally chosen victim list (the paper's
// "operators define the victim packets" mode) with the same parallel
// fan-out as Diagnose. Output order matches the input victim order.
func (e *Engine) DiagnoseVictims(st *tracestore.Store, victims []Victim) []Diagnosis {
	//mslint:allow ctxflow non-ctx convenience wrapper; cancellable path is DiagnoseVictimsContext
	out, _ := e.diagnoseAll(context.Background(), e.newDiagnoser(st), victims)
	return out
}

// DiagnoseVictimsContext is DiagnoseVictims with cooperative cancellation:
// a cancelled context stops the per-victim fan-out promptly and returns
// ctx's error alongside the partial output — slots for victims never
// diagnosed are zero-valued Diagnoses.
func (e *Engine) DiagnoseVictimsContext(ctx context.Context, st *tracestore.Store, victims []Victim) ([]Diagnosis, error) {
	return e.diagnoseAll(ctx, e.newDiagnoser(st), victims)
}

// diagnoseAll is the diagnosis fan-out: workers claim victims one at a
// time, each worker reusing one engine-owned scratch arena for its whole
// share of the run, and every result lands in its victim's slot. Output is
// byte-identical for every worker count: each victim's diagnosis is a pure
// function of the victim over the immutable store and memo, and the slot
// it is written to is the victim's index, whichever worker computed it.
// At one worker the loop runs inline, in victim order.
func (e *Engine) diagnoseAll(ctx context.Context, d *diagnoser, victims []Victim) ([]Diagnosis, error) {
	out := make([]Diagnosis, len(victims))
	if len(victims) == 0 {
		return out, ctx.Err()
	}
	arenas := make([]*workerArena, par.Workers(e.cfg.Workers, len(victims)))
	for w := range arenas {
		arenas[w] = e.takeArena(d)
	}
	defer e.putArenas(arenas...)
	err := par.DoWorkersCtx(ctx, len(victims), len(arenas), func(w, i int) {
		out[i] = e.diagnoseContained(d, victims, i, arenas[w])
	})
	d.bookWalks()
	return out, err
}

// diagnoseOne runs one victim's diagnosis (by index, so the chaos hook and
// containment quarantine stay keyed on the victim, not the worker) against
// a caller-owned arena.
func (e *Engine) diagnoseOne(d *diagnoser, victims []Victim, i int, a *workerArena) Diagnosis {
	if e.cfg.ChaosHook != nil {
		e.cfg.ChaosHook("victim:" + strconv.Itoa(i))
	}
	return d.diagnoseVictim(victims[i], a)
}

// diagnoseContained wraps diagnoseOne in the crash-containment boundary
// when ContainPanics is set: a panic quarantines that one victim — its slot
// keeps the Victim with no causes — and the rest of the run never notices.
// Quarantine is deterministic: whether a given victim panics depends only
// on the victim, not on worker scheduling. The worker's arena stays safe
// across a contained panic because every victim's diagnosis begins by
// resetting it.
func (e *Engine) diagnoseContained(d *diagnoser, victims []Victim, i int, a *workerArena) Diagnosis {
	if !e.cfg.ContainPanics {
		return e.diagnoseOne(d, victims, i, a)
	}
	diag := Diagnosis{Victim: victims[i]}
	e.contain(d, "victim", func() { diag = e.diagnoseOne(d, victims, i, a) })
	return diag
}

// contain runs fn inside the crash-containment boundary when ContainPanics
// is set, else plainly. A contained panic is counted, and whatever fn had
// not yet assigned keeps the value the caller gave it.
func (e *Engine) contain(d *diagnoser, scope string, fn func()) {
	if !e.cfg.ContainPanics {
		fn()
		return
	}
	if err := resilience.Contain(scope, fn); err != nil {
		e.panics.Add(1)
		d.victimPanics.Add(1)
	}
}

// chaos fires the chaos hook, if one is set, with the given scope.
func (e *Engine) chaos(scope string) {
	if e.cfg.ChaosHook != nil {
		e.cfg.ChaosHook(scope)
	}
}

// ContainedPanics returns how many panics this engine's ContainPanics
// boundary caught over its lifetime: one per quarantined victim or
// explanation, and one per victim selection that came back empty.
func (e *Engine) ContainedPanics() int64 { return e.panics.Load() }

// FindVictims exposes victim selection on its own (used by tests and by the
// evaluation harness). With ContainPanics a panic in it is contained and
// counted, and no victims are returned.
func (e *Engine) FindVictims(st *tracestore.Store) []Victim {
	d := e.newDiagnoser(st)
	var victims []Victim
	e.contain(d, "victims", func() {
		e.chaos("victims")
		victims = d.findVictims()
	})
	return victims
}

// DiagnoseVictim diagnoses a single victim, as victim 0 of a one-victim
// run: with ContainPanics a panic in it is contained and counted, and the
// victim comes back with no causes.
func (e *Engine) DiagnoseVictim(st *tracestore.Store, v Victim) Diagnosis {
	d := e.newDiagnoser(st)
	a := e.takeArena(d)
	defer e.putArenas(a)
	defer d.bookWalks()
	return e.diagnoseContained(d, []Victim{v}, 0, a)
}

// findVictims implements the victim selection of §4: delivered packets
// beyond the latency percentile, and packets whose records vanish (losses).
// For each victim we pick the NFs on its path whose local queueing delay is
// abnormal — more than k standard deviations beyond that NF's typical delay
// (NetMedic-style recent-history test, §4.1).
func (d *diagnoser) findVictims() []Victim {
	js := d.st.Journeys
	if len(js) == 0 {
		return nil
	}
	// Per-NF queue-delay statistics, the latency threshold, and the trace
	// end come from the store's frozen summaries instead of an O(trace)
	// rescan per call.
	threshold := d.st.LatencyPercentile(d.cfg.VictimPercentile)
	traceEnd := d.st.TraceEnd()

	// Degraded trace health means vanished records are more likely
	// telemetry loss than packet loss; classifying them as loss victims
	// would blame phantom drops, so suppress that class unless forced.
	lossOK := d.cfg.LossVictimsWhenDegraded || !d.st.Health().Degraded()

	var victims []Victim
	for i := range js {
		j := &js[i]
		switch {
		case j.Delivered && float64(j.Latency()) >= threshold && threshold > 0:
			victims = d.victimHops(victims, i, j, VictimLatency)
		case !j.Delivered && lossOK && !j.Quarantined:
			// Ignore packets merely in flight at trace end.
			lastSeen := j.EmittedAt
			for h := range j.Hops {
				if t := j.Hops[h].ReadAt; t > lastSeen {
					lastSeen = t
				}
				if t := j.Hops[h].DepartAt; t > lastSeen {
					lastSeen = t
				}
			}
			if traceEnd.Sub(lastSeen) < traceEndSlack {
				continue
			}
			// A drop happens at the enqueue onto the NEXT queue:
			// the packet's records end at the last NF that read
			// it. Diagnose at the downstream queue it most
			// plausibly died in — the fullest one at that moment.
			if len(j.Hops) == 0 {
				continue
			}
			last := j.Hops[len(j.Hops)-1]
			comp, at := last.Comp, last.ArriveAt
			if last.ReadAt != 0 {
				best, bestLen := tracestore.NoComp, -1
				for _, dn := range d.st.DownstreamsID(last.Comp) {
					if l := d.st.QueueLenAtID(dn, lastSeen); l > bestLen {
						best, bestLen = dn, l
					}
				}
				if best != tracestore.NoComp {
					comp, at = best, lastSeen
				}
			}
			victims = append(victims, Victim{
				Journey:    i,
				Comp:       d.st.CompName(comp),
				ArriveAt:   at,
				QueueDelay: lastSeen.Sub(last.ArriveAt),
				Kind:       VictimLoss,
				Tuple:      j.Tuple,
				HasTuple:   j.HasTuple,
			})
		}
	}
	// Apply the victim cap by even sampling across the whole run rather
	// than truncating: a prefix cut would bias diagnosis toward the
	// earliest problems and silently drop later ones.
	if d.cfg.MaxVictims > 0 && len(victims) > d.cfg.MaxVictims {
		sampled := make([]Victim, 0, d.cfg.MaxVictims)
		step := float64(len(victims)) / float64(d.cfg.MaxVictims)
		for k := 0; k < d.cfg.MaxVictims; k++ {
			sampled = append(sampled, victims[int(float64(k)*step)])
		}
		victims = sampled
	}
	return victims
}

// victimHops appends the abnormal hops of a latency victim to out.
func (d *diagnoser) victimHops(out []Victim, idx int, j *tracestore.Journey, kind VictimKind) []Victim {
	n := len(out)
	var maxHop *tracestore.JourneyHop
	var maxDelay simtime.Duration = -1
	for h := range j.Hops {
		hop := &j.Hops[h]
		if hop.ReadAt == 0 {
			continue
		}
		delay := hop.ReadAt.Sub(hop.ArriveAt)
		if delay > maxDelay {
			maxDelay = delay
			maxHop = hop
		}
		w := d.st.DelayStatsID(hop.Comp)
		if w != nil && w.Abnormal(float64(delay), abnormalStdDevs, 32) {
			out = append(out, Victim{
				Journey:    idx,
				Comp:       d.st.CompName(hop.Comp),
				ArriveAt:   hop.ArriveAt,
				QueueDelay: delay,
				Kind:       kind,
				Tuple:      j.Tuple,
				HasTuple:   j.HasTuple,
			})
		}
	}
	// Fall back to the dominant hop so every victim is diagnosable.
	if len(out) == n && maxHop != nil {
		out = append(out, Victim{
			Journey:    idx,
			Comp:       d.st.CompName(maxHop.Comp),
			ArriveAt:   maxHop.ArriveAt,
			QueueDelay: maxDelay,
			Kind:       kind,
			Tuple:      j.Tuple,
			HasTuple:   j.HasTuple,
		})
	}
	return out
}

// causeKey merges recursion branches blaming the same culprit.
type causeKey struct {
	comp tracestore.CompID
	kind CulpritKind
}

// slot returns the key's index into the scratch slot tables: CompIDs are
// dense and CulpritKind has two values, so (comp, kind) flattens to
// comp*2+kind.
func (k causeKey) slot() int { return int(k.comp)*2 + int(k.kind) }

// maxCulpritJourneys bounds the per-cause journey union.
const maxCulpritJourneys = 4096

// causeAcc is one accumulating cause inside the scratch: the Cause fields
// minus the string conversion, with a reusable journey buffer.
type causeAcc struct {
	key      causeKey
	score    float64
	at       simtime.Time
	journeys []int
}

// victimScratch is the per-victim cause accumulator of a worker arena. The
// recursion writes into it, diagnoseVictim copies the surviving causes out
// (they escape into the report), and the arena is reused for the worker's
// next victim — steady-state diagnosis allocates only what it returns.
//
// Lookup is a generation-stamped slot array indexed by causeKey.slot()
// instead of a map: reset between victims is amortized O(1) (bump the
// generation; stale stamps become invisible), where clearing a map is O(its
// population) per victim.
type victimScratch struct {
	gen     uint32
	slotGen []uint32 // generation at which slot was last written
	slots   []int32  // slot -> index into accs, valid iff slotGen matches gen
	accs    []causeAcc
}

// reset retires all accumulated causes in O(1): the generation bump makes
// every slot stamp stale. Retired causeAcc slots keep their journey buffer
// capacity for reuse. Generation 0 is never live (a zeroed stamp must not
// look current), so the counter skips it on wrap.
func (sc *victimScratch) reset() {
	sc.accs = sc.accs[:0]
	sc.gen++
	if sc.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(sc.slotGen)
		sc.gen = 1
	}
}

// grow ensures the slot tables cover index si.
func (sc *victimScratch) grow(si int) {
	n := len(sc.slotGen)
	if n == 0 {
		n = 64
	}
	for n <= si {
		n *= 2
	}
	slotGen := make([]uint32, n)
	copy(slotGen, sc.slotGen)
	slots := make([]int32, n)
	copy(slots, sc.slots)
	sc.slotGen, sc.slots = slotGen, slots
}

// get returns the live accumulator for k, or nil. Test hook and add helper.
func (sc *victimScratch) get(k causeKey) *causeAcc {
	if sc.gen == 0 {
		return nil
	}
	si := k.slot()
	if si < 0 || si >= len(sc.slotGen) || sc.slotGen[si] != sc.gen {
		return nil
	}
	return &sc.accs[sc.slots[si]]
}

// add merges a cause into the accumulator, keeping the earliest onset and
// unioning culprit journeys (bounded).
func (sc *victimScratch) add(k causeKey, score float64, at simtime.Time, journeys []int) {
	if score <= 0 {
		return
	}
	if sc.gen == 0 {
		// Zero-value scratch: a generation of 0 would make every zeroed
		// stamp look live, so start the first generation lazily.
		sc.reset()
	}
	si := k.slot()
	if si < 0 {
		return
	}
	if si >= len(sc.slotGen) {
		sc.grow(si)
	}
	if sc.slotGen[si] == sc.gen {
		a := &sc.accs[sc.slots[si]]
		a.score += score
		if at < a.at {
			a.at = at
		}
		if len(a.journeys) < maxCulpritJourneys {
			a.journeys = append(a.journeys, journeys...)
		}
		return
	}
	// Reuse a retired slot (and its journey buffer) when one is free.
	var a *causeAcc
	if n := len(sc.accs); n < cap(sc.accs) {
		sc.accs = sc.accs[:n+1]
		a = &sc.accs[n]
		a.journeys = a.journeys[:0]
	} else {
		sc.accs = append(sc.accs, causeAcc{})
		a = &sc.accs[len(sc.accs)-1]
	}
	a.key, a.score, a.at = k, score, at
	a.journeys = append(a.journeys, journeys...)
	sc.slots[si] = int32(len(sc.accs) - 1)
	sc.slotGen[si] = sc.gen
}

// workerArena is one worker's long-lived scratch for an entire diagnosis
// run: the per-victim cause accumulator plus the §4.2 path-walk buffers.
// Each worker of the fan-out owns one arena for its whole run, and the
// engine keeps it for the next run, so the scratch population — and with
// it the run's bytes/op — is bounded by the worker count, not the victim
// count.
type workerArena struct {
	sc victimScratch
	cs collectScratch
}

// diagnoseVictim runs §4.1–§4.3 for one victim against the caller's arena.
func (d *diagnoser) diagnoseVictim(v Victim, a *workerArena) Diagnosis {
	// Wall-clock cost is only read when a registry is live; the disabled
	// path must not pay for time.Now.
	var began time.Time
	if d.victimNS != nil { //mslint:allow obssafe nil check guards the expensive time.Now below, not a method call
		began = time.Now() //mslint:allow nondet per-victim latency sample for obs histograms, never in the Diagnosis
	}
	sc := &a.sc
	sc.reset()
	d.diagnoseAt(d.st.CompIDOf(v.Comp), v.ArriveAt, a, false)

	causes := make([]Cause, 0, len(sc.accs))
	for i := range sc.accs {
		acc := &sc.accs[i]
		if acc.score < minScore {
			continue
		}
		// The recursion collects journey references (stream-absolute); the
		// report carries indices into the store's Journeys.
		var js []int
		if len(acc.journeys) > 0 {
			first := d.st.FirstJourney()
			js = make([]int, len(acc.journeys))
			for k, ref := range acc.journeys {
				js[k] = ref - first
			}
		}
		causes = append(causes, Cause{
			Comp:            d.st.CompName(acc.key.comp),
			Kind:            acc.key.kind,
			Score:           acc.score,
			At:              acc.at,
			CulpritJourneys: js,
		})
	}
	d.victims.Add(1)
	if d.victimNS != nil { //mslint:allow obssafe nil check guards the expensive time.Since below, not a method call
		elapsed := time.Since(began) //mslint:allow nondet per-victim latency sample for obs histograms, never in the Diagnosis
		d.victimNS.Observe(elapsed)
		d.tracer.Record(obs.Span{
			ID: d.tracer.NewID(), Parent: -1,
			Name: v.Comp, Kind: "victim",
			Start: began, Dur: elapsed,
		})
	}
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].Score != causes[j].Score {
			return causes[i].Score > causes[j].Score
		}
		if causes[i].Comp != causes[j].Comp {
			return causes[i].Comp < causes[j].Comp
		}
		return causes[i].Kind < causes[j].Kind
	})
	return Diagnosis{Victim: v, Causes: causes}
}

// diagnoseAt analyses the victim's queuing period at comp ending at t and
// accumulates its causes into the arena's scratch: local processing at comp
// (Sp) and, through the §4.2 propagation and §4.3 recursion, its input
// (Si). With explain set it also records the walk and returns it as the
// root of an Explanation tree; the scoring path passes false and gets nil.
func (d *diagnoser) diagnoseAt(comp tracestore.CompID, t simtime.Time, a *workerArena, explain bool) *ExplainNode {
	if d.cfg.MaxRecursionDepth < 0 { // the victim's own period is depth 0
		return nil
	}
	qp := d.st.QueuingPeriodThresholdID(comp, t, d.cfg.QueueThreshold)
	if qp == nil || qp.NIn == 0 {
		return nil
	}
	r := d.st.PeakRateID(comp)
	if r <= 0 {
		return nil
	}
	ls := localDiagnose(qp, r)
	var node *ExplainNode
	if explain {
		node = d.explainNode(comp, t, qp, ls, 1.0)
	}
	if ls.Sp > 0 {
		// Local slow processing at comp. Culprit packets are the
		// period's arrivals: the packets the NF was slow on (§6.4
		// uses these to surface bug-triggering flows).
		a.sc.add(causeKey{comp, CulpritLocalProcessing}, ls.Sp, qp.Start, d.periodJourneys(comp, qp))
	}
	if ls.Si > 0 {
		d.spread(comp, qp, ls.Si, 0, a, node)
	}
	return node
}

// spread splits budget, the input score a queuing period at comp passes
// on, across the source and upstream NFs by timespan analysis (§4.2), and
// attributes each share. A non-nil node records the shares and the
// recursion below them.
func (d *diagnoser) spread(comp tracestore.CompID, qp *tracestore.QueuingPeriod, budget float64, depth int, a *workerArena, node *ExplainNode) {
	for _, pr := range d.propagate(comp, qp, budget, a) {
		d.attribute(pr, depth, a, node)
	}
}

// attribute folds one propagated share into the accumulator: source shares
// become traffic causes, upstream shares either recurse (Figure 7 split) or
// land as local processing at the squeezing NF. A non-nil node records the
// share, and the NF's queuing period as a child when the recursion reaches
// it.
func (d *diagnoser) attribute(pr propagated, depth int, a *workerArena, node *ExplainNode) {
	if node != nil {
		node.Shares = append(node.Shares, ExplainShare{
			Comp:    d.st.CompName(pr.comp),
			Score:   pr.score,
			PathKey: d.pathLabel(pr.path),
			Packets: pr.path.n,
		})
	}
	if pr.comp == d.src {
		a.sc.add(causeKey{pr.comp, CulpritSourceTraffic}, pr.score, d.firstEmit(pr.path), pr.path.journeys)
		return
	}
	// Recurse into the NF that squeezed the timespan: its own queuing
	// period when the subset's first packet arrived explains whether the
	// squeeze was local processing or its own input (Figure 7).
	anchor := pr.path.lastArrive[pr.compIdx]
	var sub *nfSplit
	if depth < d.cfg.MaxRecursionDepth {
		sub = d.splitAtNF(pr.comp, anchor, pr.score)
	}
	if sub == nil {
		// No queuing there, or the recursion is capped — attribute the
		// squeeze to local behaviour at that NF (e.g. an interrupt that
		// buffered packets arrives as pure processing), whole.
		a.sc.add(causeKey{pr.comp, CulpritLocalProcessing}, pr.score, anchor, pr.path.journeys)
		return
	}
	if sub.localShare > 0 {
		a.sc.add(causeKey{pr.comp, CulpritLocalProcessing}, sub.localShare, sub.qp.Start, d.periodJourneys(pr.comp, sub.qp))
	}
	// The child's weight scales its period so the budget it passes on is
	// the input share: weight·Si = inputShare. An all-Sp child (no input
	// share) weighs 0 and passes nothing on.
	weight := 0.0
	if sub.inputShare > 0 {
		weight = sub.inputShare / maxf(sub.ls.Si, 1e-9)
	}
	var child *ExplainNode
	if node != nil {
		child = d.explainNode(pr.comp, anchor, sub.qp, sub.ls, weight)
		node.Children = append(node.Children, child)
	}
	if weight > 0 {
		d.spread(pr.comp, sub.qp, weight*sub.ls.Si, depth+1, a, child)
	}
}

// nfSplit is the Figure 7 decomposition of a recursive share at an NF.
type nfSplit struct {
	qp         *tracestore.QueuingPeriod
	ls         LocalScores
	localShare float64
	inputShare float64
}

// splitAtNF decomposes score at an upstream NF into local-processing and
// input components, proportional to that NF's own Sp and Si over the
// queuing period anchored at the PreSet subset's first arrival. The
// period and its scores are memoized per (NF, anchor); only the linear
// score scaling happens per call.
func (d *diagnoser) splitAtNF(comp tracestore.CompID, anchor simtime.Time, score float64) *nfSplit {
	sr := d.memo.split.do(periodKey{comp: comp, end: anchor}, d.memoHits, d.memoMisses, d.memoReused, func() *splitResult {
		qp := d.st.QueuingPeriodThresholdID(comp, anchor, d.cfg.QueueThreshold)
		if qp == nil || qp.NIn == 0 {
			return nil
		}
		r := d.st.PeakRateID(comp)
		if r <= 0 {
			return nil
		}
		ls := localDiagnose(qp, r)
		total := ls.Si + ls.Sp
		if total <= 0 {
			return nil
		}
		return &splitResult{qp: qp, ls: ls, total: total}
	})
	if sr == nil {
		return nil
	}
	return &nfSplit{
		qp:         sr.qp,
		ls:         sr.ls,
		localShare: score * sr.ls.Sp / sr.total,
		inputShare: score * sr.ls.Si / sr.total,
	}
}

// periodJourneys lists the journeys of a queuing period's arrivals (as
// journey references), memoized per (NF, period): a prefix of its busy
// period's walk. Callers treat the result as read-only.
func (d *diagnoser) periodJourneys(comp tracestore.CompID, qp *tracestore.QueuingPeriod) []int {
	return d.memo.periodJ.do(periodKey{comp: comp, start: qp.Start, end: qp.End}, d.memoHits, d.memoMisses, d.memoReused, func() []int {
		arrivals := d.st.PeriodArrivals(qp)
		if arrivals == nil {
			return nil
		}
		return d.walkOf(comp, qp).journeysOf(arrivals)
	})
}

// firstEmit returns the earliest emission time of a path subset.
func (d *diagnoser) firstEmit(p *pathStats) simtime.Time {
	if len(p.firstArrive) > 0 && p.firstArrive[0] != simtime.Never {
		return p.firstArrive[0]
	}
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
