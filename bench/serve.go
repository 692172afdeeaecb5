package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"microscope"
	"microscope/internal/online"
	"microscope/internal/serve"
)

const (
	// pollEvery is the report poll interval: the resolution of every lag.
	pollEvery = time.Millisecond
	// pollPath asks for the pollNewest newest reports: windows close tens of
	// milliseconds apart, so a poll rarely finds more than one new, and a
	// longer reply a thousand times a second costs the serving process a
	// tenth of its CPU. When every report of a reply is new some may have
	// been missed, and the poller reads allReports at once; the tenant
	// retains 256.
	pollNewest = 4
	allReports = "/reports"
	// statusEvery paces the tenant-status and alert polls. Alert retention
	// is 1024 and a lap raises a few dozen, so five polls a second see all.
	statusEvery = 200 * time.Millisecond
	// backoff429 is how long the sender waits before resending a refused
	// body.
	backoff429 = 500 * time.Microsecond
)

var pollPath = fmt.Sprintf("%s?n=%d", allReports, pollNewest)

// target is a serving tier under test: the msserve child, or for -short
// the same handler hosted in this process.
type target struct {
	base string
	// usage reads the serving process's CPU and peak RSS.
	usage func() (usage, error)
	// alive returns an error once the serving process has died.
	alive func() error
	// stop ends the serving process and waits for it.
	stop func()
}

// startTarget brings up a serving tier and creates the workload's tenant.
func startTarget(w workload, l *lap, bin string) (*target, error) {
	var t *target
	if bin == "" {
		srv := serve.NewServer(serve.ServerConfig{})
		hs := httptest.NewServer(serve.Handler(srv))
		t = &target{base: hs.URL, usage: selfUsage, alive: func() error { return nil }, stop: hs.Close}
	} else {
		d, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		pid := d.cmd.Process.Pid
		t = &target{
			base:  "http://" + d.addr,
			usage: func() (usage, error) { return procUsage(pid) },
			alive: d.alive,
			stop:  d.stop,
		}
	}
	doc, err := w.tenantSpec(l.meta).Encode()
	if err != nil {
		t.stop()
		return nil, err
	}
	c := newClient(t.base)
	code, body, err := c.do(http.MethodPut, "", "application/json", doc)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("PUT tenant: status %d: %s", code, body)
	}
	if err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// client is one HTTP connection to the bench tenant: requests on it are
// strictly ordered, which the ingest path relies on.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base + "/tenants/" + tenantID}
}

// do sends one request to the tenant and returns the status and body.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches path and decodes the reply into v.
func (c *client) getJSON(path string, v any) error {
	code, body, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// The parts of msserve's replies the harness reads.
type (
	reportJSON struct {
		End         int64  `json:"end"`
		Fingerprint string `json:"fingerprint"`
	}
	alertJSON struct {
		WindowEnd int64  `json:"window_end_ns"`
		Comp      string `json:"comp"`
		Kind      string `json:"kind"`
		Onset     int64  `json:"onset_ns"`
	}
	statusJSON struct {
		Stats         online.Stats `json:"stats"`
		QueuedChunks  int          `json:"queued_chunks"`
		RetainedBytes int64        `json:"retained_bytes"`
	}
)

// alertKey identifies an alert across overlapping polls.
type alertKey struct {
	end        int64
	comp, kind string
}

// seenReport is a report as the poller first saw it.
type seenReport struct {
	fingerprint string
	at          time.Time
}

// observed is everything the end-to-end run saw from outside the serving
// process.
type observed struct {
	// bodies is how many bodies were accepted, all of 0..bodies-1;
	// records and bytes count what they held.
	bodies, records, bytes int
	// posts counts POSTs sent, refused the 429s among them. Any other
	// reply than 202 or 429 ends the run.
	posts, refused int
	// due[i] is when body i was due (open loop) or first sent (closed
	// loop): the instant lags are timed from.
	due []time.Time
	// postMs holds the latency of each accepted POST, sendLagMs how far
	// behind its due time each open-loop body was first sent.
	postMs, sendLagMs []float64
	encode            time.Duration
	// busy runs from the first POST to the flush's return; cpu is the
	// serving process's CPU time over the same interval.
	busy, cpu time.Duration
	rssMB     float64

	reports       map[int64]seenReport
	pollMs        []float64
	queuedMax     int
	retainedBytes int64
	alerts        map[alertKey]alertJSON
	status        statusJSON
}

// poller watches the tenant over its own connection until stop closes.
type poller struct {
	c    *client
	obs  *observed
	stop chan struct{}
	wg   sync.WaitGroup
	err  error
}

func (p *poller) run() {
	defer p.wg.Done()
	var lastStatus time.Time
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		t := now()
		fresh, err := p.pollReports(pollPath)
		if err == nil && fresh == pollNewest {
			_, err = p.pollReports(allReports)
		}
		if err != nil {
			p.err = err
			return
		}
		p.obs.pollMs = append(p.obs.pollMs, ms(since(t)))
		if since(lastStatus) >= statusEvery {
			lastStatus = now()
			if err := p.pollStatus(); err != nil {
				p.err = err
				return
			}
		}
		time.Sleep(pollEvery)
	}
}

// pollReports records the first sighting of every report in the reply and
// returns how many it had not seen before.
func (p *poller) pollReports(path string) (fresh int, err error) {
	var reps []reportJSON
	if err := p.c.getJSON(path, &reps); err != nil {
		return 0, err
	}
	at := now()
	for _, r := range reps {
		if _, ok := p.obs.reports[r.End]; !ok {
			p.obs.reports[r.End] = seenReport{fingerprint: r.Fingerprint, at: at}
			fresh++
		}
	}
	return fresh, nil
}

// pollStatus samples the ingest queue and retained memory, and unions the
// retained alerts into what has been seen.
func (p *poller) pollStatus() error {
	if err := p.c.getJSON("", &p.obs.status); err != nil {
		return err
	}
	p.obs.queuedMax = max(p.obs.queuedMax, p.obs.status.QueuedChunks)
	p.obs.retainedBytes = max(p.obs.retainedBytes, p.obs.status.RetainedBytes)
	var alerts []alertJSON
	if err := p.c.getJSON("/alerts", &alerts); err != nil {
		return err
	}
	for _, a := range alerts {
		p.obs.alerts[alertKey{a.WindowEnd, a.Comp, a.Kind}] = a
	}
	return nil
}

// drive sends the workload's bodies to the tenant for about the given
// time, flushes once, and collects everything the tenant reports, over two
// connections: one ordered ingest connection and one for polling. A
// refused body is resent before the next one is built, so the tenant sees
// the records in order whatever the backpressure.
func drive(w workload, l *lap, t *target, seconds float64) (*observed, error) {
	obs := &observed{reports: make(map[int64]seenReport), alerts: make(map[alertKey]alertJSON)}
	ingest := newClient(t.base)
	p := &poller{c: newClient(t.base), obs: obs, stop: make(chan struct{})}
	bs := newBodies(l, w.bodyRecs)
	ctype := w.contentType()
	limit := time.Duration(seconds * float64(time.Second))
	// An open loop sends a fixed schedule; a closed loop sends until the
	// time is up.
	total := -1
	if w.rate > 0 {
		total = int(w.rate*seconds)/w.bodyRecs + 1
	}

	before, err := t.usage()
	if err != nil {
		return nil, err
	}
	p.wg.Add(1)
	go p.run()
	stopPoller := func() {
		close(p.stop)
		p.wg.Wait()
	}
	t0 := now()
	for i := 0; i != total; i++ {
		if total < 0 && since(t0) >= limit {
			break
		}
		recs := bs.records(i)
		te := now()
		payload := w.encode(recs)
		obs.encode += since(te)
		due := now()
		if w.rate > 0 {
			due = t0.Add(time.Duration(float64(bs.recordsBefore(i+1)) / w.rate * float64(time.Second)))
			time.Sleep(due.Sub(now()))
			obs.sendLagMs = append(obs.sendLagMs, ms(since(due)))
		}
		obs.due = append(obs.due, due)
		for accepted := false; !accepted; {
			ts := now()
			code, body, err := ingest.do(http.MethodPost, "/records", ctype, payload)
			obs.posts++
			switch {
			case err != nil:
				stopPoller()
				if dead := t.alive(); dead != nil {
					return nil, dead
				}
				return nil, fmt.Errorf("POST body %d: %w", i, err)
			case code == http.StatusAccepted:
				obs.postMs = append(obs.postMs, ms(since(ts)))
				accepted = true
			case code == http.StatusTooManyRequests:
				obs.refused++
				time.Sleep(backoff429)
			default:
				stopPoller()
				return nil, fmt.Errorf("POST body %d: status %d: %s", i, code, body)
			}
		}
		obs.bodies++
		obs.records += len(recs)
		obs.bytes += len(payload)
	}
	// Exactly one flush; like a body it is resent while refused.
	for {
		code, body, err := ingest.do(http.MethodPost, "/flush", "", nil)
		if err != nil {
			stopPoller()
			return nil, fmt.Errorf("POST flush: %w", err)
		}
		if code == http.StatusNoContent {
			break
		}
		if code != http.StatusTooManyRequests {
			stopPoller()
			return nil, fmt.Errorf("POST flush: status %d: %s", code, body)
		}
		time.Sleep(backoff429)
	}
	obs.busy = since(t0)
	after, err := t.usage()
	stopPoller()
	if err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, fmt.Errorf("poller: %w", p.err)
	}
	obs.cpu, obs.rssMB = after.cpu-before.cpu, after.rssMB
	// The last word, read before the tenant is deleted: deleting drains,
	// and a drain flushes the retained overlap as one more window.
	if _, err := p.pollReports(allReports); err != nil {
		return nil, err
	}
	if err := p.pollStatus(); err != nil {
		return nil, err
	}
	return obs, nil
}

// verdict compares what the end-to-end run saw with the reference.
type verdict struct {
	attempted, failed int
	// problems says what failed, for the log.
	problems []string
	// lagMs holds one lag per reported window a body closed.
	lagMs []float64
	// injections counts the injected faults checked, hits those an alert
	// (offline-batch: a diagnosis) names.
	hits, injections int
}

func (v *verdict) fail(n int, format string, args ...any) {
	if n > 0 {
		v.failed += n
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// verify checks the run's output against the reference run of the same
// bodies: the same set of (window end, fingerprint) pairs, the same
// counters, every alert fetched, nothing shed or late.
func verify(w workload, l *lap, obs *observed, ref *reference) *verdict {
	// A 429 is flow control on every workload, not a failed operation: the
	// body is resent in order and the output is the same. On a paced
	// workload it shows in serve.refused_429 and, because lags are timed
	// from the due time, in report_lag_ms_p50; whether a shared host stalls
	// for the 0.3 s the tenant's queue holds must not decide the exit code.
	v := &verdict{attempted: obs.posts + len(ref.reports)}
	missing, wrong := 0, 0
	bs := newBodies(l, w.bodyRecs)
	ends := make([]int64, 0, len(ref.reports))
	for end := range ref.reports {
		ends = append(ends, end)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	for _, end := range ends {
		got, ok := obs.reports[end]
		switch {
		case !ok:
			missing++
		case got.fingerprint != ref.reports[end]:
			wrong++
		default:
			// Windows the flush closed have no closing body and no lag.
			if c := bs.closing(microscope.Time(end)); c < obs.bodies {
				v.lagMs = append(v.lagMs, ms(got.at.Sub(obs.due[c])))
			}
		}
	}
	sort.Float64s(v.lagMs)
	v.fail(missing, "%d of %d expected reports never seen", missing, len(ref.reports))
	v.fail(wrong, "%d reports with a wrong fingerprint", wrong)
	extra := 0
	for end := range obs.reports {
		if _, ok := ref.reports[end]; !ok {
			extra++
		}
	}
	v.fail(extra, "%d reports the reference does not have", extra)

	st := obs.status.Stats
	check := func(name string, got, want int) {
		if got != want {
			v.fail(1, "tenant stats %s = %d, want %d", name, got, want)
		}
	}
	check("Records", st.Records, obs.records)
	check("Records (reference)", ref.stats.Records, obs.records)
	check("Windows", st.Windows, ref.stats.Windows)
	check("Victims", st.Victims, ref.stats.Victims)
	check("Alerts", st.Alerts, ref.stats.Alerts)
	check("LateDropped", st.LateDropped, 0)
	check("RecordsShed", st.RecordsShed, 0)
	check("Degraded", st.Degraded, 0)
	check("alerts fetched", len(obs.alerts), st.Alerts)

	v.injections, v.hits = culpritHits(l, obs)
	if v.hits == 0 {
		v.fail(1, "no injected fault was alerted on")
	}
	return v
}

// culpritHits counts the injected faults that lie wholly inside the sent
// stream, and how many of them an alert names: same component, onset within
// hitSlack of the fault.
func culpritHits(l *lap, obs *observed) (injections, hits int) {
	if obs.records == 0 {
		return 0, 0
	}
	last := obs.records - 1
	sentTo := l.recs[last%len(l.recs)].At.Add(microscope.Duration(last/len(l.recs)) * l.period)
	for k := 0; ; k++ {
		shift := microscope.Duration(k) * l.period
		if microscope.Time(shift) > sentTo {
			return injections, hits
		}
		for _, in := range l.inj {
			lo := in.At.Add(shift - hitSlack)
			hi := in.At.Add(shift + in.Dur + hitSlack)
			if hi > sentTo {
				continue
			}
			injections++
			for _, a := range obs.alerts {
				if a.Comp == in.Comp && microscope.Time(a.Onset) >= lo && microscope.Time(a.Onset) <= hi {
					hits++
					break
				}
			}
		}
	}
}
