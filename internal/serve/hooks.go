// Remediation hooks: when a tenant's diagnosis surfaces ranked culprits,
// the serving tier notifies the outside world — a webhook POST or an
// exec'd command per hook — with capped-backoff retries and a per-hook
// circuit breaker so a dead receiver can never stall or destabilize the
// tenant's diagnosis path.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"time"

	"microscope/internal/obs"
	"microscope/internal/online"
	"microscope/internal/resilience"
	"microscope/internal/spec"
)

// hookQueueCap bounds the alert batches queued for delivery. Hooks are
// side effects outside the determinism contract; under a flood the
// oldest undelivered batches are dropped and counted, never the
// diagnosis.
const hookQueueCap = 128

// HookPayload is the JSON body a hook receives: the tenant plus the
// alert, with simulated-time fields in nanoseconds.
type HookPayload struct {
	Tenant    string  `json:"tenant"`
	Hook      string  `json:"hook"`
	WindowEnd int64   `json:"window_end_ns"`
	Comp      string  `json:"comp"`
	Kind      string  `json:"kind"`
	Score     float64 `json:"score"`
	Victims   int     `json:"victims"`
	Onset     int64   `json:"onset_ns"`
	Health    string  `json:"health"`
}

// hookEnv is the runner's interface to the world, injectable so tests
// exercise retries, breakers, and panics without sockets or processes.
type hookEnv struct {
	// post delivers a webhook body (nil = real HTTP POST).
	post func(ctx context.Context, url string, body []byte) error
	// run executes an argv with body on stdin (nil = real os/exec).
	run func(ctx context.Context, argv []string, body []byte) error
	// now drives breaker cooldowns (nil = time.Now).
	now func() time.Time
	// sleep overrides the retry backoff sleep (nil = real sleep).
	sleep func(time.Duration)
}

func (e hookEnv) withDefaults() hookEnv {
	if e.post == nil {
		e.post = httpPost
	}
	if e.run == nil {
		e.run = execRun
	}
	if e.now == nil {
		e.now = time.Now
	}
	return e
}

func httpPost(ctx context.Context, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	// Read what is left of the body (bounded) before closing it: a body
	// closed unread costs the keep-alive connection.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("webhook status %s", resp.Status)
	}
	return nil
}

func execRun(ctx context.Context, argv []string, body []byte) error {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdin = bytes.NewReader(body)
	return cmd.Run()
}

// breaker is a per-hook circuit breaker: maxFailures consecutive failed
// deliveries open it for cooldown; a success closes it.
type breaker struct {
	fails     int
	openUntil time.Time
}

// hookRunner delivers alert batches for one tenant on its own goroutine.
type hookRunner struct {
	tenant string
	hooks  []spec.HookSpec
	retry  resilience.RetryPolicy
	env    hookEnv

	queue chan []online.Alert
	done  chan struct{}

	// ctx is the root under every delivery attempt and retry sleep;
	// quiesce cancels it when its own deadline expires, so an in-flight
	// retry aborts instead of outliving the tenant's drain.
	ctx    context.Context
	cancel context.CancelFunc

	breakers []breaker // parallel to hooks; owned by the runner goroutine

	cFired   *obs.Counter
	cFailed  *obs.Counter
	cDropped *obs.Counter
	cBroken  *obs.Counter
}

func newHookRunner(tenant string, hooks []spec.HookSpec, retry resilience.RetryPolicy, reg *obs.Registry, env hookEnv) *hookRunner {
	//mslint:allow ctxflow the runner root spans the tenant's lifetime, not a request; quiesce cancels it on drain timeout
	ctx, cancel := context.WithCancel(context.Background())
	r := &hookRunner{
		tenant:   tenant,
		hooks:    hooks,
		retry:    retry,
		env:      env.withDefaults(),
		queue:    make(chan []online.Alert, hookQueueCap),
		done:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
		breakers: make([]breaker, len(hooks)),
		cFired:   reg.Counter("microscope_hooks_fired_total"),
		cFailed:  reg.Counter("microscope_hooks_failed_total"),
		cDropped: reg.Counter("microscope_hooks_dropped_total"),
		cBroken:  reg.Counter("microscope_hooks_breaker_open_total"),
	}
	if r.retry.Sleep == nil {
		r.retry.Sleep = env.sleep
	}
	go r.loop()
	return r
}

// fire enqueues a batch for delivery without ever blocking the feed
// goroutine: a full queue drops the batch and counts it.
func (r *hookRunner) fire(alerts []online.Alert) {
	if len(r.hooks) == 0 || len(alerts) == 0 {
		return
	}
	batch := append([]online.Alert(nil), alerts...)
	select {
	case r.queue <- batch:
	default:
		r.cDropped.Add(int64(len(batch)))
	}
}

// quiesce stops intake and waits (bounded by ctx) for queued deliveries
// to finish.
func (r *hookRunner) quiesce(ctx context.Context) error {
	select {
	case <-r.done:
		r.cancel()
		return nil // already quiesced
	default:
	}
	close(r.queue)
	select {
	case <-r.done:
		r.cancel()
		return nil
	case <-ctx.Done():
		// Drain deadline passed: abort the in-flight delivery and fail the
		// remaining queue fast rather than let retries outlive the tenant.
		r.cancel()
		return ctx.Err()
	}
}

func (r *hookRunner) loop() {
	defer close(r.done)
	for batch := range r.queue {
		for _, a := range batch {
			for i := range r.hooks {
				r.deliver(i, a)
			}
		}
	}
}

// deliver runs one hook for one alert: breaker check, payload render,
// capped-backoff retries, containment. A panicking hook (an exec'd
// command cannot panic, but an injected test transport can — and so can
// payload rendering on a poisoned alert) is contained and counted as a
// failure; the tenant's diagnosis never sees it.
func (r *hookRunner) deliver(i int, a online.Alert) {
	h := r.hooks[i]
	if a.Score < h.MinScore {
		return
	}
	b := &r.breakers[i]
	if b.fails >= maxFailures(h) {
		if r.env.now().Before(b.openUntil) {
			r.cBroken.Inc()
			return
		}
		// Cooldown over: half-open, allow one probe delivery.
		b.fails = maxFailures(h) - 1
	}
	payload, err := json.Marshal(HookPayload{
		Tenant:    r.tenant,
		Hook:      h.Name,
		WindowEnd: int64(a.WindowEnd),
		Comp:      a.Comp,
		Kind:      a.Kind.String(),
		Score:     a.Score,
		Victims:   a.Victims,
		Onset:     int64(a.Onset),
		Health:    a.Health.String(),
	})
	if err != nil {
		r.noteFailure(b, h)
		return
	}
	timeout := h.Timeout.Std()
	if timeout <= 0 {
		timeout = spec.DefaultHookTimeout
	}
	attempt := func() error {
		ctx, cancel := context.WithTimeout(r.ctx, timeout)
		defer cancel()
		if h.Type == "exec" {
			return r.env.run(ctx, h.Command, payload)
		}
		return r.env.post(ctx, h.URL, payload)
	}
	var dErr error
	if perr := resilience.Contain("hook:"+h.Name, func() {
		// Every delivery error is transient from the retry policy's view:
		// the receiver may simply not be up yet. The breaker, not the
		// retry loop, handles receivers that stay down.
		dErr = r.retry.Run(r.ctx, "hook "+h.Name, func() error {
			if derr := attempt(); derr != nil {
				return resilience.Transient(derr)
			}
			return nil
		}, nil)
	}); perr != nil {
		dErr = perr
	}
	if dErr != nil {
		r.noteFailure(b, h)
		return
	}
	b.fails = 0
	r.cFired.Inc()
}

func (r *hookRunner) noteFailure(b *breaker, h spec.HookSpec) {
	r.cFailed.Inc()
	b.fails++
	if b.fails >= maxFailures(h) {
		cd := h.Cooldown.Std()
		if cd <= 0 {
			cd = spec.DefaultHookCooldown
		}
		b.openUntil = r.env.now().Add(cd)
	}
}

func maxFailures(h spec.HookSpec) int {
	if h.MaxFailures > 0 {
		return h.MaxFailures
	}
	return spec.DefaultHookMaxFailures
}
