package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"microscope/internal/obs"
	"microscope/internal/resilience"
	"microscope/internal/spec"
)

// DefaultMaxTenants bounds how many tenants one server hosts unless the
// operator raises it.
const DefaultMaxTenants = 64

// ErrTenantNotFound is returned for operations on unknown tenant IDs.
var ErrTenantNotFound = errors.New("serve: no such tenant")

// ErrDraining is returned when the server is shutting down.
var ErrDraining = errors.New("serve: server draining")

// ServerConfig tunes the serving tier.
type ServerConfig struct {
	// MaxTenants bounds concurrent tenants (default DefaultMaxTenants).
	MaxTenants int
	// Obs is the server-level registry (tenant counts, API counters);
	// per-tenant metrics live in each tenant's own labeled registry.
	// nil creates a fresh one.
	Obs *obs.Registry

	// hookEnv is injected by tests to fake webhook/exec transports.
	hookEnv hookEnv
}

// Server hosts many concurrent tenants behind one HTTP API. All methods
// are safe for concurrent use.
type Server struct {
	cfg ServerConfig
	reg *obs.Registry

	gTenants *obs.Gauge
	cCreated *obs.Counter
	cDeleted *obs.Counter

	mu       sync.RWMutex
	tenants  map[string]*Tenant
	draining bool
}

// NewServer creates an empty serving tier.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Obs,
		tenants:  make(map[string]*Tenant),
		gTenants: cfg.Obs.Gauge("microscope_serve_tenants"),
		cCreated: cfg.Obs.Counter("microscope_serve_tenants_created_total"),
		cDeleted: cfg.Obs.Counter("microscope_serve_tenants_deleted_total"),
	}
	return s
}

// Create registers a new tenant from a spec. The spec is validated and
// resolved here; it must carry a topology. Fails if the ID is taken —
// use Update to replace a live tenant's pipeline.
func (s *Server) Create(id string, sp *spec.PipelineSpec) (*Tenant, error) {
	if id == "" {
		return nil, errors.New("serve: tenant id must not be empty")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	rs := sp.Resolved()
	if rs.Topology == nil {
		return nil, fmt.Errorf("serve: tenant %q: spec.topology is required by the serving tier", id)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if _, ok := s.tenants[id]; ok {
		return nil, fmt.Errorf("serve: tenant %q already exists (PUT to replace)", id)
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("serve: tenant limit %d reached", s.cfg.MaxTenants)
	}
	t, err := newTenant(id, rs, s.cfg.hookEnv)
	if err != nil {
		return nil, err
	}
	s.tenants[id] = t
	s.gTenants.Set(int64(len(s.tenants)))
	s.cCreated.Inc()
	return t, nil
}

// Update replaces a tenant's pipeline with a new spec: the old pipeline
// drains fully (final window flushed, hooks quiesced), then a fresh one
// starts. A spec change restarts the stream — stream state is a function
// of the spec, so splicing a new spec into retained state would break
// the determinism contract. Creates the tenant if absent.
func (s *Server) Update(ctx context.Context, id string, sp *spec.PipelineSpec) (*Tenant, bool, error) {
	s.mu.Lock()
	old, existed := s.tenants[id]
	if existed {
		delete(s.tenants, id)
		s.gTenants.Set(int64(len(s.tenants)))
	}
	s.mu.Unlock()
	if existed {
		if err := old.drain(ctx); err != nil {
			return nil, true, err
		}
	}
	t, err := s.Create(id, sp)
	return t, existed, err
}

// Get returns a live tenant.
func (s *Server) Get(id string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	return t, ok
}

// Delete drains and removes a tenant.
func (s *Server) Delete(ctx context.Context, id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
		s.gTenants.Set(int64(len(s.tenants)))
	}
	s.mu.Unlock()
	if !ok {
		return ErrTenantNotFound
	}
	s.cDeleted.Inc()
	return t.drain(ctx)
}

// snapshot returns the live tenants in ID order.
func (s *Server) snapshot() []*Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ts := make([]*Tenant, len(ids))
	for i, id := range ids {
		ts[i] = s.tenants[id]
	}
	return ts
}

// List snapshots every tenant's status, sorted by ID.
func (s *Server) List() []TenantStatus {
	ts := s.snapshot()
	out := make([]TenantStatus, len(ts))
	for i, t := range ts {
		out[i] = t.Status()
	}
	return out
}

// Shutdown drains every tenant concurrently: each feed queue empties,
// each final partial window flushes, each hook runner quiesces. New
// tenant creation and ingest are rejected from the first moment. The
// HTTP server should close only after Shutdown returns, so in-flight
// diagnosis is never truncated.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	ts := s.snapshot()

	errc := make(chan error, len(ts))
	for _, t := range ts {
		go func(t *Tenant) {
			// A panicking drain must still report to the join: without
			// containment the send is skipped and Shutdown hangs forever
			// waiting for this tenant's slot.
			var err error
			if perr := resilience.Contain("drain:"+t.ID, func() { err = t.drain(ctx) }); perr != nil {
				err = perr
			}
			errc <- err
		}(t)
	}
	var firstErr error
	for range ts {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// WriteMetrics writes the global Prometheus exposition: the server's own
// registry followed by every tenant's labeled registry, so one scrape
// sees every tenant's series side by side.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.reg.WritePrometheus(w); err != nil {
		return err
	}
	for _, t := range s.snapshot() {
		if err := t.Reg.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// Healthz aggregates liveness: degraded when draining or when any tenant
// is (Tenant.healthz), naming each degraded tenant and why.
func (s *Server) Healthz() (bool, string) {
	if s.Draining() {
		return false, "draining"
	}
	ts := s.snapshot()
	var bad []string
	for _, t := range ts {
		if ok, detail := t.healthz(); !ok {
			bad = append(bad, t.ID+": "+detail)
		}
	}
	if len(bad) > 0 {
		return false, fmt.Sprintf("%d/%d tenants degraded (%s)", len(bad), len(ts), strings.Join(bad, "; "))
	}
	return true, fmt.Sprintf("ok: %d tenants", len(ts))
}
