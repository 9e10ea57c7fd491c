// Package tenant multiplexes many independent descriptor spaces over
// one decision daemon: an image registry in which every loaded machine
// image becomes a tenant with its own service.Store shard group, its
// own decision slots, and its own admission bound.
//
// The paper's ring hardware multiplexes many mutually-suspicious
// protection domains over a single validation mechanism; the modern
// form of that idea (Complets' POE compartments, Capacity's per-domain
// capability spaces — see PAPERS.md) is many small protection domains
// served by one enforcement engine. A tenant here is exactly such a
// compartment: a complete descriptor space whose decisions never read
// another tenant's descriptors, whose worker quota bounds the CPU it
// can consume, and whose admission bound sheds its own overload
// instead of exporting it to its neighbours.
//
// # Lifecycle
//
// A tenant moves through a one-way state machine:
//
//		loading → active → sealed ─┐
//		            │              │
//		            └──────→ draining → evicted
//
//	  - loading: the image is being parsed and its store built; the
//	    tenant is registered (so a duplicate load fails fast) but serves
//	    nothing yet.
//	  - active: decisions and supervisor mutations are served.
//	  - sealed: the descriptor space is frozen — decisions are served,
//	    mutations answer ErrSealed (HTTP 409). Sealing is the service
//	    analogue of handing a subsystem a read-only descriptor segment.
//	  - draining: eviction has begun — no new batches are accepted
//	    (ErrDraining, HTTP 409 for mutations), in-flight batches
//	    complete, and the service closes, which unregisters every RCU
//	    reader and lets the store's grace periods complete.
//	  - evicted: the tenant is gone from the registry; its store is
//	    unreachable and collectable.
//
// # Isolation
//
// Each tenant owns a full service.Service: its own decision slots, its
// own admission bound, its own RCU reader registrations, and no
// goroutines (decisions run on the caller's). A hot tenant that
// saturates its slots sheds with ErrQueueFull; other tenants keep
// deciding at their own pace (experiment T15 measures exactly this).
// The registry's worker budget bounds the total slot count so loading
// tenants cannot oversubscribe the host.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/service"
)

// State is a tenant's lifecycle state.
type State int32

const (
	// StateLoading marks a tenant whose image is still being built.
	StateLoading State = iota
	// StateActive marks a tenant serving decisions and mutations.
	StateActive
	// StateSealed marks a frozen descriptor space: decisions are
	// served, mutations are rejected.
	StateSealed
	// StateDraining marks a tenant whose eviction has begun: in-flight
	// batches complete, new work is rejected.
	StateDraining
	// StateEvicted marks a tenant removed from the registry.
	StateEvicted
)

// String returns the wire name of the state.
func (s State) String() string {
	switch s {
	case StateLoading:
		return "loading"
	case StateActive:
		return "active"
	case StateSealed:
		return "sealed"
	case StateDraining:
		return "draining"
	case StateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Registry errors.
var (
	// ErrTenantExists reports a load under a name already registered.
	ErrTenantExists = errors.New("tenant: name already loaded")
	// ErrTenantNotFound reports an operation on an unknown tenant.
	ErrTenantNotFound = errors.New("tenant: not found")
	// ErrSealed reports a mutation against a sealed tenant.
	ErrSealed = errors.New("tenant: image is sealed")
	// ErrDraining reports work submitted while an eviction drains the
	// tenant — the mutation-races-drain conflict (HTTP 409).
	ErrDraining = errors.New("tenant: draining")
	// ErrLoading reports work submitted before a load completed.
	ErrLoading = errors.New("tenant: still loading")
	// ErrWorkerBudget reports a load whose worker quota would exceed
	// the registry's budget.
	ErrWorkerBudget = errors.New("tenant: worker budget exhausted")
	// ErrTooManyTenants reports a load beyond Config.MaxTenants.
	ErrTooManyTenants = errors.New("tenant: registry full")
	// ErrBadName reports an unusable tenant name.
	ErrBadName = errors.New("tenant: bad name")
)

// TenantConfig sizes one tenant's decision service. Zero fields take
// the registry's defaults.
type TenantConfig struct {
	// Workers is the tenant's decision slot quota — the number of
	// batches (one snapshot reader each) it decides at once.
	Workers int
	// QueueDepth is how many more callers may wait for a slot; beyond
	// that, overload sheds with service.ErrQueueFull.
	QueueDepth int
	// BatchLimit caps queries per batch.
	BatchLimit int
	// Shards is the tenant store's descriptor shard count.
	Shards int
}

// Config sizes a Registry.
type Config struct {
	// MaxTenants bounds the number of simultaneously loaded images;
	// default 16.
	MaxTenants int
	// WorkerBudget bounds the sum of all tenants' worker quotas;
	// default 64.
	WorkerBudget int
	// Defaults fills zero fields of each load's TenantConfig; its own
	// zero fields fall back to 2 workers and the service defaults.
	Defaults TenantConfig
}

// Tenant is one loaded image: a complete descriptor space with its own
// decision service, admission bound, and lifecycle state.
type Tenant struct {
	name  string
	cfg   TenantConfig
	state atomic.Int32

	store *service.Store
	svc   *service.Service
	// hub fans descriptor mutations out to wire-session lease
	// subscribers (leases.go); published with the same
	// assign-then-activate discipline as store/svc.
	hub *leaseHub

	// deniedMutations counts mutations rejected by seal or drain —
	// the tenant-level conflict counter surfaced in /v1/images.
	deniedMutations atomic.Uint64
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// State returns the tenant's current lifecycle state.
func (t *Tenant) State() State { return State(t.state.Load()) }

// Store returns the tenant's descriptor store, or nil while loading.
func (t *Tenant) Store() *service.Store { return t.store }

// Service returns the tenant's decision service, or nil while loading.
func (t *Tenant) Service() *service.Service { return t.svc }

// Config returns the tenant's resolved sizing.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// DeniedMutations returns the count of mutations rejected by seal or
// drain.
func (t *Tenant) DeniedMutations() uint64 { return t.deniedMutations.Load() }

// checkable returns nil when the tenant serves decisions in its
// current state, or the rejection error.
//
//ring:hotpath
func (t *Tenant) checkable() error {
	switch t.State() {
	case StateActive, StateSealed:
		return nil
	case StateLoading:
		return ErrLoading
	case StateDraining:
		return ErrDraining
	default:
		return ErrTenantNotFound
	}
}

// SubmitInto answers a batch of queries in place (dst[i] answers
// queries[i]) on one of the tenant's slots. One atomic state load
// guards the tenant lifecycle; beyond that the call is exactly the
// zero-allocation service.SubmitInto hot path, so the per-tenant check
// path stays 0 allocs/op (gated by TestTenantCheckZeroAlloc).
//
//ring:hotpath
func (t *Tenant) SubmitInto(ctx context.Context, queries []service.Query, dst []service.Decision) error {
	if err := t.checkable(); err != nil {
		return err
	}
	return t.svc.SubmitInto(ctx, queries, dst)
}

// Submit answers a batch of queries, allocating the decision slice.
func (t *Tenant) Submit(ctx context.Context, queries []service.Query) ([]service.Decision, error) {
	if err := t.checkable(); err != nil {
		return nil, err
	}
	return t.svc.Submit(ctx, queries)
}

// Mutable returns nil when the tenant accepts supervisor mutations,
// or the rejection error (ErrSealed, ErrDraining, ErrLoading,
// ErrTenantNotFound); rejections are counted in DeniedMutations. Both
// the HTTP mutate route and the binary wire protocol gate mutations
// through it, so seal/drain races answer the same way on either
// transport.
func (t *Tenant) Mutable() error { return t.mutable() }

// mutable returns nil when the tenant accepts supervisor mutations,
// or the rejection error; rejections are counted.
func (t *Tenant) mutable() error {
	switch t.State() {
	case StateActive:
		return nil
	case StateSealed:
		t.deniedMutations.Add(1)
		return ErrSealed
	case StateLoading:
		return ErrLoading
	case StateDraining:
		t.deniedMutations.Add(1)
		return ErrDraining
	default:
		return ErrTenantNotFound
	}
}

// Registry is the image registry: the set of loaded tenants, their
// shared worker budget, and the default tenant the single-tenant API
// routes to.
type Registry struct {
	cfg Config

	mu           sync.RWMutex
	tenants      map[string]*Tenant //ring:guarded mu
	order        []string           //ring:guarded mu (load order, for stable listings)
	workersInUse int                //ring:guarded mu
	evictions    uint64             //ring:guarded mu (completed evictions)
}

// DefaultTenant is the name the single-tenant endpoints (/v1/check,
// /v1/mutate, /healthz, /metrics) route to.
const DefaultTenant = "default"

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 16
	}
	if cfg.WorkerBudget <= 0 {
		cfg.WorkerBudget = 64
	}
	if cfg.Defaults.Workers <= 0 {
		cfg.Defaults.Workers = 2
	}
	return &Registry{cfg: cfg, tenants: make(map[string]*Tenant)}
}

// Config returns the registry's resolved sizing.
func (r *Registry) Config() Config { return r.cfg }

// ValidName reports whether name is usable as a tenant name: non-empty,
// at most 64 bytes, and free of '/' and whitespace (it becomes a URL
// path element).
func ValidName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	return !strings.ContainsAny(name, "/ \t\r\n")
}

// resolve fills cfg's zero fields from the registry defaults.
func (r *Registry) resolve(cfg TenantConfig) TenantConfig {
	d := r.cfg.Defaults
	if cfg.Workers <= 0 {
		cfg.Workers = d.Workers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = d.QueueDepth
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = d.BatchLimit
	}
	if cfg.Shards <= 0 {
		cfg.Shards = d.Shards
	}
	return cfg
}

// Load builds a new tenant named name from the image segments and
// registers it. The name is claimed (state loading) before the store
// is built, so concurrent duplicate loads fail fast with
// ErrTenantExists; a failed build releases the name and the worker
// quota. On success the tenant is active.
func (r *Registry) Load(name string, segs []service.Segment, cfg TenantConfig) (*Tenant, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	cfg = r.resolve(cfg)

	t := &Tenant{name: name, cfg: cfg}
	t.state.Store(int32(StateLoading))

	r.mu.Lock()
	if _, dup := r.tenants[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	if len(r.tenants) >= r.cfg.MaxTenants {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %d images loaded", ErrTooManyTenants, r.cfg.MaxTenants)
	}
	if r.workersInUse+cfg.Workers > r.cfg.WorkerBudget {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %d in use + %d requested > budget %d",
			ErrWorkerBudget, r.workersInUse, cfg.Workers, r.cfg.WorkerBudget)
	}
	r.tenants[name] = t
	r.order = append(r.order, name)
	r.workersInUse += cfg.Workers
	r.mu.Unlock()

	st, err := service.NewStore(service.StoreConfig{Shards: cfg.Shards}, segs)
	if err == nil {
		t.store = st
		t.svc, err = service.New(st, service.Config{
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			BatchLimit: cfg.BatchLimit,
		})
	}
	if err != nil {
		t.state.Store(int32(StateEvicted))
		r.unregister(t)
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	t.hub = newLeaseHub(st.Shards())
	st.SetPublishHook(t.hub.broadcast)
	t.state.Store(int32(StateActive))
	return t, nil
}

// unregister removes t from the map and returns its worker quota to
// the budget (idempotent).
func (r *Registry) unregister(t *Tenant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tenants[t.name] != t {
		return
	}
	delete(r.tenants, t.name)
	for i, n := range r.order {
		if n == t.name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.workersInUse -= t.cfg.Workers
	r.evictions++
}

// Get returns the named tenant.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Tenants returns the loaded tenants in load order.
func (r *Registry) Tenants() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Tenant, 0, len(r.order))
	for _, n := range r.order {
		if t, ok := r.tenants[n]; ok {
			out = append(out, t)
		}
	}
	return out
}

// Len returns the number of loaded tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// WorkersInUse returns the sum of loaded tenants' worker quotas.
func (r *Registry) WorkersInUse() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.workersInUse
}

// Evictions returns the number of completed evictions.
func (r *Registry) Evictions() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.evictions
}

// Seal freezes the named tenant's descriptor space: decisions keep
// flowing, mutations answer ErrSealed from now on. Only an active
// tenant can be sealed.
func (r *Registry) Seal(name string) error {
	t, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	if !t.state.CompareAndSwap(int32(StateActive), int32(StateSealed)) {
		return fmt.Errorf("tenant %q: cannot seal while %s", name, t.State())
	}
	return nil
}

// Evict removes the named tenant: the state moves to draining (new
// work is rejected from that instant), every in-flight batch
// completes, the service closes — unregistering its RCU readers, so the
// store's snapshot grace periods complete — and the name is released.
// Evict returns after the drain; a concurrent Evict of the same tenant
// returns ErrDraining immediately.
func (r *Registry) Evict(name string) error {
	t, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	if !t.state.CompareAndSwap(int32(StateActive), int32(StateDraining)) &&
		!t.state.CompareAndSwap(int32(StateSealed), int32(StateDraining)) {
		switch t.State() {
		case StateDraining:
			return fmt.Errorf("%w: %q", ErrDraining, name)
		default:
			return fmt.Errorf("tenant %q: cannot evict while %s", name, t.State())
		}
	}
	// Revoke every decision lease before the drain: subscribers hear
	// the expiration (and drop their caches) rather than riding a TTL
	// out against a store about to disappear. Sealing, by contrast,
	// leaves leases valid — a frozen descriptor space can never
	// invalidate them.
	if t.hub != nil {
		t.hub.close()
	}
	// Drain outside any registry lock: Close waits for every in-flight
	// batch and then releases the slots' snapshot readers, completing
	// the RCU grace period.
	t.svc.Close()
	t.state.Store(int32(StateEvicted))
	r.unregister(t)
	return nil
}

// Close evicts every tenant (used at daemon shutdown); safe to call
// concurrently with serving.
func (r *Registry) Close() {
	for {
		ts := r.Tenants()
		if len(ts) == 0 {
			return
		}
		for _, t := range ts {
			// Best effort: concurrent evictions race benignly.
			_ = r.Evict(t.Name())
		}
	}
}

// TenantStatus is one tenant's row in a registry listing.
type TenantStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Segments int    `json:"segments"`
	Shards   int    `json:"shards"`
	Workers  int    `json:"workers"`
	QueueCap int    `json:"queue_cap"`
	QueueLen int    `json:"queue_len"`
	// Version is the tenant store's mutation activity counter.
	Version uint64 `json:"version"`
	// Queries and Rejected are the tenant's decision and backpressure
	// counters; DeniedMutations counts seal/drain conflicts.
	Queries         uint64 `json:"queries"`
	Rejected        uint64 `json:"rejected"`
	DeniedMutations uint64 `json:"denied_mutations"`
}

// Status returns the tenant's listing row.
func (t *Tenant) Status() TenantStatus {
	s := TenantStatus{
		Name:            t.name,
		State:           t.State().String(),
		Workers:         t.cfg.Workers,
		DeniedMutations: t.deniedMutations.Load(),
	}
	if t.svc != nil {
		snap := t.svc.Snapshot()
		s.Segments = len(t.store.Segments())
		s.Shards = t.store.Shards()
		s.QueueCap = snap.QueueCap
		s.QueueLen = snap.QueueLen
		s.Version = snap.Version
		s.Queries = snap.Queries
		s.Rejected = snap.Rejected
	}
	return s
}

// RegistryStatus is the /v1/images listing: every tenant plus the
// registry-wide budget counters.
type RegistryStatus struct {
	Tenants      []TenantStatus `json:"tenants"`
	MaxTenants   int            `json:"max_tenants"`
	WorkerBudget int            `json:"worker_budget"`
	WorkersInUse int            `json:"workers_in_use"`
	Evictions    uint64         `json:"evictions"`
}

// Status assembles the registry listing, tenants sorted by name for a
// stable wire shape.
func (r *Registry) Status() RegistryStatus {
	ts := r.Tenants()
	out := RegistryStatus{
		Tenants:      make([]TenantStatus, 0, len(ts)),
		MaxTenants:   r.cfg.MaxTenants,
		WorkerBudget: r.cfg.WorkerBudget,
		WorkersInUse: r.WorkersInUse(),
		Evictions:    r.Evictions(),
	}
	for _, t := range ts {
		out.Tenants = append(out.Tenants, t.Status())
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Name < out.Tenants[j].Name })
	return out
}
