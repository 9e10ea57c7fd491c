package tenant

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/service"
)

// Handler is the HTTP face of a Registry — the ringd daemon's
// handler. Endpoints:
//
//	GET    /v1/images               — list loaded images and budgets
//	POST   /v1/images               — load an image (inline segments or
//	                                  a file under the image directory)
//	GET    /v1/images/{name}        — one tenant's status and metrics
//	POST   /v1/images/{name}/seal   — freeze the descriptor space
//	POST   /v1/images/{name}/evict  — drain and remove (DELETE works too)
//	POST   /v1/t/{name}/check       — a batch of protection queries
//	                                  (CheckRequest → CheckResponse)
//	POST   /v1/t/{name}/mutate      — a supervisor edit (setbrackets,
//	                                  revoke, restore) via Store.Apply
//	GET    /v1/t/{name}/healthz     — liveness and image shape
//	GET    /v1/t/{name}/metrics     — decision/fault/RCU/lease counters
//	POST   /v1/check                — the same four endpoints for the
//	POST   /v1/mutate                 tenant named "default"
//	GET    /healthz
//	GET    /metrics
//
// Decisions answer 413 for a body larger than BatchLimit×1 KiB, 400
// for a malformed or oversized batch, and 429 with Retry-After when
// Workers+QueueDepth batches are in flight. A mutation answers 404 for
// an unknown segment and 400 for any other refused edit. With no
// default tenant, /healthz still answers (registry-level liveness).
//
// Lifecycle conflicts map to HTTP as follows: a mutation against a
// sealed or draining tenant answers 409 (conflict — the descriptor
// space is frozen or going away), a decision against a draining tenant
// answers 503 with Retry-After (the drain is transient from the
// fleet's point of view: retry another replica), and anything against
// an evicted tenant answers 404. The lifecycle gate runs before the
// request body is read.
type Handler struct {
	reg *Registry
	mux *http.ServeMux
	// imageDir, when non-empty, permits POST /v1/images to read image
	// files from inside this directory ("file" loads are rejected
	// otherwise — the management API must not become a file oracle).
	imageDir string
}

// HandlerOptions configures a Handler.
type HandlerOptions struct {
	// ImageDir permits "file" loads from inside this directory; empty
	// disables file loads.
	ImageDir string
}

// NewHandler wraps reg in the HTTP API.
func NewHandler(reg *Registry, opt HandlerOptions) *Handler {
	h := &Handler{reg: reg, mux: http.NewServeMux(), imageDir: opt.ImageDir}
	h.mux.HandleFunc("GET /v1/images", h.handleList)
	h.mux.HandleFunc("POST /v1/images", h.handleLoad)
	h.mux.HandleFunc("GET /v1/images/{name}", h.handleDetail)
	h.mux.HandleFunc("DELETE /v1/images/{name}", h.handleEvict)
	h.mux.HandleFunc("POST /v1/images/{name}/seal", h.handleSeal)
	h.mux.HandleFunc("POST /v1/images/{name}/evict", h.handleEvict)
	h.mux.HandleFunc("/v1/t/{name}/{endpoint}", h.handleTenant)
	h.mux.HandleFunc("/v1/check", h.onDefault(serveCheck))
	h.mux.HandleFunc("/v1/mutate", h.onDefault(serveMutate))
	h.mux.HandleFunc("/healthz", h.handleHealthz)
	h.mux.HandleFunc("/metrics", h.onDefault(serveMetrics))
	return h
}

// Registry returns the underlying registry.
func (h *Handler) Registry() *Registry { return h.reg }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// Close evicts every tenant (daemon shutdown). Call after the HTTP
// listener has stopped accepting so in-flight requests complete first.
func (h *Handler) Close() { h.reg.Close() }

// maxQueryBytes is the body allowance per query, and per mutation: a
// /v1/check body larger than BatchLimit*maxQueryBytes is refused with
// 413 before it is decoded in full. At the default BatchLimit that is
// 1 MiB, the binary protocol's default frame bound. An image load may
// carry MaxSegments*maxQueryBytes.
const maxQueryBytes = 1 << 10

// writeJSON writes v with a two-space indent, the one wire style of
// every endpoint.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeBody decodes the JSON body of r into v, reading at most limit
// bytes. On failure it answers 413 (body too large) or 400 and
// reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	return decodeFrom(w, http.MaxBytesReader(w, r.Body, limit), limit, v)
}

// decodeFrom is decodeBody over a reader already capped at limit bytes.
func decodeFrom(w http.ResponseWriter, rd io.Reader, limit int64, v interface{}) bool {
	err := json.NewDecoder(rd).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", limit)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error()})
	return false
}

// lifecycleError maps a lifecycle rejection to its HTTP status:
// 409 for mutations against a sealed or draining tenant, 503 with
// Retry-After for decisions against a draining or loading one.
func lifecycleError(w http.ResponseWriter, err error, mutation bool) {
	switch {
	case errors.Is(err, ErrSealed):
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		if mutation {
			writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
			return
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrLoading):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrTenantNotFound):
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

func (h *Handler) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.reg.Status())
}

// loadRequest is the JSON body of POST /v1/images.
type loadRequest struct {
	Name string `json:"name"`
	// Segments carries the image inline; File names an image JSON file
	// inside the daemon's image directory. Exactly one must be set.
	Segments []ImageSegment `json:"segments,omitempty"`
	File     string         `json:"file,omitempty"`
	// Sizing overrides; zero fields take the registry defaults.
	Workers int `json:"workers,omitempty"`
	Queue   int `json:"queue,omitempty"`
	Batch   int `json:"batch,omitempty"`
	Shards  int `json:"shards,omitempty"`
}

type loadResponse struct {
	OK       bool   `json:"ok"`
	Name     string `json:"name"`
	State    string `json:"state"`
	Segments int    `json:"segments"`
	Workers  int    `json:"workers"`
}

// imageFilePath resolves a "file" load against the configured image
// directory, rejecting escapes.
func (h *Handler) imageFilePath(name string) (string, error) {
	if h.imageDir == "" {
		return "", fmt.Errorf("file loads are disabled (no image directory configured)")
	}
	path := filepath.Join(h.imageDir, filepath.Clean("/"+name))
	rel, err := filepath.Rel(h.imageDir, path)
	if err != nil || rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
		return "", fmt.Errorf("image file %q escapes the image directory", name)
	}
	return path, nil
}

func (h *Handler) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !decodeBody(w, r, service.MaxSegments*maxQueryBytes, &req) {
		return
	}
	if !ValidName(req.Name) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad tenant name %q", req.Name)})
		return
	}
	if (len(req.Segments) == 0) == (req.File == "") {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "exactly one of segments or file must be given"})
		return
	}
	var defs []service.Segment
	var err error
	if req.File != "" {
		path, perr := h.imageFilePath(req.File)
		if perr != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: perr.Error()})
			return
		}
		defs, err = LoadImageFile(path)
		if err != nil {
			status := http.StatusBadRequest
			if os.IsNotExist(err) {
				status = http.StatusNotFound
			}
			writeJSON(w, status, ErrorResponse{Error: err.Error()})
			return
		}
	} else {
		defs, err = Segments(req.Segments)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
	}
	t, err := h.reg.Load(req.Name, defs, TenantConfig{
		Workers: req.Workers, QueueDepth: req.Queue, BatchLimit: req.Batch, Shards: req.Shards,
	})
	switch {
	case errors.Is(err, ErrTenantExists), errors.Is(err, ErrTooManyTenants), errors.Is(err, ErrWorkerBudget):
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, loadResponse{
		OK: true, Name: t.Name(), State: t.State().String(),
		Segments: len(t.Store().Segments()), Workers: t.Config().Workers,
	})
}

// detailResponse is GET /v1/images/{name}: the listing row plus the
// tenant's full metrics snapshot.
type detailResponse struct {
	Status  TenantStatus     `json:"status"`
	Metrics service.Snapshot `json:"metrics"`
}

func (h *Handler) handleDetail(w http.ResponseWriter, r *http.Request) {
	t, ok := h.reg.Get(r.PathValue("name"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("%v: %q", ErrTenantNotFound, r.PathValue("name"))})
		return
	}
	writeJSON(w, http.StatusOK, detailResponse{Status: t.Status(), Metrics: t.Service().Snapshot()})
}

type lifecycleResponse struct {
	OK    bool   `json:"ok"`
	Name  string `json:"name"`
	State string `json:"state"`
}

func (h *Handler) handleSeal(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := h.reg.Seal(name); err != nil {
		if errors.Is(err, ErrTenantNotFound) {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, lifecycleResponse{OK: true, Name: name, State: StateSealed.String()})
}

func (h *Handler) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := h.reg.Evict(name); err != nil {
		switch {
		case errors.Is(err, ErrTenantNotFound):
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, lifecycleResponse{OK: true, Name: name, State: StateEvicted.String()})
}

// serveCheck answers a decision batch for t. The body is read whole
// into a pooled buffer and parsed by the codec; a body outside the
// codec's subset, or one whose read failed (413 included), goes to
// encoding/json with the same bytes and the same read error, so it is
// answered exactly as the reference decoder answers it.
func serveCheck(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if err := t.checkable(); err != nil {
		lifecycleError(w, err, false)
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	limit := t.Service().BatchLimit()
	maxBytes := int64(limit) * maxQueryBytes
	sc := checkScratches.Get().(*checkScratch)
	defer sc.release()
	sc.body.Reset()
	_, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes))
	var cqs []CheckQuery
	ok := false
	if err == nil {
		cqs, ok = sc.parse(sc.body.Bytes(), limit)
	}
	if !ok {
		var rd io.Reader = bytes.NewReader(sc.body.Bytes())
		if err != nil {
			rd = io.MultiReader(rd, errReader{err})
		}
		var req CheckRequest
		if !decodeFrom(w, rd, maxBytes, &req) {
			return
		}
		cqs = req.Queries
	}
	if len(cqs) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty batch"})
		return
	}
	if len(cqs) > limit {
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("%v: %d > %d", service.ErrBatchTooLarge, len(cqs), limit)})
		return
	}
	sc.queries = sc.queries[:0]
	for i := range cqs {
		q, err := cqs[i].Query()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("query %d: %v", i, err)})
			return
		}
		sc.queries = append(sc.queries, q)
	}
	if cap(sc.decisions) < len(cqs) {
		sc.decisions = make([]service.Decision, len(cqs))
	}
	ds := sc.decisions[:len(cqs)]
	err = t.SubmitInto(r.Context(), sc.queries, ds)
	switch {
	case err == nil:
		sc.out = AppendCheckResponse(sc.out[:0], ds)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(sc.out)))
		w.WriteHeader(http.StatusOK)
		w.Write(sc.out)
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrDraining), errors.Is(err, ErrTenantNotFound):
		// The tenant began draining after the gate.
		lifecycleError(w, err, false)
	default:
		// The service closed under the request, or the client went away.
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	}
}

// checkScratch is serveCheck's per-request state, pooled: the body,
// the parsed queries, their decisions and the encoded response.
type checkScratch struct {
	requestParser
	body      bytes.Buffer
	queries   []service.Query
	decisions []service.Decision
	out       []byte
}

var checkScratches = sync.Pool{New: func() any { return new(checkScratch) }}

// maxPooledBatch and maxPooledBytes bound what a pooled scratch keeps:
// a larger batch or body is served, then left to the collector.
const (
	maxPooledBatch = 256
	maxPooledBytes = 64 << 10
)

func (sc *checkScratch) release() {
	if cap(sc.queries) > maxPooledBatch || cap(sc.cqs) > maxPooledBatch || sc.body.Cap() > maxPooledBytes {
		return
	}
	checkScratches.Put(sc)
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// serveMutate applies one supervisor edit to t.
func serveMutate(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if err := t.mutable(); err != nil {
		lifecycleError(w, err, true)
		return
	}
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	var req mutateRequest
	if !decodeBody(w, r, maxQueryBytes, &req) {
		return
	}
	version, err := t.Store().Apply(req.mutation())
	switch {
	case errors.Is(err, service.ErrUnknownSegment):
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, mutateResponse{OK: true, Version: version})
	}
}

// serveHealthz reports t's image shape.
func serveHealthz(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if t.State() == StateLoading {
		lifecycleError(w, ErrLoading, false)
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:       true,
		Workers:  t.Service().Workers(),
		Segments: len(t.Store().Segments()),
		Shards:   t.Store().Shards(),
		Version:  t.Store().Version(),
	})
}

// serveMetrics reports t's service snapshot with its lease-hub
// counters merged in: embedding inlines the snapshot's keys and adds a
// "leases" object.
func serveMetrics(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if t.State() == StateLoading {
		lifecycleError(w, ErrLoading, false)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		service.Snapshot
		Leases LeaseStats `json:"leases"`
	}{t.Service().Snapshot(), t.LeaseStats()})
}

func (h *Handler) handleTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t, ok := h.reg.Get(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("%v: %q", ErrTenantNotFound, name)})
		return
	}
	switch endpoint := r.PathValue("endpoint"); endpoint {
	case "check":
		serveCheck(w, r, t)
	case "mutate":
		serveMutate(w, r, t)
	case "healthz":
		serveHealthz(w, r, t)
	case "metrics":
		serveMetrics(w, r, t)
	default:
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown tenant endpoint %q", endpoint)})
	}
}

// onDefault serves a tenant endpoint for the default tenant.
func (h *Handler) onDefault(serve func(http.ResponseWriter, *http.Request, *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := h.reg.Get(DefaultTenant)
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("%v: %q", ErrTenantNotFound, DefaultTenant)})
			return
		}
		serve(w, r, t)
	}
}

// handleHealthz reports the default tenant's health when one is
// loaded, and degrades to a registry-level liveness answer when there
// is none — a fleet daemon with no default image is still alive.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if t, ok := h.reg.Get(DefaultTenant); ok {
		serveHealthz(w, r, t)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK      bool `json:"ok"`
		Tenants int  `json:"tenants"`
	}{OK: true, Tenants: h.reg.Len()})
}
