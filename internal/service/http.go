package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// Server is the HTTP/JSON face of a Service: the ringd daemon's
// handler. Endpoints:
//
//	POST /v1/check   — a batch of protection queries; 429 when
//	                   Workers+QueueDepth batches are in flight, 413
//	                   for a body too large for BatchLimit queries,
//	                   503 once closed
//	POST /v1/mutate  — supervisor mutations (setbrackets, revoke,
//	                   restore), each published as a new shard
//	                   snapshot; 400 for an invalid descriptor
//	GET  /healthz    — liveness and image shape
//	GET  /metrics    — decision counts, faults by kind, cache and
//	                   latency counters (JSON)
type Server struct {
	svc *Service
	mux *http.ServeMux
}

// NewServer wraps svc in the HTTP API.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/check", s.handleCheck)
	s.mux.HandleFunc("/v1/mutate", s.handleMutate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Service returns the underlying decision engine.
func (s *Server) Service() *Service { return s.svc }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains and stops the decision engine. Call after the HTTP
// listener has stopped accepting (http.Server.Shutdown) so in-flight
// requests complete first.
func (s *Server) Close() { s.svc.Close() }

// wireQuery is the JSON form of a Query: access kinds travel as
// strings.
type wireQuery struct {
	Op          string      `json:"op"`
	Ring        uint8       `json:"ring"`
	Segment     string      `json:"segment,omitempty"`
	Segno       uint32      `json:"segno,omitempty"`
	Wordno      uint32      `json:"wordno,omitempty"`
	Kind        string      `json:"kind,omitempty"`
	EffRing     *uint8      `json:"eff_ring,omitempty"`
	SameSegment bool        `json:"same_segment,omitempty"`
	Chain       []ChainStep `json:"chain,omitempty"`
}

// toQuery converts the wire form, rejecting unknown access kinds.
func (wq wireQuery) toQuery() (Query, error) {
	q := Query{
		Op:          Op(wq.Op),
		Ring:        core.Ring(wq.Ring),
		Segment:     wq.Segment,
		Segno:       wq.Segno,
		Wordno:      wq.Wordno,
		SameSegment: wq.SameSegment,
		Chain:       wq.Chain,
	}
	if wq.EffRing != nil {
		r := core.Ring(*wq.EffRing)
		q.EffRing = &r
	}
	switch wq.Kind {
	case "", "read":
		q.Kind = core.AccessRead
	case "write":
		q.Kind = core.AccessWrite
	case "execute", "fetch":
		q.Kind = core.AccessExecute
	default:
		return q, fmt.Errorf("unknown access kind %q", wq.Kind)
	}
	return q, nil
}

// maxQueryBytes is the /v1/check body allowance per query: a body
// larger than BatchLimit*maxQueryBytes is refused with 413 before it
// is decoded in full. At the default BatchLimit that is 1 MiB, the
// binary protocol's default frame bound.
const maxQueryBytes = 1 << 10

type checkRequest struct {
	Queries []wireQuery `json:"queries"`
}

type checkResponse struct {
	Decisions []Decision `json:"decisions"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	limit := s.svc.cfg.BatchLimit
	maxBody := int64(limit) * maxQueryBytes
	var req checkRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", maxBody)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
		return
	}
	if len(req.Queries) > limit {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("%v: %d > %d", ErrBatchTooLarge, len(req.Queries), limit)})
		return
	}
	queries := make([]Query, len(req.Queries))
	for i, wq := range req.Queries {
		q, err := wq.toQuery()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("query %d: %v", i, err)})
			return
		}
		queries[i] = q
	}
	ds, err := s.svc.Submit(r.Context(), queries)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrBatchTooLarge):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	case err != nil:
		// Context cancellation: the client went away.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, checkResponse{Decisions: ds})
}

// mutateRequest is the JSON form of a supervisor mutation.
type mutateRequest struct {
	// Op is "setbrackets", "revoke" or "restore".
	Op      string `json:"op"`
	Segment string `json:"segment,omitempty"`
	Segno   uint32 `json:"segno,omitempty"`

	// setbrackets fields.
	Read    bool   `json:"read,omitempty"`
	Write   bool   `json:"write,omitempty"`
	Execute bool   `json:"execute,omitempty"`
	R1      uint8  `json:"r1,omitempty"`
	R2      uint8  `json:"r2,omitempty"`
	R3      uint8  `json:"r3,omitempty"`
	Gates   uint32 `json:"gates,omitempty"`
}

type mutateResponse struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	st := s.svc.Store()
	segno := req.Segno
	if req.Segment != "" {
		n, ok := st.Segno(req.Segment)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown segment %q", req.Segment)})
			return
		}
		segno = n
	}
	var err error
	switch req.Op {
	case "setbrackets":
		b := core.Brackets{R1: core.Ring(req.R1), R2: core.Ring(req.R2), R3: core.Ring(req.R3)}
		if verr := b.Validate(); verr != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: verr.Error()})
			return
		}
		err = st.SetBrackets(segno, req.Read, req.Write, req.Execute, b, req.Gates)
	case "revoke":
		err = st.Revoke(segno)
	case "restore":
		err = st.Restore(segno)
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown mutation op %q", req.Op)})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{OK: true, Version: st.Version()})
}

type healthResponse struct {
	OK       bool   `json:"ok"`
	Workers  int    `json:"workers"`
	Segments int    `json:"segments"`
	Shards   int    `json:"shards"`
	Version  uint64 `json:"version"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		OK:       true,
		Workers:  s.svc.Workers(),
		Segments: len(s.svc.Store().Segments()),
		Shards:   s.svc.Store().Shards(),
		Version:  s.svc.Store().Version(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Snapshot())
}
