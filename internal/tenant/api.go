package tenant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/service"
)

// The JSON messages of the decision endpoints. The handler serves
// them, and the HTTP client (rings.RemoteChecker) sends and reads the
// same types, so the wire schema is written down once; codec.go
// encodes and parses the two /v1/check messages without reflection.

// CheckRequest is the body of POST /v1/check.
type CheckRequest struct {
	Queries []CheckQuery `json:"queries"`
}

// CheckQuery is the JSON form of a service.Query: access kinds travel
// as strings.
type CheckQuery struct {
	Op          string              `json:"op"`
	Ring        uint8               `json:"ring"`
	Segment     string              `json:"segment,omitempty"`
	Segno       uint32              `json:"segno,omitempty"`
	Wordno      uint32              `json:"wordno,omitempty"`
	Kind        string              `json:"kind,omitempty"`
	EffRing     *uint8              `json:"eff_ring,omitempty"`
	SameSegment bool                `json:"same_segment,omitempty"`
	Chain       []service.ChainStep `json:"chain,omitempty"`
}

// Query decodes the JSON form, rejecting unknown access kinds. An
// empty kind reads as "read", and "fetch" is a synonym for "execute".
// The query shares cq's EffRing and Chain.
func (cq CheckQuery) Query() (service.Query, error) {
	q := service.Query{
		Op:          service.Op(cq.Op),
		Ring:        core.Ring(cq.Ring),
		Segment:     cq.Segment,
		Segno:       cq.Segno,
		Wordno:      cq.Wordno,
		SameSegment: cq.SameSegment,
		Chain:       cq.Chain,
	}
	if cq.EffRing != nil {
		q.EffRing = (*core.Ring)(cq.EffRing)
	}
	switch cq.Kind {
	case "", "read":
		q.Kind = core.AccessRead
	case "write":
		q.Kind = core.AccessWrite
	case "execute", "fetch":
		q.Kind = core.AccessExecute
	default:
		return q, fmt.Errorf("unknown access kind %q", cq.Kind)
	}
	return q, nil
}

// CheckResponse is the body of a successful POST /v1/check: decision i
// answers query i.
type CheckResponse struct {
	Decisions []service.Decision `json:"decisions"`
}

// HealthResponse is the body of GET /healthz for a loaded tenant: its
// image shape and store version.
type HealthResponse struct {
	OK       bool   `json:"ok"`
	Workers  int    `json:"workers"`
	Segments int    `json:"segments"`
	Shards   int    `json:"shards"`
	Version  uint64 `json:"version"`
}

// ErrorResponse is the body of every 4xx and 5xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// mutateRequest is the body of POST /v1/mutate.
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

// mutation converts the JSON form for Store.Apply.
func (m mutateRequest) mutation() service.Mutation {
	return service.Mutation{
		Op: service.MutOp(m.Op), Segment: m.Segment, Segno: m.Segno,
		Read: m.Read, Write: m.Write, Execute: m.Execute,
		Brackets: core.Brackets{R1: core.Ring(m.R1), R2: core.Ring(m.R2), R3: core.Ring(m.R3)},
		Gates:    m.Gates,
	}
}

type mutateResponse struct {
	OK      bool   `json:"ok"`
	Version uint64 `json:"version"`
}
