package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
	"repro/rings"
)

// shards is the descriptor-store shard count of every rig (the store
// default).
const shards = 8

// workers is every rig's decision worker count: the registry default,
// and the host's CPU count on the 2-CPU machines the workloads are
// sized for.
const workers = 2

// workload is one traffic mix the benchmark runs.
type workload struct {
	name      string
	segments  int
	clients   int
	transport string // "embedded", "wire" or "http"
	gen       GenConfig
	// editsInWindow puts the supervisor's edits in the measured window;
	// otherwise they follow it, under the same load.
	editsInWindow bool
	// cacheSize, when positive, puts a decision-lease cache of that many
	// entries in front of the wire session.
	cacheSize int
	// warmQueries is how many queries each client sends during set-up:
	// enough to open every connection and warm every goroutine, and, for
	// a lease cache, to fill it with the hot set.
	warmQueries int
}

var (
	mixUniform = Mix{Access: 8, Call: 1, Return: 1, EffRing: 1}
	mixChurn   = Mix{Access: 16, Call: 2, Return: 2, EffRing: 1}
)

var workloads = []*workload{
	{name: "embedded-small", segments: 64, clients: 2, transport: "embedded",
		gen: GenConfig{Mix: mixUniform, BatchMin: 1, BatchMax: 4}, warmQueries: 1 << 12},
	{name: "wire-stream", segments: 256, clients: 2, transport: "wire",
		gen: GenConfig{Mix: mixUniform, BatchMin: 64, BatchMax: 64}, warmQueries: 1 << 12},
	{name: "lease-churn", segments: 256, clients: 1, transport: "wire", editsInWindow: true, cacheSize: 4096,
		gen:         GenConfig{Mix: mixChurn, BatchMin: 8, BatchMax: 8, Zipf: true, ZipfS: 1.1, ZipfV: 16, WorkingSet: 1 << 16},
		warmQueries: 1 << 15},
	{name: "http-json", segments: 256, clients: 2, transport: "http",
		gen: GenConfig{Mix: mixUniform, BatchMin: 16, BatchMax: 16}, warmQueries: 1 << 10},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// genConfig is the workload's stream shape with the seed's shared
// working set.
func (w *workload) genConfig(seed int64) GenConfig {
	c := w.gen
	c.TupleSeed = deriveSeed(seed, "tuples")
	return c
}

// rig is one workload's system under test, built the way a user would
// build it: an in-process Checker, or a tenant registry served on
// loopback listeners with clients dialed through rings.DialRemote.
type rig struct {
	w      *workload
	img    *Image
	oracle *Oracle

	chk *rings.Checker

	reg *tenant.Registry
	ten *tenant.Tenant
	hs  *http.Server
	hln *countingListener
	ws  *wire.Server
	wln *countingListener
	rcs []*rings.RemoteChecker // per client; wire clients share one
	sup *wire.Client           // supervisor session on the wire transports
}

// newRig builds the workload's system over img and warms it: every
// client sends warmQueries queries from its own seeded stream, all
// checked by the oracle. It reports how many warm-up batches it sent
// and how many disagreed with the oracle.
func newRig(w *workload, img *Image, seed int64) (r *rig, batches, mismatched uint64, err error) {
	r = &rig{w: w, img: img, oracle: NewOracle(img, shards)}
	if err := r.build(); err != nil {
		r.close()
		return nil, 0, 0, err
	}
	for i := 0; i < w.clients; i++ {
		g := NewGen(img, w.genConfig(seed), deriveSeed(seed, fmt.Sprintf("warm/%d", i)))
		dst := make([]service.Decision, w.gen.BatchMax)
		for sent := 0; sent < w.warmQueries; {
			q := g.Next()
			mark := r.oracle.Mark()
			if err := r.check(i, q, dst); err != nil {
				r.close()
				return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
			}
			batches++
			if r.oracle.CheckBatch(mark, q, dst[:len(q)]) > 0 {
				mismatched++
			}
			sent += len(q)
		}
	}
	return r, batches, mismatched, nil
}

func (r *rig) build() error {
	w := r.w
	if w.transport == "embedded" {
		chk, err := rings.NewCheckerWith(rings.CheckerConfig{Workers: workers, Shards: shards}, r.img.Segs)
		r.chk = chk
		return err
	}
	r.reg = tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: workers})
	ten, err := r.reg.Load(tenant.DefaultTenant, r.img.Segs, tenant.TenantConfig{Workers: workers, Shards: shards})
	if err != nil {
		return err
	}
	r.ten = ten
	if w.transport == "http" {
		if r.hln, err = listenLoopback(); err != nil {
			return err
		}
		r.hs = &http.Server{Handler: tenant.NewHandler(r.reg, tenant.HandlerOptions{})}
		go r.hs.Serve(r.hln)
		for i := 0; i < w.clients; i++ {
			rc, err := rings.DialRemote("http://"+r.hln.Addr().String(), rings.RemoteConfig{Transport: "http"})
			if err != nil {
				return err
			}
			r.rcs = append(r.rcs, rc)
		}
		return nil
	}
	if r.wln, err = listenLoopback(); err != nil {
		return err
	}
	r.ws = wire.NewServer(r.reg, wire.Config{})
	go r.ws.Serve(r.wln)
	rc, err := rings.DialRemote(r.wln.Addr().String(), rings.RemoteConfig{Transport: "wire", CacheSize: w.cacheSize})
	if err != nil {
		return err
	}
	for i := 0; i < w.clients; i++ {
		r.rcs = append(r.rcs, rc)
	}
	r.sup, err = wire.Dial(r.wln.Addr().String(), wire.ClientConfig{})
	return err
}

// check sends one batch on client i's path.
func (r *rig) check(i int, q []service.Query, dst []service.Decision) error {
	if r.chk != nil {
		return r.chk.CheckInto(q, dst)
	}
	return r.rcs[i].CheckInto(q, dst)
}

// mutate sends one supervisor SetBrackets edit giving segno view v,
// over the workload's own transport, and waits for its acknowledgement.
func (r *rig) mutate(segno uint32, v core.SDWView) error {
	switch {
	case r.chk != nil:
		return r.chk.SetBrackets(r.img.Segs[segno].Name, v.Read, v.Write, v.Execute, v.Brackets, v.GateCount)
	case r.sup != nil:
		_, err := r.sup.Mutate(wire.Mutation{Op: wire.MutSetBrackets, Segno: segno,
			Read: v.Read, Write: v.Write, Execute: v.Execute, Brackets: v.Brackets, Gates: v.GateCount})
		return err
	}
	body, err := json.Marshal(map[string]any{
		"op": "setbrackets", "segno": segno, "read": v.Read, "write": v.Write, "execute": v.Execute,
		"r1": v.R1, "r2": v.R2, "r3": v.R3, "gates": v.GateCount,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+r.hln.Addr().String()+"/v1/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("mutate: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// counters is one reading of the layer counters a rig exposes.
type counters struct {
	rejected uint64
	rcu      service.RCUSnapshot
	leases   tenant.LeaseStats
	cache    rings.CacheStats
}

func (r *rig) counters() counters {
	var c counters
	if r.chk != nil {
		s := r.chk.Metrics()
		c.rejected, c.rcu = s.Rejected, s.RCU
		return c
	}
	c.rejected = r.ten.Service().Snapshot().Rejected
	c.rcu = r.ten.Store().RCUStats()
	c.leases = r.ten.LeaseStats()
	if r.w.cacheSize > 0 {
		c.cache = r.rcs[0].CacheStats()
	}
	return c
}

// connections is how many connections the rig's servers accepted.
func (r *rig) connections() int64 {
	var n int64
	for _, l := range []*countingListener{r.hln, r.wln} {
		if l != nil {
			n += l.accepted.Load()
		}
	}
	return n
}

// close stops everything the rig started and waits for it.
func (r *rig) close() {
	if r.chk != nil {
		r.chk.Close()
	}
	seen := map[*rings.RemoteChecker]bool{}
	for _, rc := range r.rcs {
		if !seen[rc] {
			seen[rc] = true
			rc.Close()
		}
	}
	if r.sup != nil {
		r.sup.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.hs != nil {
		if err := r.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			r.hs.Close()
		}
	}
	if r.ws != nil {
		r.ws.Shutdown(ctx)
	}
	if r.reg != nil {
		r.reg.Close()
	}
}
