// Command ringd is the protection-decision daemon: an image registry
// serving N independent descriptor spaces (tenants) from one process.
// Each loaded machine image becomes a tenant with its own sharded
// descriptor store, its own decision slots — each deciding over
// immutable RCU descriptor snapshots pinned per batch, so decisions
// never lock against supervisor edits — and its own admission bound,
// so one hot tenant sheds its own overload instead of starving the
// rest. Every batch is decided on the goroutine serving its request.
//
// Usage:
//
//	ringd [-addr :8642] [-listen-wire :8643] [-workers 4] [-queue 64]
//	      [-batch 1024] [-shards 8] [-image image.json]
//	      [-max-tenants 16] [-worker-budget 64] [-image-dir dir]
//
// Endpoints:
//
//	GET  /v1/images              list loaded images, states, budgets
//	POST /v1/images              load an image as a new tenant
//	GET  /v1/images/{name}       one tenant's status and metrics
//	POST /v1/images/{name}/seal  freeze the tenant's descriptor space
//	POST /v1/images/{name}/evict drain and remove the tenant
//	POST /v1/t/{name}/check      tenant-scoped decision batch
//	POST /v1/t/{name}/mutate     tenant-scoped supervisor edit
//	GET  /v1/t/{name}/healthz    tenant liveness and image shape
//	GET  /v1/t/{name}/metrics    tenant decision/fault/RCU/lease counters
//
//	POST /v1/check               the same four endpoints, served
//	POST /v1/mutate              directly for the tenant named
//	GET  /healthz                "default"
//	GET  /metrics
//
// With -listen-wire, a second TCP listener serves the binary streaming
// protocol (internal/wire): one persistent connection per client,
// pipelined length-prefixed decision batches with client-assigned
// correlation IDs, the same tenant semantics as /v1/t/{name} (a session
// binds its tenant at the Hello handshake; seal/drain races answer
// 409-equivalent error frames). A session that sends a Subscribe frame
// additionally receives the tenant's descriptor-invalidation stream:
// one Shootdown push per mutation (naming the publishing shard's new
// epoch) and a final LeaseExpire when the tenant drains — the feed a
// client-side decision-lease cache (rings.DialRemote with CacheSize)
// stays coherent by. Per-tenant subscriber/shootdown/expire counters
// appear under "leases" in /metrics. Each frame the server writes must
// go out within 10 s; a client that stops reading loses its session.
// See DESIGN.md "Wire protocol" and "Distributed decision leases".
//
// The startup image (the -image file, or a built-in demonstration
// image) is loaded as the tenant named "default". Image files are JSON
// objects {"segments": [...]}, each segment carrying a name, size,
// access flags, ring brackets and gate count; POST /v1/images accepts
// the same segments inline, or a "file" name resolved inside -image-dir
// when that flag is set. Mutations against a sealed or draining tenant
// answer 409. On SIGINT/SIGTERM the daemon stops accepting, closes
// connections that have not yet sent a request, lets every in-flight
// batch finish, evicts every tenant and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Test hooks: when non-nil, testHookReady receives the bound HTTP
// listen address (and testHookWireReady the bound wire address) once
// serving, and closing testHookShutdown triggers the same graceful
// drain a signal would.
var (
	testHookReady     chan<- string
	testHookWireReady chan<- string
	testHookShutdown  <-chan struct{}
)

// HTTP server timeouts: a client gets readHeaderTimeout to send its
// request headers and readTimeout to send the whole request, a response
// must be written within writeTimeout of the request headers, and an
// idle keep-alive connection closes after idleTimeout, so a client that
// sends half a request, or stops reading its answer, cannot hold its
// connection and goroutine open forever. Bodies are capped and a batch
// is decided in microseconds, so an honest client needs far less.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server around h.
func newHTTPServer(h http.Handler) *http.Server {
	var fresh freshConns
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		WriteTimeout: writeTimeout, IdleTimeout: idleTimeout, ConnState: fresh.track}
	hs.RegisterOnShutdown(fresh.drain)
	return hs
}

// freshConns tracks the HTTP connections that have not yet carried a
// request. Shutdown counts such a connection as active for its first
// 5 s, so one idle dial would hold the drain that long; it carries no
// request, so the drain closes it instead.
type freshConns struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{} //ring:guarded mu
	draining bool                  //ring:guarded mu
}

func (f *freshConns) track(c net.Conn, state http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case state == http.StateNew && f.draining:
		c.Close()
	case state == http.StateNew:
		if f.conns == nil {
			f.conns = make(map[net.Conn]struct{})
		}
		f.conns[c] = struct{}{}
	default:
		delete(f.conns, c)
	}
}

// drain closes every connection still waiting for its first request,
// and any accepted from here on.
func (f *freshConns) drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.draining = true
	for c := range f.conns {
		c.Close()
	}
	f.conns = nil
}

// loadImage reads a JSON image file, or returns the demo image for an
// empty path.
func loadImage(path string) ([]service.Segment, error) {
	if path == "" {
		return tenant.DemoImage(), nil
	}
	return tenant.LoadImageFile(path)
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8642", "listen address")
	wireAddr := fs.String("listen-wire", "", "TCP address for the binary streaming protocol (disabled when empty)")
	workers := fs.Int("workers", 4, "default tenant's decision slots (batches decided at once), one snapshot reader each")
	queue := fs.Int("queue", 64, "callers allowed to wait for a decision slot per tenant (beyond that, 429)")
	batchLimit := fs.Int("batch", 1024, "maximum queries per batch")
	shards := fs.Int("shards", 0, "descriptor-store shards per tenant (power of two; 0 = default 8)")
	imagePath := fs.String("image", "", "default tenant's machine image JSON (built-in demo image when empty)")
	maxTenants := fs.Int("max-tenants", 16, "maximum simultaneously loaded images")
	workerBudget := fs.Int("worker-budget", 64, "total decision slots across all tenants")
	imageDir := fs.String("image-dir", "", "directory POST /v1/images may load \"file\" images from (disabled when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	defs, err := loadImage(*imagePath)
	if err != nil {
		fmt.Fprintln(stderr, "ringd:", err)
		return 1
	}
	reg := tenant.NewRegistry(tenant.Config{
		MaxTenants:   *maxTenants,
		WorkerBudget: *workerBudget,
		Defaults: tenant.TenantConfig{
			Workers:    2,
			QueueDepth: *queue,
			BatchLimit: *batchLimit,
			Shards:     *shards,
		},
	})
	def, err := reg.Load(tenant.DefaultTenant, defs, tenant.TenantConfig{
		Workers:    *workers,
		QueueDepth: *queue,
		BatchLimit: *batchLimit,
		Shards:     *shards,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ringd:", err)
		return 1
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{ImageDir: *imageDir})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ringd:", err)
		h.Close()
		return 1
	}
	hs := newHTTPServer(h)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// The wire listener shares the registry, so both transports answer
	// from the same descriptor snapshots.
	var ws *wire.Server
	wireErr := make(chan error, 1)
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			fmt.Fprintln(stderr, "ringd:", err)
			h.Close()
			return 1
		}
		ws = wire.NewServer(reg, wire.Config{})
		go func() { wireErr <- ws.Serve(wln) }()
		fmt.Fprintf(stdout, "ringd: wire protocol v%d on %s\n", wire.Version, wln.Addr())
		if testHookWireReady != nil {
			testHookWireReady <- wln.Addr().String()
		}
	}

	fmt.Fprintf(stdout, "ringd: serving image %q (%d segments) on %s (%d workers, queue %d, %d shards; up to %d tenants over %d workers)\n",
		def.Name(), len(defs), ln.Addr(), def.Service().Workers(), def.Service().QueueDepth(),
		def.Store().Shards(), *maxTenants, *workerBudget)
	if testHookReady != nil {
		testHookReady <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "ringd:", err)
		h.Close()
		return 1
	case err := <-wireErr:
		fmt.Fprintln(stderr, "ringd:", err)
		h.Close()
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "ringd: %v: draining %d tenants\n", s, reg.Len())
	case <-testHookShutdown:
		fmt.Fprintf(stdout, "ringd: shutdown requested: draining %d tenants\n", reg.Len())
	}

	// Graceful shutdown: stop accepting, finish in-flight HTTP requests
	// and drain wire sessions (accepted batches complete, each session
	// ends with a GoAway), then evict every tenant.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "ringd: shutdown:", err)
	}
	if ws != nil {
		if err := ws.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "ringd: wire shutdown:", err)
		}
	}
	h.Close()
	fmt.Fprintln(stdout, "ringd: drained, exiting")
	return 0
}
