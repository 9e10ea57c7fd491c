package rings

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tenant"
	"repro/internal/wire"
)

// RemoteConfig sizes a RemoteChecker built with DialRemote. The zero
// value picks the transport from the target's scheme and the "default"
// tenant.
type RemoteConfig struct {
	// Transport selects "http" (request/response JSON against ringd's
	// /v1 surface) or "wire" (one persistent binary streaming session,
	// pipelined batches). Empty infers from the target: an http:// or
	// https:// URL means HTTP, a wire:// URL or bare host:port means
	// wire.
	Transport string
	// Tenant names the image the session decides against; empty means
	// "default". Over HTTP this routes through /v1/t/{name}; over the
	// wire the session binds the tenant at the Hello handshake.
	Tenant string
	// Timeout bounds each HTTP request, or the wire dial+handshake;
	// default 30s.
	Timeout time.Duration

	// CacheSize, when positive, puts a bounded decision-lease cache in
	// front of the session (wire transport only): decisions are cached
	// by query tuple, tagged with their shard publication epoch, kept
	// coherent by the server's shootdown stream, and bounded in
	// staleness by CacheTTL. See lease.go for the staleness argument.
	CacheSize int
	// CacheTTL bounds how long a lease may be served if the shootdown
	// stream lags; default 1s when CacheSize is set.
	CacheTTL time.Duration
}

// RemoteChecker is Checker's remote mode: the same batch-decision
// surface served by a running ringd, over either transport. A single
// RemoteChecker is safe for concurrent use; on the wire transport
// concurrent CheckInto calls pipeline down one session and complete
// out of order by correlation ID.
type RemoteChecker struct {
	// wcp holds the wire session (nil on the HTTP transport); cached
	// checkers swap in a fresh session when the subscription stream
	// lapses and a redial succeeds.
	wcp      atomic.Pointer[wire.Client]
	wireAddr string
	wcfg     wire.ClientConfig

	cache      *leaseCache // nil when dialed without CacheSize
	redialMu   sync.Mutex
	lastRedial atomic.Int64
	closed     atomic.Bool

	hc     *http.Client
	target string // HTTP base URL, tenant-scoped
	health string // HTTP healthz URL
}

// RemoteHealth is the served image's shape, from GET /healthz or a
// wire ping frame.
type RemoteHealth struct {
	Workers  int
	Segments int
	Shards   int
	Version  uint64
}

// DialRemote connects to a ringd at target. HTTP targets are base
// URLs ("http://host:8642"); wire targets are "wire://host:8643" or a
// bare "host:8643". The wire transport holds one TCP session open
// until Close.
func DialRemote(target string, cfg RemoteConfig) (*RemoteChecker, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	transport := cfg.Transport
	if transport == "" {
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
			transport = "http"
		} else {
			transport = "wire"
		}
	}
	switch transport {
	case "http":
		if cfg.CacheSize > 0 {
			return nil, errors.New("rings: decision-lease cache requires the wire transport (no shootdown stream over HTTP)")
		}
		base := strings.TrimSuffix(target, "/")
		// A transport of its own: http.DefaultTransport keeps two idle
		// connections per host, so a checker shared by more goroutines
		// would redial on most calls.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = tr.MaxIdleConns
		rc := &RemoteChecker{
			hc:     &http.Client{Timeout: cfg.Timeout, Transport: tr},
			target: base,
			health: base + "/healthz",
		}
		if cfg.Tenant != "" {
			rc.target = base + "/v1/t/" + cfg.Tenant
			rc.health = rc.target + "/healthz"
		} else {
			rc.target = base + "/v1"
		}
		return rc, nil
	case "wire":
		addr := strings.TrimPrefix(target, "wire://")
		rc := &RemoteChecker{wireAddr: addr}
		rc.wcfg = wire.ClientConfig{Tenant: cfg.Tenant, DialTimeout: cfg.Timeout}
		if cfg.CacheSize > 0 {
			ttl := cfg.CacheTTL
			if ttl <= 0 {
				ttl = time.Second
			}
			cache := newLeaseCache(cfg.CacheSize, ttl)
			rc.cache = cache
			rc.wcfg.OnShootdown = cache.shootdown
			rc.wcfg.OnLeaseExpire = func(le wire.LeaseExpire) {
				cache.expires.Add(1)
				cache.lapse()
			}
			rc.wcfg.OnClose = func(error) { cache.lapse() }
		}
		wc, err := wire.Dial(addr, rc.wcfg)
		if err != nil {
			return nil, err
		}
		if rc.cache != nil {
			if _, err := wc.Subscribe(); err != nil {
				wc.Close()
				return nil, err
			}
		}
		rc.wcp.Store(wc)
		return rc, nil
	default:
		return nil, fmt.Errorf("rings: unknown remote transport %q", cfg.Transport)
	}
}

// Close releases the transport (the wire session sends nothing further
// and hangs up).
func (rc *RemoteChecker) Close() error {
	rc.closed.Store(true)
	if wc := rc.wcp.Load(); wc != nil {
		return wc.Close()
	}
	rc.hc.CloseIdleConnections()
	return nil
}

// Check answers a batch of queries against the remote image.
func (rc *RemoteChecker) Check(queries ...Query) ([]Decision, error) {
	dst := make([]Decision, len(queries))
	if err := rc.CheckInto(queries, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// CheckInto answers a batch into a caller-supplied decision slice,
// mirroring Checker.CheckInto. A shed batch (the remote queue was
// full) reports ErrQueueFull, whichever transport carried it. An empty
// batch is answered here, with no round trip.
func (rc *RemoteChecker) CheckInto(queries []Query, dst []Decision) error {
	if len(dst) < len(queries) {
		return errors.New("rings: dst shorter than queries")
	}
	if len(queries) == 0 {
		return nil
	}
	if rc.cache != nil {
		return rc.cachedCheckInto(queries, dst)
	}
	if wc := rc.wcp.Load(); wc != nil {
		return mapWireErr(wc.CheckInto(queries, dst))
	}
	return rc.httpCheckInto(queries, dst[:len(queries)])
}

// httpCheckInto posts one batch, encoded by the tenant codec, and
// parses the decisions straight into dst, falling back to
// encoding/json for a response outside the codec's subset. The body is
// a *bytes.Reader, which net/http knows is in memory: it sends the
// request headers and body in one write, and can replay the body when
// it retries a request on a dead keep-alive connection.
func (rc *RemoteChecker) httpCheckInto(queries []Query, dst []Decision) error {
	body := tenant.AppendCheckRequest(make([]byte, 0, tenant.CheckRequestCap(queries)), queries)
	req, err := http.NewRequest(http.MethodPost, rc.target+"/check", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rc.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return ErrQueueFull
	}
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	buf := responseBufs.Get().(*bytes.Buffer)
	defer putResponseBuf(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	n, ok := tenant.ParseCheckResponse(buf.Bytes(), dst)
	if !ok {
		var cr tenant.CheckResponse
		if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&cr); err != nil {
			return err
		}
		if n = len(cr.Decisions); n == len(dst) {
			copy(dst, cr.Decisions)
		}
	}
	if n != len(dst) {
		return fmt.Errorf("rings: %d decisions for %d queries", n, len(dst))
	}
	return nil
}

// responseBufs recycles the buffers responses are read into.
var responseBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf bounds the buffers kept for reuse: one large batch's
// are left to the collector.
const maxPooledBuf = 64 << 10

func putResponseBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		responseBufs.Put(buf)
	}
}

// Health reports the served image's shape.
func (rc *RemoteChecker) Health() (RemoteHealth, error) {
	if wc := rc.wcp.Load(); wc != nil {
		h, err := wc.Ping()
		if err != nil {
			return RemoteHealth{}, mapWireErr(err)
		}
		return RemoteHealth{Workers: int(h.Workers), Segments: int(h.Segments),
			Shards: int(h.Shards), Version: h.StoreVersion}, nil
	}
	resp, err := rc.hc.Get(rc.health)
	if err != nil {
		return RemoteHealth{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return RemoteHealth{}, httpError(resp)
	}
	var h tenant.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return RemoteHealth{}, err
	}
	if !h.OK {
		return RemoteHealth{}, errors.New("rings: remote unhealthy")
	}
	return RemoteHealth{Workers: h.Workers, Segments: h.Segments, Shards: h.Shards, Version: h.Version}, nil
}

// mapWireErr folds the wire transport's shed frame back into the
// vocabulary in-process callers already handle.
func mapWireErr(err error) error {
	var ef *wire.ErrFrame
	if errors.As(err, &ef) && ef.Code == wire.CodeShed {
		return ErrQueueFull
	}
	return err
}

// httpError reads a JSON error body into an error value.
func httpError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	var e tenant.ErrorResponse
	if json.Unmarshal(msg, &e) == nil && e.Error != "" {
		return fmt.Errorf("rings: remote: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("rings: remote: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
}
