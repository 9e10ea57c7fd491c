package rings

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/tenant"
)

// writeCountingConn counts the Write calls made on a connection.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestHTTPCheckOneWritePerRequest checks that the HTTP client sends
// each /v1/check request, headers and body, in one write on the
// connection: a body net/http cannot tell is in memory makes it flush
// the headers first, a second write and, at the server, a second read
// for every batch.
func TestHTTPCheckOneWritePerRequest(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{MaxTenants: 1, WorkerBudget: 2})
	if _, err := reg.Load(tenant.DefaultTenant, tenant.DemoImage(), tenant.TenantConfig{Workers: 1}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	h := tenant.NewHandler(reg, tenant.HandlerOptions{})
	hs := httptest.NewServer(h)
	defer func() {
		hs.Close()
		h.Close()
	}()

	rc, err := DialRemote(hs.URL, RemoteConfig{Transport: "http"})
	if err != nil {
		t.Fatalf("DialRemote: %v", err)
	}
	defer rc.Close()
	var writes atomic.Int64
	tr := rc.hc.Transport.(*http.Transport)
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return writeCountingConn{Conn: c, writes: &writes}, nil
	}

	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = Query{Op: OpAccess, Ring: 4, Segment: "user_data", Wordno: uint32(i), Kind: AccessRead}
	}
	dst := make([]Decision, len(queries))
	const calls = 8
	for i := 0; i < calls; i++ {
		if err := rc.CheckInto(queries, dst); err != nil {
			t.Fatalf("CheckInto: %v", err)
		}
	}
	if n := writes.Load(); n != calls {
		t.Errorf("%d CheckInto calls of %d queries made %d writes, want %d", calls, len(queries), n, calls)
	}
}
