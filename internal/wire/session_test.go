package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/tenant"
)

func TestClientCheckMutatePing(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	w := c.Welcome()
	if w.Version != Version || w.Segments != 3 || w.Shards != 8 || w.Workers != 1 || w.StoreVersion != 0 {
		t.Errorf("welcome = %+v", w)
	}

	ds, err := c.Check(goldenQueries()...)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	tnt, _ := reg.Get(tenant.DefaultTenant)
	want, err := tnt.Submit(context.Background(), goldenQueries())
	if err != nil {
		t.Fatalf("in-process submit: %v", err)
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Errorf("decision %d: wire %+v, in-process %+v", i, ds[i], want[i])
		}
	}

	ver, err := c.Mutate(Mutation{Op: MutSetBrackets, Segment: "data", Read: true, Write: true,
		Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if ver != 2 {
		t.Errorf("store version after mutate = %d, want 2", ver)
	}
	after, err := c.Check(service.Query{Op: service.OpAccess, Ring: 4, Segment: "data", Wordno: 3})
	if err != nil {
		t.Fatalf("check after mutate: %v", err)
	}
	if after[0].Allowed || after[0].VersionLo != 2 || after[0].VersionHi != 2 {
		t.Errorf("post-mutation decision = %+v", after[0])
	}

	h, err := c.Ping()
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if h.StoreVersion != 2 || h.Segments != 3 {
		t.Errorf("pong health = %+v", h)
	}

	// Semantic rejections answer error frames and keep the session
	// usable.
	if _, err := c.Mutate(Mutation{Op: MutRevoke, Segment: "nonesuch"}); err == nil {
		t.Error("mutate of unknown segment succeeded")
	} else {
		var ef *ErrFrame
		if !errors.As(err, &ef) || ef.Code != CodeNotFound || ef.Msg != `unknown segment "nonesuch"` {
			t.Errorf("unknown segment error = %v", err)
		}
	}
	if err := c.CheckInto(nil, nil); err == nil {
		t.Error("empty batch succeeded")
	} else {
		var ef *ErrFrame
		if !errors.As(err, &ef) || ef.Code != CodeBadRequest || ef.Msg != "empty batch" {
			t.Errorf("empty batch error = %v", err)
		}
	}
	if _, err := c.Check(service.Query{Op: service.OpAccess, Ring: 1, Segment: "data"}); err != nil {
		t.Errorf("session unusable after semantic errors: %v", err)
	}
}

func TestClientPipelinesOutOfOrder(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 4})
	_, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := []service.Query{
				{Op: service.OpAccess, Ring: 3, Segno: uint32(g % 3), Wordno: 1},
				{Op: service.OpCall, Ring: 4, Segno: 1, Wordno: 1},
			}
			dst := make([]service.Decision, len(queries))
			for i := 0; i < rounds; i++ {
				if err := c.CheckInto(queries, dst); err != nil {
					errc <- err
					return
				}
				if dst[1].Outcome != core.CallDownward.String() {
					errc <- errors.New("wrong decision for pipelined call query")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestHandshakeRejections(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})

	// expectHandshakeError writes raw as the first bytes and asserts
	// the server answers a session-level Error frame with code, then
	// closes.
	expectHandshakeError := func(t *testing.T, raw []byte, code uint16) {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatalf("write: %v", err)
		}
		h, payload, err := readConnFrame(t, conn)
		if err != nil {
			t.Fatalf("read error frame: %v", err)
		}
		if h.Type != FrameError || h.Corr != 0 {
			t.Fatalf("answered %v corr %d, want session error", h.Type, h.Corr)
		}
		e, err := decodeError(payload)
		if err != nil {
			t.Fatalf("decode error frame: %v", err)
		}
		if e.Code != code {
			t.Errorf("error code %d (%q), want %d", e.Code, e.Msg, code)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var buf []byte
		if _, _, err := readFrame(conn, &buf, DefaultMaxFrame); err == nil {
			t.Error("session stayed open after handshake rejection")
		}
	}

	t.Run("not hello", func(t *testing.T) {
		expectHandshakeError(t, EncodePing(nil, 1), CodeBadRequest)
	})
	t.Run("bad magic", func(t *testing.T) {
		hello, err := EncodeHello(nil, Hello{MinVersion: 1, MaxVersion: 1})
		if err != nil {
			t.Fatal(err)
		}
		hello[HeaderLen] ^= 0xFF
		expectHandshakeError(t, hello, CodeBadRequest)
	})
	t.Run("disjoint versions", func(t *testing.T) {
		hello, err := EncodeHello(nil, Hello{MinVersion: Version + 1, MaxVersion: Version + 4})
		if err != nil {
			t.Fatal(err)
		}
		expectHandshakeError(t, hello, CodeBadRequest)
	})
	t.Run("unknown tenant", func(t *testing.T) {
		hello, err := EncodeHello(nil, Hello{MinVersion: 1, MaxVersion: 1, Tenant: "ghost"})
		if err != nil {
			t.Fatal(err)
		}
		expectHandshakeError(t, hello, CodeNotFound)
	})
	t.Run("client surfaces rejection", func(t *testing.T) {
		_, err := Dial(addr, ClientConfig{Tenant: "ghost"})
		var ef *ErrFrame
		if !errors.As(err, &ef) || ef.Code != CodeNotFound {
			t.Errorf("dial to unknown tenant = %v", err)
		}
	})
}

func TestSealedTenantOnWire(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{})
	if err := reg.Seal(tenant.DefaultTenant); err != nil {
		t.Fatalf("seal: %v", err)
	}
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial to sealed tenant: %v", err)
	}
	defer c.Close()
	if _, err := c.Check(service.Query{Op: service.OpAccess, Ring: 3, Segment: "data"}); err != nil {
		t.Errorf("check against sealed tenant: %v", err)
	}
	// The seal race on the wire: a 409-equivalent error frame, exactly
	// the HTTP conflict mapping.
	_, err = c.Mutate(Mutation{Op: MutRevoke, Segment: "data"})
	var ef *ErrFrame
	if !errors.As(err, &ef) || ef.Code != CodeConflict || ef.Msg != tenant.ErrSealed.Error() {
		t.Errorf("mutate against sealed tenant = %v, want 409 %q", err, tenant.ErrSealed.Error())
	}
	tnt, _ := reg.Get(tenant.DefaultTenant)
	if tnt.DeniedMutations() == 0 {
		t.Error("wire mutation denial not counted")
	}
}

func TestSessionTornFrame(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	srv, addr := startWireServer(t, reg, Config{})
	conn := dialRaw(t, addr)
	frame, err := EncodeCheck(nil, 1, goldenQueries())
	if err != nil {
		t.Fatal(err)
	}
	// Tear the frame mid-payload and drop the connection.
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	conn.Close()

	// The server must shrug the torn session off: a fresh session
	// still serves, and a drain completes promptly (no goroutine is
	// stuck on the dead connection).
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial after torn frame: %v", err)
	}
	if _, err := c.Check(service.Query{Op: service.OpAccess, Ring: 3, Segment: "data"}); err != nil {
		t.Errorf("check after torn frame: %v", err)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown after torn frame: %v", err)
	}
}

func TestSessionOversizeFrameRejectedBeforeAllocation(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	_, addr := startWireServer(t, reg, Config{MaxFrame: 1024})
	conn := dialRaw(t, addr)

	// A hostile length prefix: 1 GiB announced, nothing sent. The
	// bound check runs before any payload buffer grows, so the server
	// answers an error frame immediately instead of trying to read or
	// allocate the announced gigabyte.
	var hdr [HeaderLen]byte
	PutHeader(hdr[:], Header{Len: 1 << 30, Type: FrameCheck, Corr: 5})
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write header: %v", err)
	}
	h, payload, err := readConnFrame(t, conn)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if h.Type != FrameError {
		t.Fatalf("answered %v, want error frame", h.Type)
	}
	e, err := decodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBadRequest || e.Msg != ErrFrameTooLarge.Error() {
		t.Errorf("oversize answer = %d %q", e.Code, e.Msg)
	}
	var buf []byte
	if _, _, err := readFrame(conn, &buf, DefaultMaxFrame); err == nil {
		t.Error("session stayed open after oversize frame")
	}
}

// TestSessionBackpressureShed floods a 1-worker depth-1 tenant whose
// queue is held full by in-process blocker batches: overload must
// answer 429-coded error frames — not hang, not drop — and every
// correlation ID must get exactly one response (conservation). A
// second wave after the blockers stop proves the session recovers and
// serves again.
func TestSessionBackpressureShed(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1, QueueDepth: 1, BatchLimit: 4096})
	_, addr := startWireServer(t, reg, Config{InFlight: 16})
	conn := dialRaw(t, addr)
	tnt, _ := reg.Get(tenant.DefaultTenant)

	queries := make([]service.Query, 64)
	for i := range queries {
		queries[i] = service.Query{Op: service.OpAccess, Ring: 3, Segno: uint32(i % 3), Wordno: 1}
	}
	const shedWave, servedWave = 256, 64
	const frames = shedWave + servedWave

	// The response reader runs concurrently with the flood so neither
	// side can stall on a full socket buffer.
	type tally struct {
		answered     map[uint64]int
		shed, served int
		err          error
	}
	results := make(chan tally, 1)
	firstWave := make(chan struct{})
	go func() {
		res := tally{answered: make(map[uint64]int, frames)}
		signalled := false
		var rbuf []byte
		for {
			if !signalled && len(res.answered) == shedWave {
				signalled = true
				close(firstWave)
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			h, payload, err := readFrame(conn, &rbuf, DefaultMaxFrame)
			if err != nil {
				if err != io.EOF {
					res.err = err
				}
				results <- res
				return
			}
			res.answered[h.Corr]++
			switch h.Type {
			case FrameDecisions:
				n, derr := DecodeDecisionsInto(payload, make([]service.Decision, len(queries)))
				if derr != nil || n != len(queries) {
					res.err = fmt.Errorf("decisions frame corr %d: n=%d err=%v", h.Corr, n, derr)
					results <- res
					return
				}
				res.served++
			case FrameError:
				e, derr := decodeError(payload)
				if derr != nil {
					res.err = derr
					results <- res
					return
				}
				if e.Code != CodeShed || e.Msg != service.ErrQueueFull.Error() {
					res.err = fmt.Errorf("error frame corr %d: %d %q, want %d %q",
						h.Corr, e.Code, e.Msg, CodeShed, service.ErrQueueFull.Error())
					results <- res
					return
				}
				res.shed++
			default:
				res.err = fmt.Errorf("unexpected frame %v for corr %d", h.Type, h.Corr)
				results <- res
				return
			}
		}
	}()

	// Blockers: big in-process batches that keep the single worker busy
	// and the depth-1 queue full while the first wave floods in.
	stop := make(chan struct{})
	var bwg sync.WaitGroup
	for i := 0; i < 3; i++ {
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			big := make([]service.Query, 4096)
			for j := range big {
				big[j] = service.Query{Op: service.OpAccess, Ring: 3, Segno: uint32(j % 3)}
			}
			dst := make([]service.Decision, len(big))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = tnt.SubmitInto(context.Background(), big, dst)
			}
		}()
	}

	// Flood only once the blockers hold the slot and the queue: a third
	// blocker has been shed. Otherwise, on a loaded host, the first wave
	// can be served before the blockers are scheduled at all.
	for deadline := time.Now().Add(10 * time.Second); tnt.Service().Snapshot().Rejected == 0; {
		if time.Now().After(deadline) {
			t.Fatal("blockers never filled the slot and the queue")
		}
		time.Sleep(100 * time.Microsecond)
	}

	var wbuf []byte
	writeWave := func(lo, hi uint64) {
		for corr := lo; corr <= hi; corr++ {
			b, err := EncodeCheck(wbuf, corr, queries)
			if err != nil {
				t.Fatal(err)
			}
			wbuf = b
			if _, err := conn.Write(b); err != nil {
				t.Fatalf("write frame %d: %v", corr, err)
			}
		}
	}
	writeWave(1, shedWave)
	// Hold the blockers until every first-wave response has landed:
	// socket buffering means the server processes the flood long after
	// the writes return.
	select {
	case <-firstWave:
	case res := <-results:
		t.Fatalf("reader quit before the first wave resolved: %v (answered %d)", res.err, len(res.answered))
	}
	close(stop)
	bwg.Wait()
	writeWave(shedWave+1, frames)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("close write: %v", err)
	}

	res := <-results
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.answered) != frames {
		t.Errorf("answered %d of %d correlation IDs", len(res.answered), frames)
	}
	for corr, n := range res.answered {
		if corr == 0 || corr > frames {
			t.Errorf("response for unsent correlation %d", corr)
		}
		if n != 1 {
			t.Errorf("correlation %d answered %d times", corr, n)
		}
	}
	if res.shed == 0 {
		t.Error("no batch shed through a held depth-1 queue")
	}
	if res.served == 0 {
		t.Error("no batch served after the blockers released")
	}
	t.Logf("served %d, shed %d", res.served, res.shed)
}

// TestSessionNonReadingClientEnds pipelines checks down a raw
// connection that never reads its answers. Once the socket buffers
// fill, a response write misses the session's write deadline: the
// session must close the connection and end, and every goroutine it
// started must exit.
func TestSessionNonReadingClientEnds(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1, BatchLimit: 4096})
	srv := NewServer(reg, Config{})
	srv.writeTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	baseline := runtime.NumGoroutine()

	conn := dialRaw(t, ln.Addr().String())
	_ = conn.(*net.TCPConn).SetReadBuffer(4096)
	queries := make([]service.Query, 4096)
	for i := range queries {
		queries[i] = service.Query{Op: service.OpAccess, Ring: 3, Segno: uint32(i % 3), Wordno: 1}
	}
	frame, err := EncodeCheck(nil, 1, queries)
	if err != nil {
		t.Fatal(err)
	}
	// Write until the server closes the connection: its reset fails
	// the write. The deadline only stops a hung test.
	_ = conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	for {
		if _, err := conn.Write(frame); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("server kept the session open with its answers unread")
			}
			break
		}
	}

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		live := len(srv.sessions)
		srv.mu.Unlock()
		n := runtime.NumGoroutine()
		if live == 0 && n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions live, %d goroutines (baseline %d)", live, n, baseline)
		}
	}
}

// TestGracefulDrainKeepsAcceptedBatches shuts the server down while
// clients are mid-pipeline: Shutdown must drain (not force-close),
// every call must resolve (complete or ErrGoAway — never hang), and
// the stream must end with GoAway after the last response.
func TestGracefulDrainKeepsAcceptedBatches(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 2})
	srv, addr := startWireServer(t, reg, Config{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines = 6
	var completed, cut int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries := []service.Query{{Op: service.OpAccess, Ring: 3, Segno: 0, Wordno: 1}}
			dst := make([]service.Decision, 1)
			for {
				err := c.CheckInto(queries, dst)
				mu.Lock()
				if err == nil {
					if !dst[0].Allowed {
						t.Error("drained mid-batch: wrong decision")
					}
					completed++
				} else {
					cut++
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	wg.Wait()
	if completed == 0 {
		t.Error("no call completed before drain")
	}
	t.Logf("completed %d calls, %d cut by drain", completed, cut)
}

// TestGoAwayIsLastFrame drives the drain at the byte level: after
// Shutdown, the stream is zero or more responses, then exactly one
// GoAway, then EOF.
func TestGoAwayIsLastFrame(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	srv, addr := startWireServer(t, reg, Config{})
	conn := dialRaw(t, addr)

	var wbuf []byte
	for corr := uint64(1); corr <= 32; corr++ {
		b, err := EncodeCheck(wbuf, corr, []service.Query{
			{Op: service.OpAccess, Ring: 3, Segno: 0, Wordno: 1}})
		if err != nil {
			t.Fatal(err)
		}
		wbuf = b
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	sawGoAway := false
	var rbuf []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		h, _, err := readFrame(conn, &rbuf, DefaultMaxFrame)
		if err != nil {
			break
		}
		if sawGoAway {
			t.Fatalf("frame %v after goaway", h.Type)
		}
		switch h.Type {
		case FrameDecisions:
		case FrameGoAway:
			sawGoAway = true
		default:
			t.Fatalf("unexpected frame %v during drain", h.Type)
		}
	}
	if !sawGoAway {
		t.Error("drain ended without goaway")
	}
	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// nopConn is a write-discarding net.Conn for the white-box zero-alloc
// gate.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// TestWireCheckZeroAlloc gates the steady-state session loop — read
// frame, decode batch, submit, encode decisions, write — at zero heap
// allocations per batch (the wire analogue of TestSubmitIntoZeroAlloc,
// backed statically by ringvet's hotpath analyzer).
func TestWireCheckZeroAlloc(t *testing.T) {
	reg := newTestRegistry(t, tenant.TenantConfig{Workers: 1})
	tnt, _ := reg.Get(tenant.DefaultTenant)
	s := &session{conn: nopConn{}, cfg: Config{}.withDefaults(), t: tnt}

	// Segno-form queries: the zero-alloc contract covers frames that
	// carry no segment names (name decode allocates its string, by
	// design — the //ring:allow lines in getPackedString).
	queries := []service.Query{
		{Op: service.OpAccess, Ring: 4, Segno: 0, Wordno: 3, Kind: core.AccessRead},
		{Op: service.OpAccess, Ring: 5, Segno: 0, Kind: core.AccessWrite},
		{Op: service.OpCall, Ring: 4, Segno: 1, Wordno: 1},
		{Op: service.OpReturn, Ring: 2, Segno: 1, EffRing: ringp(3)},
		{Op: service.OpEffRing, Ring: 2, Chain: []service.ChainStep{{PR: true, Ring: 3}, {Segno: 2, Ring: 1}}},
	}
	frame, err := EncodeCheck(nil, 9, queries)
	if err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(frame)
	j := &job{}
	var rbuf []byte
	allocs := testing.AllocsPerRun(200, func() {
		br.Reset(frame)
		h, payload, err := readFrame(br, &rbuf, DefaultMaxFrame)
		if err != nil {
			panic(err)
		}
		if err := DecodeCheckInto(payload, &j.batch); err != nil {
			panic(err)
		}
		j.corr = h.Corr
		s.serveJob(j)
	})
	if allocs != 0 {
		t.Fatalf("steady-state wire check loop allocates %.1f times per batch, want 0", allocs)
	}
	// Sanity: the loop produced real decisions, not error frames.
	if !j.batch.Dst[0].Allowed || j.batch.Dst[2].Outcome != core.CallDownward.String() {
		t.Fatalf("zero-alloc loop produced wrong decisions: %+v", j.batch.Dst)
	}
	if binary.BigEndian.Uint64(j.out[8:16]) != 9 {
		t.Fatalf("response frame lost its correlation ID")
	}
}
