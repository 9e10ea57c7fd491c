package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("wire: server closed")

// ErrGoAway reports a request the server announced it will never
// answer: the session drained before the frame was accepted.
var ErrGoAway = errors.New("wire: server going away")

// Config sizes a wire Server.
type Config struct {
	// MaxFrame bounds a frame payload in bytes; default DefaultMaxFrame.
	// Enforced against the length prefix before any allocation.
	MaxFrame uint32
	// InFlight is the number of check batches a session may have in
	// flight at once (one pooled decode/submit job each); default 8.
	// Further check frames wait in the kernel socket buffer, so a
	// hostile pipeliner cannot balloon the session's memory.
	InFlight int
	// HandshakeTimeout bounds the wait for the Hello frame; default 10s.
	HandshakeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.InFlight <= 0 {
		c.InFlight = 8
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	return c
}

// Server accepts streaming wire sessions against a tenant registry:
// the binary face of ringd, sharing the registry (and therefore the
// /v1/t/{name} semantics) with the HTTP handler.
type Server struct {
	reg *tenant.Registry
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{} //ring:guarded mu
	sessions  map[*session]struct{}     //ring:guarded mu
	closed    bool                      //ring:guarded mu
	wg        sync.WaitGroup

	writeTimeout time.Duration // per frame write; writeTimeout unless a test shortens it
}

// writeTimeout bounds each frame write. A client that stops reading
// would otherwise hold the session's write lock, and with it the
// responders and the shootdown pusher, for as long as it keeps the
// socket open.
const writeTimeout = 10 * time.Second

// NewServer builds a wire server over reg.
func NewServer(reg *tenant.Registry, cfg Config) *Server {
	return &Server{
		reg:       reg,
		cfg:       cfg.withDefaults(),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),

		writeTimeout: writeTimeout,
	}
}

// Serve accepts sessions on ln until the listener fails or the server
// shuts down. It always returns a non-nil error; after Shutdown the
// error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		sess := s.newSession(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.serve()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Shutdown stops accepting sessions and drains the live ones: each
// session stops reading, answers every frame it had accepted, sends
// GoAway and closes. Accepted batches are never dropped. When ctx
// expires first the remaining connections are force-closed and the
// context error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	live := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, sess := range live {
		sess.drain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// job is one pooled check batch in flight: the decode target, the
// response scratch buffer, and the correlation ID to answer under.
type job struct {
	corr  uint64
	batch Batch
	out   []byte
}

// session is one accepted wire connection.
type session struct {
	srv  *Server
	conn net.Conn
	cfg  Config

	t       *tenant.Tenant
	version uint16

	rbuf []byte // reader scratch, reused frame to frame

	wmu          sync.Mutex
	wbuf         []byte //ring:guarded wmu (inline-response scratch)
	writeTimeout time.Duration

	jobs chan *job
	free chan *job

	// sub is the session's lease subscription (nil until the client
	// sends Subscribe); pusherStop/pusherWG bound the pusher goroutine
	// that turns its mailbox into Shootdown frames. Both are touched
	// only by the serve goroutine (readLoop runs on it).
	sub        *tenant.Subscriber
	pusherStop chan struct{}
	pusherWG   sync.WaitGroup

	draining atomic.Bool
}

func (s *Server) newSession(conn net.Conn) *session {
	return &session{
		srv:  s,
		conn: conn,
		cfg:  s.cfg,
		jobs: make(chan *job, s.cfg.InFlight),
		free: make(chan *job, s.cfg.InFlight),

		writeTimeout: s.writeTimeout,
	}
}

// serve runs the session to completion: handshake, responder pool,
// read loop, drain. It owns the connection's lifetime.
func (s *session) serve() {
	defer s.conn.Close()
	if !s.handshake() {
		return
	}
	for i := 0; i < s.cfg.InFlight; i++ {
		s.free <- &job{}
	}
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.InFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.responder()
		}()
	}
	s.readLoop()
	// The reader accepts no more frames. Closing jobs lets the
	// responders finish everything already accepted before exiting, so
	// a graceful drain never drops an accepted batch.
	close(s.jobs)
	wg.Wait()
	// Stop the shootdown pusher before any GoAway: GoAway must be the
	// last frame on the wire, and a push racing it would break that.
	if s.sub != nil {
		close(s.pusherStop)
		s.pusherWG.Wait()
		s.t.Unsubscribe(s.sub)
	}
	if s.draining.Load() {
		s.wmu.Lock()
		s.wbuf = EncodeGoAway(s.wbuf)
		_ = s.sendLocked(s.wbuf)
		s.wmu.Unlock()
		s.linger()
	}
}

// drainLinger bounds how long a drained session waits for the client
// to close its side before the connection is closed regardless.
const drainLinger = 100 * time.Millisecond

// linger ends a drained session without losing its GoAway: it
// half-closes the connection, then discards the client's unread input
// until EOF or drainLinger. Closing a TCP socket with unread input
// sends a reset, and a reset can destroy the GoAway still waiting in
// the client's receive buffer. Shutdown's context bounds the wait too:
// on expiry it closes the connection, which ends the read.
func (s *session) linger() {
	if cw, ok := s.conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	_ = s.conn.SetReadDeadline(time.Now().Add(drainLinger))
	_, _ = io.Copy(io.Discard, s.conn)
}

// drain begins a graceful close: stop reading (a past read deadline
// wakes the blocked reader), answer everything accepted, GoAway.
func (s *session) drain() {
	s.draining.Store(true)
	_ = s.conn.SetReadDeadline(time.Unix(1, 0))
}

// handshake reads the Hello frame, negotiates a version, binds the
// tenant and answers Welcome. It reports whether Welcome was sent; on
// failure an Error frame has been written (best effort).
func (s *session) handshake() bool {
	_ = s.conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	h, payload, err := readFrame(s.conn, &s.rbuf, s.cfg.MaxFrame)
	if err != nil {
		s.frameError(err)
		return false
	}
	if h.Type != FrameHello || h.Corr != 0 {
		s.writeError(0, CodeBadRequest, "expected hello")
		return false
	}
	hello, err := decodeHello(payload)
	if err != nil {
		s.writeError(0, CodeBadRequest, err.Error())
		return false
	}
	v := Version
	if hello.MaxVersion < v {
		v = hello.MaxVersion
	}
	if v < hello.MinVersion {
		s.writeError(0, CodeBadRequest, ErrVersion.Error())
		return false
	}
	name := hello.Tenant
	if name == "" {
		name = tenant.DefaultTenant
	}
	t, ok := s.srv.reg.Get(name)
	if !ok {
		s.writeError(0, CodeNotFound, fmt.Sprintf("unknown tenant %q", name))
		return false
	}
	switch t.State() {
	case tenant.StateActive, tenant.StateSealed:
	case tenant.StateLoading, tenant.StateDraining:
		s.writeError(0, CodeUnavailable, t.State().String())
		return false
	default:
		s.writeError(0, CodeNotFound, fmt.Sprintf("unknown tenant %q", name))
		return false
	}
	s.t = t
	s.version = v
	s.wmu.Lock()
	b, werr := EncodeWelcome(s.wbuf, Welcome{Version: v, Health: s.health()})
	if werr == nil {
		s.wbuf = b
		werr = s.sendLocked(b)
	}
	s.wmu.Unlock()
	if werr != nil {
		return false
	}
	_ = s.conn.SetReadDeadline(time.Time{})
	if s.draining.Load() {
		// A drain that began during the handshake may have had its
		// read deadline cleared just above: set it again, so the read
		// loop stops at once and the welcomed client still gets its
		// GoAway.
		s.drain()
	}
	return true
}

// health reports the bound tenant's image shape.
func (s *session) health() Health {
	st := s.t.Store()
	return Health{
		Segments:     uint32(len(st.Segments())),
		Shards:       uint32(st.Shards()),
		Workers:      uint32(s.t.Service().Workers()),
		StoreVersion: st.Version(),
	}
}

// readLoop accepts frames until the connection fails, the session
// drains, or the client commits a protocol error. Check batches are
// handed to the responder pool (bounded by the free-job pool — the
// session's backpressure); mutations and pings are answered inline,
// off the hot path.
func (s *session) readLoop() {
	for {
		h, payload, err := readFrame(s.conn, &s.rbuf, s.cfg.MaxFrame)
		if err != nil {
			if !s.draining.Load() {
				s.frameError(err)
			}
			return
		}
		switch h.Type {
		case FrameCheck:
			j := <-s.free
			if derr := DecodeCheckInto(payload, &j.batch); derr != nil {
				s.free <- j
				s.writeError(h.Corr, CodeBadRequest, derr.Error())
				return
			}
			j.corr = h.Corr
			s.jobs <- j
		case FrameMutate:
			if !s.handleMutate(h.Corr, payload) {
				return
			}
		case FramePing:
			s.handlePing(h.Corr)
		case FrameSubscribe:
			if !s.handleSubscribe(h.Corr, payload) {
				return
			}
		default:
			s.writeError(h.Corr, CodeBadRequest, "unexpected frame type")
			return
		}
	}
}

// frameError answers a framing failure (torn or malformed frame,
// oversize length prefix) with a best-effort session-level Error
// frame. Plain connection errors (EOF, reset) get nothing.
func (s *session) frameError(err error) {
	if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrBadFrame) {
		s.writeError(0, CodeBadRequest, err.Error())
	}
}

// responder serves pooled check jobs until the jobs channel closes.
//
//ring:hotpath
func (s *session) responder() {
	for j := range s.jobs {
		s.serveJob(j)
		s.free <- j
	}
}

// serveJob answers one decoded check batch: submit through the
// tenant's zero-alloc decision path, encode the decisions into the
// job's pooled buffer, write. Submission failures answer as Error
// frames with the HTTP status mapping.
//
//ring:hotpath
func (s *session) serveJob(j *job) {
	if len(j.batch.Queries) == 0 {
		s.writeError(j.corr, CodeBadRequest, "empty batch")
		return
	}
	if err := s.t.SubmitInto(context.Background(), j.batch.Queries, j.batch.Dst); err != nil {
		code := submitCode(err)
		s.writeError(j.corr, code, err.Error())
		return
	}
	out, err := EncodeDecisions(j.out, j.corr, j.batch.Dst)
	if err != nil {
		// Service decisions always fit the wire widths; defensive only.
		s.writeError(j.corr, CodeBadRequest, err.Error())
		return
	}
	j.out = out
	s.wmu.Lock()
	_ = s.sendLocked(out)
	s.wmu.Unlock()
}

// submitCode maps a check-path rejection to its error-frame code,
// mirroring the HTTP status the JSON surface answers for the same
// condition.
//
//ring:hotpath
func submitCode(err error) uint16 {
	switch {
	case errors.Is(err, service.ErrQueueFull):
		return CodeShed
	case errors.Is(err, service.ErrBatchTooLarge):
		return CodeBadRequest
	case errors.Is(err, tenant.ErrLoading), errors.Is(err, tenant.ErrDraining),
		errors.Is(err, service.ErrClosed), errors.Is(err, tenant.ErrTenantNotFound):
		return CodeUnavailable
	default:
		return CodeUnavailable
	}
}

// mutateCode maps a lifecycle rejection of a mutation to its
// error-frame code (the tenant HTTP handler's mapping: seal and drain
// conflicts are 409).
func mutateCode(err error) uint16 {
	switch {
	case errors.Is(err, tenant.ErrSealed), errors.Is(err, tenant.ErrDraining):
		return CodeConflict
	case errors.Is(err, tenant.ErrLoading):
		return CodeUnavailable
	case errors.Is(err, tenant.ErrTenantNotFound):
		return CodeNotFound
	default:
		return CodeBadRequest
	}
}

// handleMutate answers one Mutate frame inline on the reader. It
// reports false on a protocol error (malformed frame), which closes
// the session; semantic rejections answer an Error frame and keep the
// session open.
func (s *session) handleMutate(corr uint64, payload []byte) bool {
	m, err := decodeMutate(payload)
	if err != nil {
		s.writeError(corr, CodeBadRequest, err.Error())
		return false
	}
	if lerr := s.t.Mutable(); lerr != nil {
		s.writeError(corr, mutateCode(lerr), lerr.Error())
		return true
	}
	version, err := s.t.Store().Apply(m)
	if err != nil {
		code := CodeBadRequest
		if errors.Is(err, service.ErrUnknownSegment) {
			code = CodeNotFound
		}
		s.writeError(corr, code, err.Error())
		return true
	}
	s.wmu.Lock()
	s.wbuf = EncodeMutated(s.wbuf, corr, version)
	_ = s.sendLocked(s.wbuf)
	s.wmu.Unlock()
	return true
}

// handleSubscribe registers the session for descriptor-invalidation
// pushes and acks with a Pong (its StoreVersion is the subscription's
// starting epoch sum). Registration happens BEFORE the ack is written,
// so no mutation can fall between the ack and the first shootdown the
// client could hear about; the pusher starts after the ack, so pushes
// never precede it on the wire. A repeated Subscribe just re-acks.
func (s *session) handleSubscribe(corr uint64, payload []byte) bool {
	if len(payload) != 0 {
		s.writeError(corr, CodeBadRequest, "subscribe carries no payload")
		return false
	}
	first := s.sub == nil
	if first {
		s.sub = s.t.Subscribe()
		s.pusherStop = make(chan struct{})
	}
	s.handlePing(corr)
	if first {
		s.pusherWG.Add(1)
		go s.pusher()
	}
	return true
}

// pusher drains the session's lease mailbox into Shootdown frames (and
// a final LeaseExpire when the tenant revokes the subscription). It
// runs until the subscription expires or the session closes; serve()
// joins it before writing GoAway.
func (s *session) pusher() {
	defer s.pusherWG.Done()
	sub := s.sub
	for {
		select {
		case <-s.pusherStop:
			return
		case <-sub.Notify():
		}
		if sub.Expired() {
			s.writeLeaseExpire(CodeUnavailable)
			return
		}
		sub.Drain(func(shard int, segno uint32, epoch uint64) {
			s.writeShootdown(Shootdown{Shard: uint32(shard), Segno: segno, Epoch: epoch})
		})
	}
}

// writeShootdown pushes one Shootdown frame under the write lock.
func (s *session) writeShootdown(sd Shootdown) {
	s.wmu.Lock()
	b, err := EncodeShootdown(s.wbuf, sd)
	if err == nil {
		s.wbuf = b
		_ = s.sendLocked(b)
	}
	s.wmu.Unlock()
}

// writeLeaseExpire pushes the subscription-revoked frame.
func (s *session) writeLeaseExpire(code uint16) {
	s.wmu.Lock()
	b, err := EncodeLeaseExpire(s.wbuf, LeaseExpire{Code: code})
	if err == nil {
		s.wbuf = b
		_ = s.sendLocked(b)
	}
	s.wmu.Unlock()
}

// handlePing answers one Ping frame inline on the reader.
func (s *session) handlePing(corr uint64) {
	s.wmu.Lock()
	s.wbuf = EncodePong(s.wbuf, corr, s.health())
	_ = s.sendLocked(s.wbuf)
	s.wmu.Unlock()
}

// writeError writes an Error frame under the write lock, reusing the
// session's scratch buffer.
//
//ring:hotpath
func (s *session) writeError(corr uint64, code uint16, msg string) {
	s.wmu.Lock()
	b, err := EncodeError(s.wbuf, corr, code, msg)
	if err == nil {
		s.wbuf = b
		_ = s.sendLocked(b)
	}
	s.wmu.Unlock()
}

// sendLocked writes one encoded frame; the caller holds wmu. Every
// session write goes through it. The write must finish within the
// session's write timeout; one that fails or times out closes the
// connection, which also ends the read loop, so callers may ignore the
// error.
//
//ring:hotpath
func (s *session) sendLocked(b []byte) error {
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	_, err := s.conn.Write(b)
	if err != nil {
		_ = s.conn.Close()
	}
	return err
}

// readFrame reads one frame from r into *buf, which is grown as
// needed and reused across calls. The length prefix is bounded by max
// BEFORE the payload buffer grows, so a hostile prefix cannot force an
// allocation. A frame torn mid-payload surfaces io.ErrUnexpectedEOF.
//
//ring:hotpath
func readFrame(r io.Reader, buf *[]byte, max uint32) (Header, []byte, error) {
	b := *buf
	if cap(b) < HeaderLen {
		//ring:allow first-frame buffer allocation; steady state reuses capacity
		b = make([]byte, HeaderLen)
		*buf = b
	}
	if _, err := io.ReadFull(r, b[:HeaderLen]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(b[:HeaderLen])
	if err != nil {
		return h, nil, err
	}
	if h.Len > max {
		return h, nil, ErrFrameTooLarge
	}
	n := int(h.Len)
	b = ensure(b, n)
	*buf = b
	if _, err := io.ReadFull(r, b[:n]); err != nil {
		return h, nil, err
	}
	return h, b[:n], nil
}
