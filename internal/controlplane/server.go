package controlplane

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/recovery"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
)

// Defaults for Config's zero values.
const (
	DefaultPumpInterval   = 50 * time.Millisecond
	DefaultRequestTimeout = 15 * time.Second
	DefaultMaxInflight    = 4
	DefaultRetryAfter     = 1 * time.Second
)

// Orchestrator is the fleet surface the control-plane API serves:
// *fleet.Scheduler's, with one placement group for an unsharded fleet.
// It is an interface so tests can wrap the scheduler.
type Orchestrator interface {
	Protect(spec orchestrator.VMSpec) (*orchestrator.Protection, error)
	Unprotect(name string) error
	Failover(name string) (failover.Result, error)
	SetPeriod(name string, d float64, tmax time.Duration) (time.Duration, error)
	SetRecovery(name string, pol recovery.Policy) (recovery.Policy, error)
	Status(name string) (orchestrator.Status, error)
	StatusAll() []orchestrator.Status
	Lookup(name string) (*orchestrator.Protection, error)
	EventsSince(seq uint64) []orchestrator.Event
	LastEventSeq() uint64
	HostsStatus() []orchestrator.HostInfo
	TransportStatus() []transport.PeerStatus
	PlacementMatrix() []placement.MatrixEntry
	Metrics() *trace.Registry
	Clock() vclock.Clock
	StartPump(interval time.Duration, logf func(string, ...any))
	StopPump()
	Ticks() uint64
	GroupStatus() []fleet.GroupStatus
}

// Config parameterizes a control-plane server.
type Config struct {
	// Manager is the orchestrated fleet the API serves; required.
	// The server starts and stops its per-group pumps; hosts may be
	// added before or while serving.
	Manager Orchestrator
	// PumpInterval is the real-time interval between orchestration
	// rounds (default 50 ms). Each round advances the fleet's virtual
	// clock by whatever the protections' checkpoint cycles consume.
	PumpInterval time.Duration
	// RequestTimeout bounds the handling time of every route but the
	// two snapshot reads, GET /v1/vms and GET /v1/vms/{name}, which
	// never wait on a lock (default 15 s); requests that exceed it
	// receive 503 with the "timeout" envelope.
	RequestTimeout time.Duration
	// MaxInflightProtect bounds concurrently admitted mutating
	// operations (protect, unprotect, forced failover); excess
	// requests receive 429 with a Retry-After header (default 4).
	MaxInflightProtect int
	// RetryAfter is the backoff hint attached to 429 responses
	// (default 1 s, rounded up to whole seconds).
	RetryAfter time.Duration
	// Journal, when set, is the manager's write-ahead store; Shutdown
	// flushes it and writes a clean-shutdown snapshot so the next
	// start skips log replay. It should be the same store wired into
	// the Manager's orchestrator.Config.
	Journal *journal.Store
	// Logf receives one line per pump error and served request; nil
	// disables logging.
	Logf func(format string, args ...any)
}

// Server is hered's long-running control-plane daemon core: it serves
// the versioned JSON API over a fleet and starts and stops the fleet's
// pump, which advances the virtual clock in real time. Construct with New,
// start with ListenAndServe (or mount Handler on a test server and
// call StartPump), stop with Shutdown.
type Server struct {
	cfg     Config
	m       Orchestrator
	handler http.Handler
	httpSrv *http.Server

	admitSem chan struct{}

	ready    atomic.Bool
	listSize atomic.Int64 // the last GET /v1/vms body's length
}

// New validates cfg, applies defaults and builds the server. The pump
// is not started yet.
func New(cfg Config) (*Server, error) {
	if cfg.Manager == nil {
		return nil, errors.New("controlplane: nil manager")
	}
	if cfg.PumpInterval <= 0 {
		cfg.PumpInterval = DefaultPumpInterval
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxInflightProtect <= 0 {
		cfg.MaxInflightProtect = DefaultMaxInflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		cfg:      cfg,
		m:        cfg.Manager,
		admitSem: make(chan struct{}, cfg.MaxInflightProtect),
	}
	s.handler = s.buildHandler()
	s.httpSrv = &http.Server{Handler: s.handler}
	return s, nil
}

// Handler returns the fully wrapped HTTP handler (routing, admission,
// timeouts) — what httptest servers should mount.
func (s *Server) Handler() http.Handler { return s.handler }

// Ticks reports completed pump rounds, one per group round.
func (s *Server) Ticks() uint64 { return s.m.Ticks() }

// Ready reports whether the server admits traffic (pump running, not
// draining).
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// buildHandler assembles routing and the serving middleware. The
// mutating endpoints go through admission control. Every route is
// bounded by the request timeout except the two snapshot reads, GET
// /v1/vms and GET /v1/vms/{name}: they read the RCU-published status
// snapshot, take no lock a tick or a mutation holds, and so cannot wait
// — the timeout's goroutine and body buffer would buy them nothing.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	bounded := func(pattern string, h http.HandlerFunc) {
		// The handler body is buffered; a slow request gets 503 with
		// a JSON envelope.
		mux.Handle(pattern, http.TimeoutHandler(h, s.cfg.RequestTimeout,
			`{"error":{"code":"timeout","message":"request timed out"}}`))
	}
	bounded("POST /v1/vms", s.admit(s.handleProtect))
	mux.HandleFunc("GET /v1/vms", s.handleList)
	mux.HandleFunc("GET /v1/vms/{name}", s.handleStatus)
	bounded("DELETE /v1/vms/{name}", s.admit(s.handleUnprotect))
	bounded("POST /v1/vms/{name}/failover", s.admit(s.handleFailover))
	bounded("PATCH /v1/vms/{name}/period", s.handlePeriod)
	bounded("PATCH /v1/vms/{name}/recovery", s.handleRecovery)
	bounded("GET /v1/vms/{name}/trace", s.handleTrace)
	bounded("GET /v1/events", s.handleEvents)
	bounded("GET /v1/hosts", s.handleHosts)
	bounded("GET /v1/placement", s.handlePlacement)
	bounded("GET /v1/transport", s.handleTransport)
	bounded("GET /v1/fleet", s.handleFleet)
	bounded("GET /metrics", s.handleMetrics)
	bounded("GET /healthz", s.handleHealthz)
	bounded("GET /readyz", s.handleReadyz)

	var h http.Handler = mux
	h = s.red(h)
	h = s.logged(h)
	return h
}

// admit is the per-endpoint admission control for the expensive
// mutating operations: a bounded semaphore; a full house answers 429
// with a Retry-After hint instead of queueing unboundedly.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.admitSem <- struct{}{}:
			defer func() { <-s.admitSem }()
			h(w, r)
		default:
			secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, ErrorBody{
				Error: ErrorDetail{
					Code:    "overloaded",
					Message: fmt.Sprintf("too many in-flight operations (limit %d); retry later", s.cfg.MaxInflightProtect),
				},
			})
		}
	}
}

// logged emits one access-log line per request when logging is on.
func (s *Server) logged(h http.Handler) http.Handler {
	if s.cfg.Logf == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		s.logf("%s %s %v", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}

// StartPump starts the fleet's pump — one goroutine per placement
// group, phase-shifted across the interval — and marks the server
// ready. Idempotent while running.
func (s *Server) StartPump() {
	s.m.StartPump(s.cfg.PumpInterval, s.cfg.Logf)
	s.ready.Store(true)
}

// ListenAndServe starts the pump and serves the API on addr, blocking
// until Shutdown (returning nil) or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("controlplane: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve starts the pump and serves the API on ln, blocking until
// Shutdown (returning nil) or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.StartPump()
	s.logf("serving on %s", ln.Addr())
	if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains the server gracefully: readiness flips first (load
// balancers stop sending), the pump is quiesced — the in-flight
// orchestration round completes, no new one starts — and only then
// are the listeners closed, waiting up to ctx for in-flight requests.
// With a journal configured, the drained state is then flushed,
// fsynced and folded into a clean-shutdown snapshot, so a restart
// after SIGTERM recovers from the snapshot alone with no log replay.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.m.StopPump()
	err := s.httpSrv.Shutdown(ctx)
	if s.cfg.Journal != nil {
		// Every mutating request has drained by now; nothing appends
		// behind the snapshot.
		if serr := s.cfg.Journal.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := s.cfg.Journal.Compact(); cerr != nil && err == nil {
			err = cerr
		} else if cerr == nil {
			s.logf("journal: clean-shutdown snapshot written")
		}
	}
	return err
}
