package controlplane

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/here-ft/here/internal/trace"
)

// statusRecorder captures the response code written by the wrapped
// handler so the RED middleware can label its counters with it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// redKey is one request's RED label set.
type redKey struct {
	route, method string
	code          int
}

// redSeries is the instruments one label set records into, resolved
// on its first request so later ones build no label strings.
type redSeries struct {
	requests *trace.Counter
	errors   *trace.Counter // nil below 500
	seconds  *trace.Histogram
}

// red wraps the route mux with RED (rate / errors / duration)
// metrics: a request counter per {route, method, code}, an error
// counter per {route, method}, and a latency histogram per {route}.
// The route label is the ServeMux pattern that matched (the mux
// stores it on the request before the handler runs, so reading it
// after ServeHTTP returns is race-free), which keeps cardinality
// bounded regardless of path parameters — and lets each label set's
// instruments be looked up once and cached.
func (s *Server) red(h http.Handler) http.Handler {
	reg := s.m.Metrics()
	if reg == nil {
		return h
	}
	var (
		mu     sync.Mutex
		series = map[redKey]*redSeries{}
	)
	resolve := func(k redKey) *redSeries {
		mu.Lock()
		defer mu.Unlock()
		if rs := series[k]; rs != nil {
			return rs
		}
		rs := &redSeries{requests: reg.Counter(
			trace.Labeled("here_http_requests_total",
				"route", k.route, "method", k.method, "code", strconv.Itoa(k.code)),
			"control-plane HTTP requests by route, method, and status code")}
		if k.code >= 500 {
			rs.errors = reg.Counter(
				trace.Labeled("here_http_errors_total", "route", k.route, "method", k.method),
				"control-plane HTTP responses with a 5xx status")
		}
		rs.seconds = reg.Histogram(
			trace.Labeled("here_http_request_seconds", "route", k.route),
			"control-plane HTTP request latency by route",
			trace.DurationBuckets())
		series[k] = rs
		return rs
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		rs := resolve(redKey{route: route, method: r.Method, code: rec.code})
		rs.requests.Inc()
		rs.errors.Inc()
		rs.seconds.Observe(time.Since(start).Seconds())
	})
}
