package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
)

// redLines is the RED part of a scrape, without the latency buckets
// and sums, which depend on timing.
func redLines(t *testing.T, reg *trace.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "here_http") && !strings.Contains(l, "_bucket{") && !strings.Contains(l, "_sum{") {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestREDSeriesUnchanged: with its instruments cached per label set,
// RED exposes exactly the series and counts that resolving them by
// name on every request exposes, for 2xx, 4xx, unmatched and 5xx
// traffic.
func TestREDSeriesUnchanged(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	s, err := New(Config{Manager: m}) // the pump never starts: /readyz is 503
	if err != nil {
		t.Fatal(err)
	}
	traffic := []struct{ method, path, route string }{
		{"GET", "/v1/vms", "GET /v1/vms"},
		{"GET", "/v1/vms", "GET /v1/vms"},
		{"GET", "/v1/vms/nope", "GET /v1/vms/{name}"},
		{"GET", "/readyz", "GET /readyz"},
		{"GET", "/readyz", "GET /readyz"},
		{"GET", "/healthz", "GET /healthz"},
		{"PUT", "/v1/hosts", "unmatched"},
		{"GET", "/nowhere", "unmatched"},
	}
	oracle := trace.NewRegistry()
	for _, r := range traffic {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(r.method, r.path, nil))
		oracle.Counter(trace.Labeled("here_http_requests_total",
			"route", r.route, "method", r.method, "code", strconv.Itoa(rec.Code)),
			"control-plane HTTP requests by route, method, and status code").Inc()
		if rec.Code >= 500 {
			oracle.Counter(trace.Labeled("here_http_errors_total", "route", r.route, "method", r.method),
				"control-plane HTTP responses with a 5xx status").Inc()
		}
		oracle.Histogram(trace.Labeled("here_http_request_seconds", "route", r.route),
			"control-plane HTTP request latency by route", trace.DurationBuckets()).Observe(0)
	}
	got, want := redLines(t, m.Metrics()), redLines(t, oracle)
	if got != want {
		t.Fatalf("RED series\n got:\n%s\nwant:\n%s", got, want)
	}
	for _, series := range []string{`code="503"`, `code="404"`, `code="405"`, "here_http_errors_total"} {
		if !strings.Contains(got, series) {
			t.Fatalf("the traffic never produced %s:\n%s", series, got)
		}
	}
}

// TestConcurrentReads hits the snapshot reads and a bounded route from
// several goroutines while the pump ticks: the RED cache and the body
// pool are shared by every request, and each request is counted once.
func TestConcurrentReads(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xkxk")
	for _, name := range []string{"a", "b", "c"} {
		if _, err := m.Protect(orchestrator.VMSpec{Name: name, MemoryBytes: 64 << 12, VCPUs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := newTestServer(t, m, nil)
	s.StartPump()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	const workers, each = 4, 25
	paths := []string{"/v1/vms", "/v1/vms/a", "/v1/vms/c", "/v1/hosts"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				resp, err := http.Get(ts.URL + paths[(w+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				var body any
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %d, %v", resp.Request.URL.Path, resp.StatusCode, err)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, route := range []string{"GET /v1/vms", "GET /v1/vms/{name}", "GET /v1/hosts"} {
		total += m.Metrics().Counter(trace.Labeled("here_http_requests_total",
			"route", route, "method", "GET", "code", "200"), "").Value()
	}
	if total != workers*each {
		t.Fatalf("RED counted %v requests, want %d", total, workers*each)
	}
}
