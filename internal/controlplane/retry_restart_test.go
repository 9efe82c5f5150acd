package controlplane

// Client retry discipline and the server's clean-shutdown journal
// snapshot. White-box: the tests swap the client's sleep function to
// record backoff delays instead of waiting them out.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// addFleetHosts adds fresh hosts of the given kinds to m, all on clock.
func addFleetHosts(t *testing.T, m *fleet.Scheduler, clock vclock.Clock, kinds string) []*hypervisor.Host {
	t.Helper()
	var hosts []*hypervisor.Host
	for i, c := range kinds {
		var h *hypervisor.Host
		var err error
		name := string(c) + strconv.Itoa(i)
		if c == 'x' {
			h, err = xen.New(name, clock)
		} else {
			h, err = kvm.New(name, clock)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddHost(h); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	return hosts
}

// retryClient builds a client against url with recorded sleeps and no
// jitter, so backoff delays are exact.
func retryClient(url string, attempts int, base, max time.Duration) (*Client, *[]time.Duration) {
	c := NewClient(url)
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.SetRetry(RetryPolicy{MaxAttempts: attempts, BaseBackoff: base, MaxBackoff: max})
	return c, &slept
}

func TestClientRetries429HonoringRetryAfter(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 2 {
			w.Header().Set("Retry-After", "2")
			writeJSON(w, http.StatusTooManyRequests, ErrorBody{
				Error: ErrorDetail{Code: "overloaded", Message: "busy"},
			})
			return
		}
		writeJSON(w, http.StatusCreated, VMStatus{Name: "vm"})
	}))
	defer ts.Close()

	// A 429 means the request was never admitted, so even the POST is
	// safe to re-send.
	c, slept := retryClient(ts.URL, 4, 10*time.Millisecond, 5*time.Second)
	if _, err := c.Protect(ProtectRequest{Name: "vm", MemoryBytes: 4096, VCPUs: 1}); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	want := []time.Duration{2 * time.Second, 2 * time.Second}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("slept %v, want the server's Retry-After hint %v", *slept, want)
	}
}

func TestClientCapsRetryAfterAtMaxBackoff(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			w.Header().Set("Retry-After", "60")
			writeJSON(w, http.StatusTooManyRequests, ErrorBody{
				Error: ErrorDetail{Code: "overloaded", Message: "busy"},
			})
			return
		}
		writeJSON(w, http.StatusOK, VMList{})
	}))
	defer ts.Close()

	c, slept := retryClient(ts.URL, 3, 10*time.Millisecond, 2*time.Second)
	if _, err := c.VMs(); err != nil {
		t.Fatalf("VMs: %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("slept %v, want the 60s hint capped at 2s", *slept)
	}
}

func TestClientJitterStaysBounded(t *testing.T) {
	c := NewClient("127.0.0.1:0")
	c.SetRetry(RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Second, MaxBackoff: time.Second, Jitter: 0.5,
	})
	for i := 0; i < 100; i++ {
		d := c.backoff(1, &APIError{StatusCode: http.StatusServiceUnavailable})
		if d < 500*time.Millisecond || d > 1500*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±50%% of 1s", d)
		}
	}
}

func TestClientRetriesTransientFailuresOnGETOnly(t *testing.T) {
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: ErrorDetail{Code: "draining", Message: "shutting down"},
		})
	}))
	defer ts.Close()

	c, slept := retryClient(ts.URL, 3, time.Millisecond, time.Millisecond)
	if _, err := c.VMs(); err == nil {
		t.Fatal("VMs succeeded against a 503 server")
	}
	if attempts != 3 {
		t.Fatalf("GET attempts = %d, want the full retry budget of 3", attempts)
	}

	// A 503 POST may have partially executed; it must not be re-sent.
	attempts, *slept = 0, nil
	if _, err := c.Protect(ProtectRequest{Name: "vm", MemoryBytes: 4096, VCPUs: 1}); err == nil {
		t.Fatal("Protect succeeded against a 503 server")
	}
	if attempts != 1 || len(*slept) != 0 {
		t.Fatalf("POST attempts = %d (slept %v), want exactly 1 with no retry", attempts, *slept)
	}
}

func TestClientRetriesTransportErrorsOnGET(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // connections now refused

	c, slept := retryClient(url, 3, time.Millisecond, time.Millisecond)
	if _, err := c.VMs(); err == nil {
		t.Fatal("VMs succeeded against a dead server")
	}
	if len(*slept) != 2 {
		t.Fatalf("%d retries of the refused GET, want 2", len(*slept))
	}
	*slept = nil
	if _, err := c.Protect(ProtectRequest{Name: "vm", MemoryBytes: 4096, VCPUs: 1}); err == nil {
		t.Fatal("Protect succeeded against a dead server")
	}
	if len(*slept) != 0 {
		t.Fatalf("refused POST was retried %d times, want 0", len(*slept))
	}
}

// TestShutdownWritesCleanSnapshot is the graceful-restart path: after
// Shutdown the journal holds a clean snapshot, so the next lifetime
// opens with zero replayed records and resumes every protection.
func TestShutdownWritesCleanSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewSim()
	m, err := fleet.New(fleet.Config{Orchestrator: orchestrator.Config{Clock: clk, Journal: store}})
	if err != nil {
		t.Fatal(err)
	}
	hosts := addFleetHosts(t, m, clk, "xk")
	if _, err := m.Protect(orchestrator.VMSpec{
		Name: "vm", MemoryBytes: 256 * memory.PageSize, VCPUs: 1,
		WorkloadSpec: orchestrator.WorkloadSpec{Name: "membench", Seed: 5},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := m.Status("vm")
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Manager: m, Journal: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, rep, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !rep.Clean || rep.Replayed != 0 || rep.TornBytes != 0 {
		t.Fatalf("reopen after graceful shutdown = %+v, want a clean snapshot with no log replay", rep)
	}

	m2, err := fleet.New(fleet.Config{Orchestrator: orchestrator.Config{Clock: clk, Journal: store2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if err := m2.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Resumed != 1 {
		t.Fatalf("recover report = %+v, want 1 resumed", rec)
	}
	after, err := m2.Status("vm")
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch {
		t.Fatalf("epoch %d after clean restart, want %d", after.Epoch, before.Epoch)
	}
}
