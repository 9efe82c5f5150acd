package controlplane

import (
	"fmt"
	"net/http"
	"testing"

	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

// discard is the cheapest ResponseWriter that still checks the status:
// the benchmarks time the handler, not a recorder's copy of the body.
type discard struct {
	h     http.Header
	code  int
	bytes int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(b []byte) (int, error) { d.bytes += len(b); return len(b), nil }

// benchServer serves a settled fleet of n 1 MiB guests in 4 placement
// groups over simulated links on three Xen and three KVM hosts, with a
// metrics registry, so RED runs as it does in hered.
func benchServer(b *testing.B, n int) (*Server, []string) {
	b.Helper()
	clk := vclock.NewSim()
	s, err := fleet.New(fleet.Config{Groups: 4, Orchestrator: orchestrator.Config{
		Clock: clk, Metrics: trace.NewRegistry(),
	}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		x, err := xen.New(fmt.Sprintf("xen%d", i), clk)
		if err != nil {
			b.Fatal(err)
		}
		k, err := kvm.New(fmt.Sprintf("kvm%d", i), clk)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AddHost(x); err != nil {
			b.Fatal(err)
		}
		if err := s.AddHost(k); err != nil {
			b.Fatal(err)
		}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("g%03d", i)
		if _, err := s.Protect(orchestrator.VMSpec{Name: names[i], MemoryBytes: 1 << 20, VCPUs: 1}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := New(Config{Manager: s})
	if err != nil {
		b.Fatal(err)
	}
	return srv, names
}

// serve runs req through the full handler and fails on a non-200.
func serve(b *testing.B, h http.Handler, w *discard, req *http.Request) {
	w.code, w.bytes = http.StatusOK, 0
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK || w.bytes == 0 {
		b.Fatalf("%s %s: %d, %d bytes", req.Method, req.URL.Path, w.code, w.bytes)
	}
}

// benchSizes are the fleet sizes the read benchmarks run at: the
// tcp-fleet workload's 192 protections, and the 10k fleet a sharded
// daemon is built to carry.
var benchSizes = []int{192, 10000}

// BenchmarkServeList is GET /v1/vms through Handler().ServeHTTP: the
// published snapshots' merge, the encoding and RED. body-B is the
// response's size, which grows with the fleet.
func BenchmarkServeList(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			srv, _ := benchServer(b, n)
			h, w := srv.Handler(), &discard{h: http.Header{}}
			req, _ := http.NewRequest("GET", "/v1/vms", nil)
			b.ReportAllocs()
			for b.Loop() {
				serve(b, h, w, req)
			}
			b.ReportMetric(float64(w.bytes), "body-B")
		})
	}
}

// BenchmarkServeStatus is GET /v1/vms/{name} through
// Handler().ServeHTTP, cycling over every protection of the fleet: a
// lookup in the published snapshot, which must stay near-flat in the
// fleet's size.
func BenchmarkServeStatus(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			srv, names := benchServer(b, n)
			h, w := srv.Handler(), &discard{h: http.Header{}}
			reqs := make([]*http.Request, len(names))
			for i, name := range names {
				reqs[i], _ = http.NewRequest("GET", "/v1/vms/"+name, nil)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				serve(b, h, w, reqs[i%len(reqs)])
			}
		})
	}
}
