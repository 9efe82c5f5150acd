package controlplane

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/vclock"
)

// encodingJSON is the oracle: what writeJSON sent for v before the
// reflection-free encoder, trailing newline included.
func encodingJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// fuzzStatus builds a VMStatus from the fuzzer's inputs. shape picks,
// bit by bit, which optional parts are nil, empty or filled, so one
// corpus covers every omitempty and nil-slice rule.
func fuzzStatus(s1, s2 string, f1, f2 float64, n int64, shape uint16) VMStatus {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	// count maps two bits to nil, empty, one or two elements.
	count := func(i uint) int { return int(shape>>i&3) - 1 }
	host := HostDTO{Name: s1, Kind: s2, Product: s1 + s2, Health: s2, VMs: int(n)}
	if bit(0) {
		host.Reason = s1
	}
	v := VMStatus{
		Name: s1, Generation: int(n), Mode: s2, Running: bit(1),
		Epoch: uint64(n), PeriodMS: n, Budget: f1, MaxPeriod: -n,
		Primary:     host,
		Checkpoints: uint64(n) * 3, PagesSent: n, BytesSent: n << 12,
		Recovery: RecoveryDTO{Retries: n, Rollbacks: 1, DegradedEntries: 2, Resyncs: 3,
			ResyncPages: n, ResyncBytes: 5, ProtectedMS: 6, DegradedMS: 7, ResyncMS: n},
		Wire: WireDTO{RawBytes: n, EncodedBytes: n / 2, Ratio: f2},
	}
	if bit(2) {
		v.Secondary = &HostDTO{Name: s2, Kind: s1, Health: "healthy", Reason: s2}
	}
	if c := count(3); c >= 0 {
		v.Secondaries = []HostDTO{}
		for i := 0; i < c; i++ {
			v.Secondaries = append(v.Secondaries, host)
		}
	}
	if bit(5) {
		v.Want, v.Quorum = int(n), int(n>>1)
	}
	if c := count(6); c >= 0 {
		v.Legs = []LegDTO{}
		for i := 0; i < c; i++ {
			v.Legs = append(v.Legs, LegDTO{Index: i, Host: s1, Product: s2, AckedEpoch: uint64(n),
				PendingPages: int(n), NeedsSeed: bit(8), Dead: i == 1, DeadCause: s2})
		}
	}
	if bit(9) {
		d := &placement.Decision{
			Primary:   placement.Choice{Host: s1, Flavor: "xen", Overlap: int(n), Load: 2, Score: f1, Warm: bit(1)},
			Shortfall: int(n),
		}
		if c := count(10); c >= 0 {
			d.Secondaries = []placement.Choice{}
			for i := 0; i < c; i++ {
				d.Secondaries = append(d.Secondaries, placement.Choice{Host: s2, Flavor: "kvm", Score: f2, Warm: i == 0})
			}
		}
		if bit(12) {
			d.Rejections = []placement.Rejection{
				{Host: s1, Flavor: "chv", Reason: placement.RejectSharedCVEs, Overlap: int(n), Detail: s2},
				{Host: s2, Reason: placement.RejectUnhealthy},
			}
		} else if bit(13) {
			d.Rejections = []placement.Rejection{}
		}
		v.Placement = d
	}
	if bit(14) {
		v.RecoveryPolicy = &RecoveryPolicyDTO{DeadlineMS: n, MaxAttempts: int(n), BackoffMS: 9, Jitter: f2}
	}
	return v
}

// FuzzVMStatusJSON holds appendVMStatus to encoding/json byte for byte,
// and to its error on a float JSON cannot carry.
func FuzzVMStatusJSON(f *testing.F) {
	f.Add("svc", "protected", 0.05, 1.0, int64(7), uint16(0))
	f.Add("<b>&amp;</b>", "a\u2028b\u2029c", 1e-7, 1e21, int64(-1), uint16(0xffff))
	f.Add("bad\xffutf8\xc3", "\x00\x01\b\f\n\r\t\x1f\x7f\"\\/", math.Copysign(0, -1), 123456789.125, int64(1<<62), uint16(0x5a5a))
	f.Add("", "", 1e-6, 999999999999999999999.0, int64(0), uint16(0x1248))
	f.Add("日本語", "\xed\xa0\x80", 0.000001234, -2.5e-300, int64(-1<<63), uint16(0x2ee4))
	f.Add("nan", "inf", math.NaN(), 1.0, int64(1), uint16(0x4200))
	f.Add("inf", "jitter", 1.0, math.Inf(-1), int64(1), uint16(0x4000))
	f.Add("big", "ints", 9007199254740992.0, -1e20, int64(3), uint16(0x4600))
	f.Add("nil-decision", "empty", 3.0, 4.0, int64(2), uint16(1<<9))
	f.Add("empty-decision", "one", 3.0, 4.0, int64(2), uint16(1<<9|1<<10|1<<13))
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 float64, n int64, shape uint16) {
		v := fuzzStatus(s1, s2, f1, f2, n, shape)
		want, wantErr := encodingJSON(v)
		got, err := appendVMStatus([]byte("prefix"), &v)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("encoding/json failed with %v, appendVMStatus with %v", wantErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("appendVMStatus: %v", err)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("appendVMStatus clobbered dst: %q", got)
		}
		if got = append(got[len("prefix"):], '\n'); !bytes.Equal(got, want) {
			t.Fatalf("appendVMStatus differs from encoding/json\n got %s\nwant %s", got, want)
		}
	})
}

// TestWriteJSONUnsupportedValue: a value JSON cannot carry answers 500
// with the internal envelope, not an empty 2xx body.
func TestWriteJSONUnsupportedValue(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || body.Error.Code != "internal" || body.Error.Message == "" {
		t.Fatalf("status %d, body %+v: want 500 with the internal envelope", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// getBody fetches path and returns its body, failing on a non-2xx.
func getBody(t *testing.T, method, url string, body io.Reader) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("%s %s: %d %q: %s", method, url, resp.StatusCode, resp.Header.Get("Content-Type"), b)
	}
	return b
}

// TestStatusBodiesMatchEncodingJSON: the bodies of POST /v1/vms, GET
// /v1/vms and GET /v1/vms/{name} on a 1 + 2 chain beside a pair — legs,
// placement rejections, a recovery policy, a crashed host's reason —
// are the encoding/json rendering of the same values.
func TestStatusBodiesMatchEncodingJSON(t *testing.T) {
	m, hosts := newFlavorFleet(t, vclock.NewSim(), "xkcxkc")
	_, ts := newTestServer(t, m, nil)
	c := NewClient(ts.URL)

	chain := protectReq("chain")
	chain.Secondaries = 2
	raw, _ := json.Marshal(chain)
	created := getBody(t, "POST", ts.URL+"/v1/vms", bytes.NewReader(raw))
	st, err := m.Status("chain")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := encodingJSON(toVMStatus(st)); !bytes.Equal(created, want) {
		t.Fatalf("POST /v1/vms body\n got %s\nwant %s", created, want)
	}
	if _, err := c.Protect(protectReq("pair")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetRecovery("pair", RecoveryPatch{DeadlineMS: 500, MaxAttempts: 2, BackoffMS: 10, Jitter: 0.25}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// A crashed replica host shows with its reason until the next tick.
	pair, err := m.Status("pair")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if h.HostName() == pair.Secondary.Name {
			h.Fail(hypervisor.Crashed, "exploit <CVE> & more")
		}
	}

	all := m.StatusAll()
	if len(all) != 2 || len(all[0].Legs) != 2 || all[1].RecoveryPolicy.MaxAttempts != 2 {
		t.Fatalf("fleet %+v: want a 1 + 2 chain beside a pair with a recovery policy", all)
	}
	list := VMList{VMs: []VMStatus{}}
	for _, st := range all {
		list.VMs = append(list.VMs, toVMStatus(st))
	}
	want, err := encodingJSON(list)
	if err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, "GET", ts.URL+"/v1/vms", nil); !bytes.Equal(got, want) {
		t.Fatalf("GET /v1/vms body\n got %s\nwant %s", got, want)
	}
	if !bytes.Contains(want, []byte(`"reason":"exploit \u003cCVE\u003e \u0026 more"`)) {
		t.Fatalf("GET /v1/vms body lacks the crashed host's reason: %s", want)
	}
	for _, v := range list.VMs {
		one, _ := encodingJSON(v)
		if got := getBody(t, "GET", ts.URL+"/v1/vms/"+v.Name, nil); !bytes.Equal(got, one) {
			t.Fatalf("GET /v1/vms/%s body\n got %s\nwant %s", v.Name, got, one)
		}
	}

	m.Unprotect("chain")
	m.Unprotect("pair")
	if got, want := getBody(t, "GET", ts.URL+"/v1/vms", nil), "{\"vms\":[]}\n"; string(got) != want {
		t.Fatalf("empty fleet: %q, want %q", got, want)
	}
}

// slowFleet delays the reads a route can serve, to show which routes
// the request timeout bounds.
type slowFleet struct {
	Orchestrator
	delay time.Duration
}

func (s slowFleet) StatusAll() []orchestrator.Status {
	time.Sleep(s.delay)
	return s.Orchestrator.StatusAll()
}

func (s slowFleet) Status(name string) (orchestrator.Status, error) {
	time.Sleep(s.delay)
	return s.Orchestrator.Status(name)
}

func (s slowFleet) HostsStatus() []orchestrator.HostInfo {
	time.Sleep(s.delay)
	return s.Orchestrator.HostsStatus()
}

// TestTimeoutBoundsWaitingRoutes: a route that can wait answers 503
// with the timeout envelope past RequestTimeout; the snapshot reads are
// not wrapped, so they complete.
func TestTimeoutBoundsWaitingRoutes(t *testing.T) {
	m, _ := newFleet(t, vclock.NewSim(), "xk")
	if _, err := m.Protect(orchestrator.VMSpec{Name: "svc", MemoryBytes: 64 << 12, VCPUs: 1}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Manager: slowFleet{m, 50 * time.Millisecond}, RequestTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/vms", "/v1/vms/svc"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s, want 200 past the timeout", path, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/hosts", nil))
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusServiceUnavailable || body.Error.Code != "timeout" {
		t.Fatalf("GET /v1/hosts: %d %q (%v), want 503 with the timeout envelope", rec.Code, rec.Body, err)
	}
}
