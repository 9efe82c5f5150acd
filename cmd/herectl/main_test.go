package main

import (
	"bytes"
	"testing"

	here "github.com/here-ft/here"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/vclock"
)

func testVM(t *testing.T) *here.VM {
	t.Helper()
	cluster, err := here.NewCluster(here.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := cluster.CreateProtectedVM(here.VMSpec{
		Name: "t", MemoryBytes: 64 << 20, VCPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestBuildWorkload(t *testing.T) {
	vm := testVM(t)
	for _, name := range []string{
		"idle", "membench", "ycsb-A", "ycsb-F", "spec-gcc", "spec-lbm",
	} {
		w, err := buildWorkload(vm, name, 20, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w == nil {
			t.Fatalf("%s: nil workload", name)
		}
	}
}

func TestBuildWorkloadErrors(t *testing.T) {
	vm := testVM(t)
	for _, name := range []string{"", "unknown", "ycsb-Z", "spec-povray"} {
		if _, err := buildWorkload(vm, name, 20, 1); err == nil {
			t.Fatalf("%q accepted", name)
		}
	}
}

// TestParseJSONLKeepsEveryKind: a daemon's trace dump rebuilds every
// kind it names, the recovery ladder's last among them.
func TestParseJSONLKeepsEveryKind(t *testing.T) {
	tr := trace.New(vclock.NewSim(), 0)
	tr.Event(trace.EventTransport, trace.NoEpoch, trace.Event{Outcome: "fenced"})
	tr.Event(trace.EventRecovery, trace.NoEpoch, trace.Event{Outcome: "escalated", Note: "host down"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := parseJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Kind != trace.EventRecovery || events[1].Note != "host down" {
		t.Fatalf("parsed %+v, want the transport and the recovery event", events)
	}
}
