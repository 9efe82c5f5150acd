package main

import (
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"github.com/here-ft/here/internal/controlplane"
	"github.com/here-ft/here/internal/memory"
)

// freeAddr reserves a loopback port and releases it for run to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startDaemon runs run(args) on addr and waits until /readyz answers
// 200. run registers its signal handler before the listener starts, so
// from then on a SIGTERM to this process drains the daemon.
func startDaemon(t *testing.T, addr string, args ...string) (*controlplane.Client, <-chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(append([]string{"-addr", addr, "-quiet"}, args...)) }()
	c := controlplane.NewClient(addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if _, err := c.Readyz(); err == nil {
			return c, done
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopDaemon sends SIGTERM and expects run to drain and return nil.
func stopDaemon(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

func groupRows(t *testing.T, c *controlplane.Client) int {
	t.Helper()
	fl, err := c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	return len(fl.Groups)
}

// TestRunServesOneFleet: the default daemon serves a one-group fleet,
// drains on SIGTERM, and a restart on the same state directory under a
// different group count recovers the journaled protection.
func TestRunServesOneFleet(t *testing.T) {
	dir := t.TempDir()
	addr := freeAddr(t)

	c, done := startDaemon(t, addr, "-state-dir", dir)
	if n := groupRows(t, c); n != 1 {
		t.Fatalf("default daemon lists %d fleet groups, want 1", n)
	}
	if _, err := c.Protect(controlplane.ProtectRequest{
		Name: "svc", MemoryBytes: 64 * memory.PageSize, VCPUs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	stopDaemon(t, done)

	c, done = startDaemon(t, addr, "-state-dir", dir, "-fleet-groups", "3")
	defer stopDaemon(t, done)
	if n := groupRows(t, c); n != 3 {
		t.Fatalf("-fleet-groups 3 lists %d fleet groups, want 3", n)
	}
	vms, err := c.VMs()
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 1 || vms[0].Name != "svc" {
		t.Fatalf("recovered VMs = %+v, want svc", vms)
	}
}
