// hered is HERE's control-plane daemon: it owns an orchestrated
// hypervisor fleet, pumps its replication rounds from a real-time
// ticker, and serves the versioned JSON REST API (plus Prometheus
// /metrics) that herectl's client mode and plain curl talk to.
//
//	hered -addr 127.0.0.1:7070 -xen 2 -kvm 2
//
// Then, from another terminal:
//
//	herectl -addr 127.0.0.1:7070 protect -name svc -mem 512 -vcpus 2
//	herectl -addr 127.0.0.1:7070 status svc
//	curl -s http://127.0.0.1:7070/metrics
//
// The fleet is simulated (the same Xen-like and KVM/kvmtool-like
// hypervisors the library builds on) but the serving layer is real:
// admission control, request timeouts, structured errors, graceful
// shutdown, leveled structured logs, and an opt-in pprof/runtime
// debug listener.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/here-ft/here/internal/chv"
	"github.com/here-ft/here/internal/controlplane"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/qemukvm"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.Error("hered failed", "err", err)
		os.Exit(1)
	}
}

// logfFor bridges the library's printf-style Logf hooks onto a
// component-scoped slog logger at INFO level.
func logfFor(lg *slog.Logger) func(string, ...any) {
	return func(format string, args ...any) {
		lg.Info(fmt.Sprintf(format, args...))
	}
}

// debugHandler mounts the pprof profile family plus a Go runtime
// metrics dump on a mux of its own, so profiling stays off the API
// listener and off by default.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, r *http.Request) {
		descs := metrics.All()
		samples := make([]metrics.Sample, len(descs))
		for i, d := range descs {
			samples[i].Name = d.Name
		}
		metrics.Read(samples)
		out := make(map[string]any, len(samples))
		for _, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				out[s.Name] = s.Value.Uint64()
			case metrics.KindFloat64:
				out[s.Name] = s.Value.Float64()
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	return mux
}

func run(args []string) error {
	fs := flag.NewFlagSet("hered", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7070", "listen address")
		xenHosts    = fs.Int("xen", 2, "number of Xen hosts in the fleet")
		kvmHosts    = fs.Int("kvm", 2, "number of KVM/kvmtool hosts in the fleet")
		qemuHosts   = fs.Int("qemukvm", 0, "number of QEMU-KVM hosts in the fleet")
		chvHosts    = fs.Int("chv", 0, "number of Cloud Hypervisor hosts in the fleet")
		pump        = fs.Duration("pump", controlplane.DefaultPumpInterval, "real-time interval between orchestration rounds")
		budget      = fs.Float64("budget", 0.3, "default degradation budget D for new protections")
		tmax        = fs.Duration("tmax", 25*time.Second, "default maximum checkpoint interval T_max")
		hbInterval  = fs.Duration("hb-interval", 0, "heartbeat interval (0 = library default)")
		hbTimeout   = fs.Duration("hb-timeout", 0, "heartbeat timeout (0 = library default)")
		maxInflight = fs.Int("max-inflight", controlplane.DefaultMaxInflight, "max concurrently admitted mutating requests before 429")
		reqTimeout  = fs.Duration("req-timeout", controlplane.DefaultRequestTimeout, "handling timeout of every API route but the snapshot reads GET /v1/vms and GET /v1/vms/{name}; expiry answers 503")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		stateDir    = fs.String("state-dir", "", "control-plane state directory (write-ahead journal + snapshots); empty = in-memory only")
		fleetGroups = fs.Int("fleet-groups", 1, "shard the fleet into this many placement groups, each with its own lock and pump (1 = single group)")
		peerListen  = fs.String("peer-listen", "", "secondary-side replication transport listen address (e.g. 127.0.0.1:7071); empty = disabled")
		peer        = fs.String("peer", "", "peer daemon's replication transport address: stream checkpoints there over TCP instead of the in-process link")
		quiet       = fs.Bool("quiet", false, "suppress the access log")
		logLevel    = fs.String("log-level", "info", "log level: debug, info, warn, error")
		pprofAddr   = fs.String("pprof", "", "debug listen address for pprof profiles and Go runtime metrics (e.g. 127.0.0.1:6060); empty = disabled")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *xenHosts < 1 || *kvmHosts < 1 {
		return fmt.Errorf("need at least one host of each kind for heterogeneous pairs (got -xen %d -kvm %d)", *xenHosts, *kvmHosts)
	}
	if *fleetGroups < 1 {
		return fmt.Errorf("-fleet-groups must be at least 1 (got %d)", *fleetGroups)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	clock := vclock.NewSim()
	registry := trace.NewRegistry()

	var store *journal.Store
	if *stateDir != "" {
		jl := logger.With("component", "journal", "dir", *stateDir)
		var report journal.Report
		var err error
		// A sharded fleet funnels many groups' appends through one
		// store, so batch their fsyncs with group commit.
		store, report, err = journal.Open(*stateDir, journal.Options{GroupCommit: *fleetGroups > 1})
		if err != nil {
			return fmt.Errorf("state-dir: %w", err)
		}
		defer store.Close()
		switch {
		case report.Clean:
			jl.Info("clean shutdown snapshot, no replay needed", "snapshot_lsn", report.SnapshotLSN)
		case report.TornBytes > 0:
			jl.Warn("replayed journal, truncated torn tail",
				"replayed", report.Replayed, "snapshot_lsn", report.SnapshotLSN, "torn_bytes", report.TornBytes)
		default:
			jl.Info("replayed journal", "replayed", report.Replayed, "snapshot_lsn", report.SnapshotLSN)
		}
	}

	mcfg := orchestrator.Config{
		Clock:             clock,
		HeartbeatInterval: *hbInterval,
		HeartbeatTimeout:  *hbTimeout,
		DegradationBudget: *budget,
		MaxPeriod:         *tmax,
		Metrics:           registry,
		Journal:           store,
	}
	if *peer != "" {
		// Every protection gets its own streaming client to the peer
		// daemon; checkpoints cross real TCP, and an outage drops the
		// protection into degraded mode until the reconnect-resync
		// ladder restores it.
		peerAddr := *peer
		mcfg.DialTransport = func(name string, memBytes, generation uint64) (replication.Transport, error) {
			tl := logger.With("component", "transport-client",
				"protection", name, "peer", peerAddr, "generation", generation)
			return transport.Dial(transport.ClientConfig{
				Addr:       peerAddr,
				Protection: name,
				MemBytes:   memBytes,
				Generation: generation,
				Metrics:    registry,
				Logf:       logfFor(tl),
			})
		}
	}
	mgr, err := fleet.New(fleet.Config{Groups: *fleetGroups, Orchestrator: mcfg})
	if err != nil {
		return err
	}
	if *peerListen != "" {
		// Secondary side: accept checkpoint streams from a peer daemon.
		// The fleet's fencing guard gates every handshake, so a stale
		// primary is rejected at the wire boundary.
		ps := transport.NewServer(transport.ServerConfig{
			Fence:   mgr.Guard(),
			Metrics: registry,
			Logf:    logfFor(logger.With("component", "transport-server")),
		})
		if err := ps.Listen(*peerListen); err != nil {
			return fmt.Errorf("peer-listen: %w", err)
		}
		defer ps.Close()
		mgr.AttachPeerServer(ps)
		logger.Info("peer transport listening", "component", "transport-server", "addr", ps.Addr())
	}
	for i := 0; i < *xenHosts; i++ {
		h, err := xen.New(fmt.Sprintf("xen%d", i), clock)
		if err != nil {
			return err
		}
		if err := mgr.AddHost(h); err != nil {
			return err
		}
	}
	for i := 0; i < *kvmHosts; i++ {
		h, err := kvm.New(fmt.Sprintf("kvm%d", i), clock)
		if err != nil {
			return err
		}
		if err := mgr.AddHost(h); err != nil {
			return err
		}
	}
	for i := 0; i < *qemuHosts; i++ {
		h, err := qemukvm.New(fmt.Sprintf("qemu%d", i), clock)
		if err != nil {
			return err
		}
		if err := mgr.AddHost(h); err != nil {
			return err
		}
	}
	for i := 0; i < *chvHosts; i++ {
		h, err := chv.New(fmt.Sprintf("chv%d", i), clock)
		if err != nil {
			return err
		}
		if err := mgr.AddHost(h); err != nil {
			return err
		}
	}

	if store != nil {
		rec, err := mgr.Recover()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		logger.Info("recovered from journal", "component", "orchestrator",
			"fence", rec.Fence, "resumed", rec.Resumed, "reseeded", rec.Reseeded,
			"recreated", rec.Recreated, "failed_over", rec.FailedOver,
			"unprotected", rec.Unprotected, "lost", rec.Lost)
	}

	var apiLogf func(string, ...any)
	if !*quiet {
		apiLogf = logfFor(logger.With("component", "api"))
	}
	srv, err := controlplane.New(controlplane.Config{
		Manager:            mgr,
		PumpInterval:       *pump,
		RequestTimeout:     *reqTimeout,
		MaxInflightProtect: *maxInflight,
		Journal:            store,
		Logf:               apiLogf,
	})
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		dbg := &http.Server{Addr: *pprofAddr, Handler: debugHandler()}
		go func() {
			logger.Info("debug listener up", "component", "debug", "addr", *pprofAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "component", "debug", "err", err)
			}
		}()
		defer dbg.Close()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	logger.Info("fleet up",
		"xen", *xenHosts, "kvm", *kvmHosts, "qemukvm", *qemuHosts, "chv", *chvHosts,
		"groups", *fleetGroups, "pump", *pump, "api", "http://"+*addr)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "budget", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return <-errc
	}
}
